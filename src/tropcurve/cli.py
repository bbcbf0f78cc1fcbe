"""Command-line interface.

Exit codes: 0 success, 1 domain refusal (any RefusalError: imbalance, a
self-crossing, unmet hypotheses), 2 input or usage error.  Every curve file
passes the validity gate (`curve.require_valid`) on load, except in
`validate`, which reports, so a bad file is refused before any output.  The
library's analyses admit through the same gate, which keeps its verdict on
the curve: a loaded curve is validated once.
`--json` switches every subcommand to machine-readable output on stdout.
"""

from __future__ import annotations

import argparse
import random
import sys

from .geom import GeometryError, IntVector, RefusalError
from .curve import TropicalCurve, require_valid, validate
from .bunch import NotABouquet, _classes, bouquet_structure, bunch
from .intersect import bezout_degree, is_transversal, stable_intersection
from .jacobian import (
    CycleSystem,
    abel_coordinate,
    cycle_system,
    require_reduced,
    sigma,
)
from .newton import convex_hull, newton_complex, newton_polygon
from .params import curve_from_params, params_from_curve, perturb
from .polyfront import corner_locus, parse as parse_poly
from . import jsonio, svgout
from .jsonio import fraction_to_str as _num


def _load(path: str) -> TropicalCurve:
    """Read a curve file; refuse it unless it is balanced and embedded."""
    return require_valid(jsonio.load_curve(path))


def _load_system(path: str) -> CycleSystem:
    """Read a host curve file; refuse it unless valid, reduced and a bouquet."""
    return cycle_system(require_reduced(_load(path)))


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(payload) -> None:
    sys.stdout.write(jsonio.dumps(payload))


def _pair(x, y) -> str:
    return f"({_num(x)}, {_num(y)})"


def _abel_payload(coord) -> dict:
    return {
        "degree": coord.degree,
        "residues": [_num(r) for r in coord.residues],
    }


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    c = jsonio.load_curve(args.curve)
    report = validate(c)
    if args.json:
        _emit_json(
            {
                "balanced": report.balanced,
                "embedding_ok": not report.embedding_violations,
                "residuals": [[_num(r.x), _num(r.y)] for r in report.residuals],
                "violations": list(report.embedding_violations),
            }
        )
    else:
        print(f"balanced: {str(report.balanced).lower()}")
        if not report.balanced:
            for i, r in enumerate(report.residuals):
                if r:
                    print(f"  vertex {i}: residual {_pair(r.x, r.y)}")
        if report.embedding_violations:
            print("embedding violations:")
            for v in report.embedding_violations:
                print(f"  {v}")
    return 0 if report.passed else 1


def cmd_newton(args) -> int:
    c = _load(args.curve)
    nc = newton_complex(c)
    poly = newton_polygon(c)
    if args.svg:
        scene = svgout.Scene(
            (svgout.CurveLayer(c), svgout.ComplexPanel(nc))
        )
        _write(args.svg, svgout.render(scene))
    if args.json:
        _emit_json(
            {
                "polygon": jsonio.polygon_to_list(poly),
                "complex": jsonio.complex_to_dict(nc),
            }
        )
    else:
        verts = " ".join(_pair(v.x, v.y) for v in poly.vertices)
        print(f"newton polygon: {verts}")
        print(f"dual vertices: {len(set(nc.dual_vertices))}")
        print(f"dual edges: {len(nc.dual_edges)}")
    return 0


def cmd_intersect(args) -> int:
    c1 = _load(args.curve1)
    c2 = _load(args.curve2)
    d = stable_intersection(c1, c2)
    if args.svg:
        scene = svgout.Scene(
            (
                svgout.CurveLayer(c1),
                svgout.CurveLayer(c2, color=svgout.PALETTE["mobile"]),
                svgout.DivisorLayer(d.entries),
            )
        )
        _write(args.svg, svgout.render(scene))
    if args.json:
        _emit_json(
            {"divisor": jsonio.divisor_to_list(d), "degree": d.degree}
        )
    else:
        for p, m in d.entries:
            print(f"{_pair(p.x, p.y)}  multiplicity {_num(m)}")
        print(f"degree: {_num(d.degree)}")
    return 0


def cmd_bezout(args) -> int:
    if args.deg:
        c, dd = args.deg
        if c < 0 or dd < 0:
            raise GeometryError(f"degrees must be non-negative, got {c} {dd}")
        p = convex_hull(
            [IntVector(0, 0), IntVector(c, 0), IntVector(0, c)]
        )
        q = convex_hull(
            [IntVector(0, 0), IntVector(dd, 0), IntVector(0, dd)]
        )
    else:
        if not (args.curve1 and args.curve2):
            raise GeometryError("bezout needs two curve files or --deg c d")
        p = newton_polygon(_load(args.curve1))
        q = newton_polygon(_load(args.curve2))
    n = bezout_degree(p, q)
    if args.json:
        _emit_json({"degree": n})
    else:
        print(_num(n))
    return 0


def cmd_bunch(args) -> int:
    c = _load(args.curve)
    b = bunch(c)
    classes = _classes(b, len(c.edges))
    bq = bouquet_structure(c, b)
    if args.svg:
        colors = {}
        for i, kind in enumerate(classes):
            colors[("edge", i)] = svgout.PALETTE[kind]
        for i in range(len(c.rays)):
            colors[("ray", i)] = svgout.PALETTE["ray"]
        scene = svgout.Scene(
            (svgout.CurveLayer(c, item_colors=colors),)
        )
        _write(args.svg, svgout.render(scene))
    is_bq = not isinstance(bq, NotABouquet)
    if args.json:
        payload = {
            "edges": list(classes),
            "genus": b.genus(),
            "bouquet": is_bq,
        }
        if is_bq:
            payload["cycles"] = [
                {
                    "vertices": list(cc.vertex_path),
                    "edges": list(cc.edge_indices),
                    "base_vertex": cc.base_vertex,
                }
                for cc in bq.cycles
            ]
        else:
            payload["reason"] = bq.reason
        _emit_json(payload)
    else:
        for i, kind in enumerate(classes):
            print(f"edge {i}: {kind}")
        for i in range(len(c.rays)):
            print(f"ray {i}: ray")
        print(f"genus: {b.genus()}")
        if is_bq:
            print(f"bouquet: yes ({bq.genus} cycles)")
        else:
            print(f"bouquet: no ({bq.reason})")
    return 0


def cmd_jacobi(args) -> int:
    system = _load_system(args.curve)
    moduli = [_num(m) for m in system.moduli()]
    payload: dict = {"genus": system.genus, "moduli": moduli}
    if args.divisor:
        d = jsonio.load_divisor(args.divisor, host=system.curve)
        payload["abel"] = _abel_payload(abel_coordinate(system, d))
    if args.json:
        _emit_json(payload)
    else:
        print(f"genus: {system.genus}")
        print(f"moduli: {' '.join(moduli) if moduli else '(none)'}")
        if args.divisor:
            a = payload["abel"]
            print(f"degree: {_num(a['degree'])}")
            print(f"residues: {' '.join(a['residues']) or '(none)'}")
    return 0


def cmd_equiv(args) -> int:
    system = _load_system(args.curve)
    d1 = jsonio.load_divisor(args.divisor1, host=system.curve)
    d2 = jsonio.load_divisor(args.divisor2, host=system.curve)
    a1 = abel_coordinate(system, d1)
    a2 = abel_coordinate(system, d2)
    verdict = a1 == a2
    diff = [
        _num((r1 - r2) % cp.total_length)
        for r1, r2, cp in zip(a1.residues, a2.residues, system.cycles)
    ]
    if args.json:
        _emit_json(
            {
                "equivalent": verdict,
                "degrees": [a1.degree, a2.degree],
                "difference": diff,
            }
        )
    else:
        print(f"equivalent: {str(verdict).lower()}")
        print(f"degrees: {_num(a1.degree)} {_num(a2.degree)}")
        print(f"residue difference: {' '.join(diff) or '(none)'}")
    return 0


def cmd_sigma(args) -> int:
    system = _load_system(args.curve)
    mobile = _load(args.mobile)
    coord = sigma(system, mobile)
    if args.json:
        _emit_json({"sigma": _abel_payload(coord)})
    else:
        a = _abel_payload(coord)
        print(f"degree: {_num(a['degree'])}")
        print(f"residues: {' '.join(a['residues']) or '(none)'}")
    return 0


def cmd_walk(args) -> int:
    if args.steps < 0:
        raise GeometryError(f"step count must be non-negative, got {args.steps}")
    system = _load_system(args.host)
    mobile = _load(args.mobile)
    p = params_from_curve(mobile)
    rng = random.Random(args.seed)
    for step in range(args.steps):
        c = curve_from_params(p)
        coord = sigma(system, c)
        try:
            sys.stdout.write(jsonio.dumps({
                "step": step,
                "lengths": [_num(x) for x in p.lengths],
                "anchor": [_num(p.anchor_pos.x), _num(p.anchor_pos.y)],
                "sigma": _abel_payload(coord),
                "transversal": is_transversal(system.curve, c),
            }, indent=None))
        except jsonio.OutputLimitError as err:
            raise jsonio.OutputLimitError(f"walk step {step}: {err}") from None
        p = perturb(p, rng)
    return 0


def cmd_from_poly(args) -> int:
    f = parse_poly(args.expression, convention=args.convention)
    c = corner_locus(f)
    _write(args.output, jsonio.curve_to_json(c))
    return 0


def cmd_render(args) -> int:
    layers = []
    palette = [svgout.PALETTE["curve"], svgout.PALETTE["mobile"], "#2ca02c", "#9467bd"]
    curves = [_load(path) for path in args.curves]
    for i, c in enumerate(curves):
        layers.append(svgout.CurveLayer(c, color=palette[i % len(palette)]))
    if args.newton:
        if not curves:
            raise GeometryError("render --newton needs a curve")
        layers.append(svgout.ComplexPanel(newton_complex(curves[0])))
    if args.divisor:
        d = jsonio.load_divisor(args.divisor)
        layers.append(svgout.DivisorLayer(d.entries))
    scene = svgout.Scene(tuple(layers))
    _write(args.output, svgout.render(scene))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropcurve",
        description="Exact toolkit for tropical plane curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    p = add("validate", cmd_validate, "check balancing and embedding")
    p.add_argument("curve")

    p = add("newton", cmd_newton, "dual complex and polygon")
    p.add_argument("curve")
    p.add_argument("--svg", metavar="FILE", help="write curve + dual complex figure")

    p = add("intersect", cmd_intersect, "stable intersection divisor")
    p.add_argument("curve1")
    p.add_argument("curve2")
    p.add_argument("--svg", metavar="FILE", help="write an overlay figure")

    p = add("bezout", cmd_bezout, "intersection degree from polygons")
    p.add_argument("curve1", nargs="?")
    p.add_argument("curve2", nargs="?")
    p.add_argument(
        "--deg",
        nargs=2,
        type=int,
        metavar=("C", "D"),
        help="use projective triangles of these degrees",
    )

    p = add("bunch", cmd_bunch, "tentacle classification, genus, bouquet verdict")
    p.add_argument("curve")
    p.add_argument("--svg", metavar="FILE", help="write a colored classification figure")

    p = add("jacobi", cmd_jacobi, "cycle moduli and divisor coordinates")
    p.add_argument("curve")
    p.add_argument("divisor", nargs="?")

    p = add("equiv", cmd_equiv, "decide linear equivalence of two divisors")
    p.add_argument("curve")
    p.add_argument("divisor1")
    p.add_argument("divisor2")

    p = add("sigma", cmd_sigma, "coordinates of the intersection with a mobile curve")
    p.add_argument("curve")
    p.add_argument("mobile")

    p = add("walk", cmd_walk, "sigma-constancy chain over the mobile curve's cone")
    p.add_argument("host")
    p.add_argument("mobile")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = add("from-poly", cmd_from_poly, "corner locus of a tropical polynomial")
    p.add_argument("expression")
    p.add_argument(
        "--convention", choices=("max", "min"), default="max"
    )
    p.add_argument("-o", "--output", default=None)

    p = add("render", cmd_render, "SVG figure of curves and extras")
    p.add_argument("curves", nargs="*")
    p.add_argument("--newton", action="store_true", help="add a dual-complex panel")
    p.add_argument("--divisor", metavar="FILE")
    p.add_argument("-o", "--output", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RefusalError as err:
        print(f"refused: {err}", file=sys.stderr)
        return 1
    except (GeometryError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
