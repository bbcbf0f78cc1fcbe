"""JSON schemas for curves, divisors, dual complexes and polygons.

Rationals serialize as strings "p/q" (or "p" when the denominator is 1),
read in the polynomials' grammar (`geom._RATIONAL`); lattice data
serializes as plain integers.  Emission is canonical: fixed key order,
two-space indent, trailing newline, so serialize-parse-serialize is
byte-stable.  A curve is written directly in that layout by curve_to_json,
without the json module's pure-Python indenting encoder, each coordinate
read off the curve's integer grid (its vertices times their common
denominator) and reduced there, so a curve built on the grid writes no
Fraction; the other schemas go through dumps.  A number beyond the
interpreter's int-string limit is refused on input with a SchemaError that
names the field and the digit count, and on output with an OutputLimitError
that names the digit count; a file that is not UTF-8 is a SchemaError.
"""

from __future__ import annotations

import json
from dataclasses import astuple
from fractions import Fraction
from math import gcd

from .geom import _RATIONAL, GeometryError, IntVector, Point, RefusalError, _read_ratio
from .geom import decimal_digits, digit_limit
from .curve import Edge, Ray, TropicalCurve
from .intersect import Divisor
from .newton import LatticePolygon, NewtonComplex


class SchemaError(GeometryError):
    """Input does not match the documented schema; names the field."""


class OutputLimitError(RefusalError):
    """A number to print is past the int-string limit; names its digits."""


def fraction_to_str(x: Fraction) -> str:
    return _ratio_to_str(x.numerator, x.denominator)


def _ratio_to_str(n: int, d: int) -> str:
    """n/d, d > 0, in lowest terms as str(Fraction) writes it; past the
    int-string limit, an OutputLimitError naming the larger part's digits."""
    g = gcd(n, d)
    n, d = n // g, d // g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:  # past the interpreter's int-string limit
        raise _past_limit((n, d)) from None


def fraction_from_str(s, field: str) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise SchemaError(f"{field}: expected a rational string, got {s!r}")
    if _RATIONAL.fullmatch(s):
        n, d = _read_ratio(s, lambda message, _: SchemaError(f"{field}: {message}"))
        if d:
            return Fraction(n, d)
    raise SchemaError(f"{field}: invalid rational {s!r}")


def _point_to_list(p: Point) -> list[str]:
    return [fraction_to_str(p.x), fraction_to_str(p.y)]


def _point_from(obj, field: str) -> Point:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise SchemaError(f"{field}: expected [x, y]")
    return Point(
        fraction_from_str(obj[0], f"{field}[0]"),
        fraction_from_str(obj[1], f"{field}[1]"),
    )


def _int_field(obj, field: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise SchemaError(f"{field}: expected an integer")
    return obj


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


def curve_from_dict(d) -> TropicalCurve:
    if not isinstance(d, dict):
        raise SchemaError("curve: expected an object")
    for key in ("vertices", "edges", "rays"):
        if key not in d:
            raise SchemaError(f"curve.{key}: missing")
        if not isinstance(d[key], list):
            raise SchemaError(f"curve.{key}: expected a list")
    vertices = tuple(
        _point_from(v, f"vertices[{i}]") for i, v in enumerate(d["vertices"])
    )
    edges = []
    for i, e in enumerate(d["edges"]):
        if not isinstance(e, dict) or "v" not in e:
            raise SchemaError(f"edges[{i}]: expected an object with 'v'")
        pair = e["v"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"edges[{i}].v: expected [a, b]")
        edges.append(
            Edge(
                _int_field(pair[0], f"edges[{i}].v[0]"),
                _int_field(pair[1], f"edges[{i}].v[1]"),
                _int_field(e.get("w", 1), f"edges[{i}].w"),
            )
        )
    rays = []
    for i, r in enumerate(d["rays"]):
        if not isinstance(r, dict) or "v" not in r or "dir" not in r:
            raise SchemaError(f"rays[{i}]: expected an object with 'v' and 'dir'")
        direction = r["dir"]
        if not isinstance(direction, list) or len(direction) != 2:
            raise SchemaError(f"rays[{i}].dir: expected [dx, dy]")
        rays.append(
            Ray(
                _int_field(r["v"], f"rays[{i}].v"),
                IntVector(
                    _int_field(direction[0], f"rays[{i}].dir[0]"),
                    _int_field(direction[1], f"rays[{i}].dir[1]"),
                ),
                _int_field(r.get("w", 1), f"rays[{i}].w"),
            )
        )
    return TropicalCurve(vertices, tuple(edges), tuple(rays))


def dumps(obj, indent: int | None = 2) -> str:
    try:
        return json.dumps(obj, indent=indent) + "\n"
    except ValueError:  # an int past the int-string limit
        raise _past_limit(obj) from None


def _largest_int(obj) -> int:
    """The int of largest magnitude among the values of a JSON payload of
    dicts, lists and tuples; 0 when it holds none."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return max((_largest_int(x) for x in obj), key=abs, default=0)
    return obj if isinstance(obj, int) and not isinstance(obj, bool) else 0


def _past_limit(obj) -> OutputLimitError:
    """The refusal of a payload that holds an int past the limit."""
    return OutputLimitError(
        f"number of {decimal_digits(_largest_int(obj))} digits exceeds "
        f"the {digit_limit()}-digit output limit"
    )


def _block(entries: list[str]) -> str:
    """A list one level below the top, from its entries at indent 4."""
    return "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"


def curve_to_json(c: TropicalCurve) -> str:
    """The curve schema in the layout of dumps, written directly; each
    coordinate from the curve's grid, reduced by its gcd with the scale."""
    L = c._scale
    vertices = _block([
        f'    [\n      "{_ratio_to_str(x, L)}",\n      "{_ratio_to_str(y, L)}"\n    ]'
        for x, y in c._grid
    ])
    try:
        edges = _block([
            f'    {{\n      "v": [\n        {e.a},\n        {e.b}\n      ],\n'
            f'      "w": {e.weight}\n    }}'
            for e in c.edges
        ])
        rays = _block([
            f'    {{\n      "v": {r.vertex},\n      "dir": [\n        {r.direction.x},\n'
            f'        {r.direction.y}\n      ],\n      "w": {r.weight}\n    }}'
            for r in c.rays
        ])
    except ValueError:  # an int past the int-string limit
        raise _past_limit([astuple(it) for it in (*c.edges, *c.rays)]) from None
    return (
        f'{{\n  "vertices": {vertices},\n  "edges": {edges},\n'
        f'  "rays": {rays}\n}}\n'
    )


def _loads(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"{what}: invalid JSON ({err.msg} at char {err.pos})")
    except ValueError:  # an integer literal past the int-string limit
        raise SchemaError(
            f"{what}: a JSON integer exceeds the {digit_limit()}-digit limit"
        ) from None
    except RecursionError:
        raise SchemaError(f"{what}: nesting too deep") from None


def curve_from_json(text: str) -> TropicalCurve:
    return curve_from_dict(_loads(text, "curve"))


def _read(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise SchemaError(f"{what}: not UTF-8 ({err.reason} at byte {err.start})") from None


def load_curve(path: str) -> TropicalCurve:
    return curve_from_json(_read(path, "curve"))


# ---------------------------------------------------------------------------
# Divisors
# ---------------------------------------------------------------------------


def divisor_to_list(d: Divisor) -> list:
    return [
        {"point": _point_to_list(p), "multiplicity": m} for p, m in d.entries
    ]


def divisor_from_list(data, host: TropicalCurve | None = None) -> Divisor:
    if not isinstance(data, list):
        raise SchemaError("divisor: expected a list")
    acc: dict[Point, int] = {}
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or "point" not in entry:
            raise SchemaError(f"divisor[{i}]: expected an object with 'point'")
        p = _point_from(entry["point"], f"divisor[{i}].point")
        m = _int_field(entry.get("multiplicity", 1), f"divisor[{i}].multiplicity")
        acc[p] = acc.get(p, 0) + m
    return Divisor.of(acc, host)


def load_divisor(path: str, host: TropicalCurve | None = None) -> Divisor:
    return divisor_from_list(_loads(_read(path, "divisor"), "divisor"), host)


# ---------------------------------------------------------------------------
# Dual complexes and polygons (lattice points as integer pairs)
# ---------------------------------------------------------------------------


def polygon_to_list(p: LatticePolygon) -> list:
    return [[v.x, v.y] for v in p.vertices]


def complex_to_dict(nc: NewtonComplex) -> dict:
    return {
        "dual_vertices": [[w.x, w.y] for w in nc.dual_vertices],
        "dual_edges": [
            {
                "faces": [fi, fj],
                "item": [kind, idx],
                "from": [nc.dual_vertices[fi].x, nc.dual_vertices[fi].y],
                "to": [nc.dual_vertices[fj].x, nc.dual_vertices[fj].y],
            }
            for fi, fj, kind, idx in nc.dual_edges
        ],
    }
