"""Deterministic SVG rendering of curves, divisors and dual complexes.

All geometry stays exact until the final coordinate formatting, which
truncates rationals to four decimals.  Same scene, same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .geom import IntVector, Point
from .curve import TropicalCurve, items
from .newton import NewtonComplex


PALETTE = {
    "curve": "#1f77b4",
    "mobile": "#d62728",
    "cycle": "#1f77b4",
    "tentacle": "#e6882e",
    "ray": "#7f7f7f",
    "divisor": "#2ca02c",
    "dual": "#333333",
}

MARGIN = Fraction(1)  # around the exact bounding box of each panel
SIZE = 420  # pixels across the longer side of each panel


@dataclass(frozen=True)
class CurveLayer:
    curve: TropicalCurve
    color: str = PALETTE["curve"]
    item_colors: dict = field(default_factory=dict)  # ('edge'|'ray', idx) -> color


@dataclass(frozen=True)
class DivisorLayer:
    entries: tuple  # ((Point, int), ...)


@dataclass(frozen=True)
class ComplexPanel:
    complex: NewtonComplex


@dataclass(frozen=True)
class Scene:
    layers: tuple


def _fmt(x: Fraction) -> str:
    neg = x < 0
    n, d = abs(x).numerator, abs(x).denominator
    t = n * 10000 // d
    return f"{'-' if neg and t else ''}{t // 10000}.{t % 10000:04d}"


class _Panel:
    """Exact-to-pixel transform for one drawing area."""

    def __init__(self, pts: list[Point], x_offset: int):
        if not pts:
            pts = [Point(Fraction(0), Fraction(0))]
        self.minx = min(p.x for p in pts) - MARGIN
        self.maxx = max(p.x for p in pts) + MARGIN
        self.miny = min(p.y for p in pts) - MARGIN
        self.maxy = max(p.y for p in pts) + MARGIN
        w = self.maxx - self.minx
        h = self.maxy - self.miny
        self.scale = Fraction(SIZE) / max(w, h, Fraction(1))
        self.width = int(w * self.scale) + 1
        self.height = int(h * self.scale) + 1
        self.x_offset = x_offset

    def to_px(self, p: Point) -> tuple[str, str]:
        x = (p.x - self.minx) * self.scale + self.x_offset
        y = (self.maxy - p.y) * self.scale
        return _fmt(x), _fmt(y)

    def clip_ray(self, origin: Point, direction: IntVector) -> Point:
        """Farthest point of the ray inside the panel's exact bounding box."""
        best = None
        d = direction.to_point()
        for bound, coord, delta in (
            (self.maxx, origin.x, d.x),
            (self.minx, origin.x, d.x),
            (self.maxy, origin.y, d.y),
            (self.miny, origin.y, d.y),
        ):
            if delta == 0:
                continue
            t = (bound - coord) / delta
            if t >= 0 and (best is None or t < best):
                best = t
        if best is None:
            return origin
        return origin + d * best


def render(scene: Scene) -> str:
    """Emit an SVG 1.1 document; empty scenes give a minimal valid file."""
    main_layers = [l for l in scene.layers if not isinstance(l, ComplexPanel)]
    panels = [l for l in scene.layers if isinstance(l, ComplexPanel)]

    pts: list[Point] = []
    for layer in main_layers:
        if isinstance(layer, CurveLayer):
            pts.extend(layer.curve.vertices)
        elif isinstance(layer, DivisorLayer):
            pts.extend(p for p, _ in layer.entries)

    if not pts and not panels:
        return (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            'width="16" height="16"></svg>\n'
        )

    body: list[str] = []
    x_cursor = 0
    total_w = 0
    total_h = 0
    if pts:
        main = _Panel(pts, 0)
        body.extend(_render_main(main, main_layers))
        x_cursor = main.width + 24
        total_w = main.width
        total_h = main.height
    for panel in panels:
        dual_pts = [w.to_point() for w in panel.complex.dual_vertices]
        pan = _Panel(dual_pts, x_cursor)
        body.extend(_render_complex(pan, panel))
        total_w = x_cursor + pan.width
        total_h = max(total_h, pan.height)
        x_cursor += pan.width + 24
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total_w + 8}" height="{total_h + 8}">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def _render_main(panel: _Panel, layers) -> list[str]:
    out = []
    for layer in layers:
        if not isinstance(layer, CurveLayer):
            continue
        vs = layer.curve.vertices
        for it in items(layer.curve):
            color = layer.item_colors.get(
                (it.kind, it.index), layer.color
            )
            a = vs[it.tail]
            b = vs[it.head] if it.bounded else panel.clip_ray(a, it.prim)
            x1, y1 = panel.to_px(a)
            x2, y2 = panel.to_px(b)
            out.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke="{color}" stroke-width="1.5000"/>'
            )
        for v in layer.curve.vertices:
            x, y = panel.to_px(v)
            out.append(
                f'<circle cx="{x}" cy="{y}" r="2.5" fill="{layer.color}"/>'
            )
    color = PALETTE["divisor"]
    for layer in layers:
        if not isinstance(layer, DivisorLayer):
            continue
        for p, m in layer.entries:
            x, y = panel.to_px(p)
            out.append(f'<circle cx="{x}" cy="{y}" r="4" fill="{color}"/>')
            out.append(
                f'<text x="{x}" y="{y}" dx="6" dy="-6" '
                f'font-size="12" fill="{color}">{m}</text>'
            )
    return out


def _render_complex(panel: _Panel, layer: ComplexPanel) -> list[str]:
    out = []
    nc = layer.complex
    color = PALETTE["dual"]
    seen = set()
    for fi, fj, _, _ in nc.dual_edges:
        a, b = nc.dual_vertices[fi], nc.dual_vertices[fj]
        key = ((a.x, a.y), (b.x, b.y))
        key = key if key[0] <= key[1] else (key[1], key[0])
        if key in seen:
            continue
        seen.add(key)
        x1, y1 = panel.to_px(a.to_point())
        x2, y2 = panel.to_px(b.to_point())
        out.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
    for w in sorted(set(nc.dual_vertices), key=lambda v: (v.x, v.y)):
        x, y = panel.to_px(w.to_point())
        out.append(f'<circle cx="{x}" cy="{y}" r="3" fill="{color}"/>')
    return out
