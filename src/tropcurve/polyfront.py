"""Tropical polynomials: parsing, evaluation, and corner-locus curves.

A polynomial is a finite map from lattice exponents to rational coefficients
under the max-plus convention (min-plus available behind a flag).  Its corner
locus, the set where the extremum is attained at least twice, is assembled
as a weighted balanced curve dual to the regular subdivision induced by
lifting each exponent to its coefficient.  The subdivision is the projection
of the upper hull of the lifted support, found by gift-wrapping from facet to
facet on the lift scaled to integers: O(cells * terms) integer operations.
One pass over the terms per wrap gives both the facet's normal and the
terms on its plane.  The wrap, the cell dedupe (by the gcd-reduced integer
normal) and the cell hulls (the hull ring shared with newton.convex_hull)
run on (x, y) int pairs; each cell's Fractions, Point and IntVectors are
built once, for the cell returned, and the corner locus reads cell sides as
int differences.  The parser keeps each coefficient as an int pair until
its term ends, and refuses a number past the interpreter's int-string
limit with a PolyParseError at its position.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .geom import GeometryError, IntVector, Point, digit_limit, primitive_decompose
from .curve import Edge, Ray, TropicalCurve
from .newton import LatticePolygon, _hull_ring


class PolyParseError(GeometryError):
    """Syntax error; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EmptyCurveError(GeometryError):
    """A single-term polynomial has an empty corner locus."""


@dataclass(frozen=True)
class TropicalPolynomial:
    terms: tuple[tuple[tuple[int, int], Fraction], ...]  # sorted by exponent
    convention: str = "max"  # 'max' | 'min'

    def coefficients(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.terms)

    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple(e for e, _ in self.terms)


def polynomial(
    coeffs: dict[tuple[int, int], Fraction | int | str],
    convention: str = "max",
) -> TropicalPolynomial:
    if convention not in ("max", "min"):
        raise GeometryError("convention must be 'max' or 'min'")
    if not coeffs:
        raise GeometryError("a tropical polynomial needs at least one term")
    items = tuple(
        sorted(((i, j), Fraction(c)) for (i, j), c in coeffs.items())
    )
    for (i, j), _ in items:
        if i < 0 or j < 0:
            raise GeometryError(f"negative exponent ({i}, {j})")
    return TropicalPolynomial(items, convention)


# ---------------------------------------------------------------------------
# Parser: terms joined by '+', each term a tropical product of rational
# constants and powers of x, y.  Tropical product adds coefficients and
# exponents; duplicate exponents merge by the tropical sum.
# ---------------------------------------------------------------------------


def _tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("number", text[i:j], i))
            i = j
            continue
        if ch in "xy+*^()-/":
            out.append((ch, ch, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    out.append(("end", "", len(text)))
    return out


class _Parser:
    """Recursive descent over the tokens.  A term's coefficient is kept as
    an (num, den) int pair while its factors are read, and becomes one
    Fraction when the term ends."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def take(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise PolyParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def number(self) -> int:
        tok = self.take("number")
        try:
            return int(tok[1])
        except ValueError:  # past the interpreter's int-string limit
            raise PolyParseError(
                f"number of {len(tok[1])} digits exceeds the "
                f"{digit_limit()}-digit limit",
                tok[2],
            ) from None

    def rational(self) -> tuple[int, int]:
        sign = 1
        if self.tokens[self.pos][0] == "-":
            self.pos += 1
            sign = -1
        num = sign * self.number()
        if self.tokens[self.pos][0] == "/":
            self.pos += 1
            den_tok = self.tokens[self.pos]
            den = self.number()
            if den == 0:
                raise PolyParseError("zero denominator", den_tok[2])
            return num, den
        return num, 1

    def term(self) -> tuple[tuple[int, int], Fraction]:
        """Factors joined by '*': exponents and coefficients add up."""
        tokens = self.tokens
        i = j = 0
        num, den = 0, 1
        while True:
            tok = tokens[self.pos]
            kind = tok[0]
            if kind == "x" or kind == "y":
                self.pos += 1
                exp = 1
                if tokens[self.pos][0] == "^":
                    self.pos += 1
                    etok = tokens[self.pos]
                    if etok[0] == "-":
                        raise PolyParseError("negative exponent", etok[2])
                    exp = self.number()
                if kind == "x":
                    i += exp
                else:
                    j += exp
            else:
                if kind == "(":
                    self.pos += 1
                    n, d = self.rational()
                    self.take(")")
                elif kind == "number" or kind == "-":
                    n, d = self.rational()
                else:
                    raise PolyParseError(f"expected a term, found {tok[1]!r}", tok[2])
                num, den = num * d + n * den, den * d
            if tokens[self.pos][0] != "*":
                break
            self.pos += 1
        return (i, j), Fraction(num) if den == 1 else Fraction(num, den)

    def expression(self) -> list[tuple[tuple[int, int], Fraction]]:
        terms = [self.term()]
        while self.tokens[self.pos][0] == "+":
            self.pos += 1
            terms.append(self.term())
        self.take("end")
        return terms


def parse(text: str, convention: str = "max") -> TropicalPolynomial:
    """Parse an expression such as '0 + 3/2*x + y + (-1)*x*y^2'."""
    if convention not in ("max", "min"):
        raise GeometryError("convention must be 'max' or 'min'")
    terms = _Parser(text).expression()
    pick = max if convention == "max" else min
    merged: dict[tuple[int, int], Fraction] = {}
    for e, c in terms:
        merged[e] = pick(merged[e], c) if e in merged else c
    # exponents are digit strings, so none is negative
    return TropicalPolynomial(tuple(sorted(merged.items())), convention)


def evaluate(f: TropicalPolynomial, p: Point) -> Fraction:
    """Extremum over terms of i*x + j*y + coefficient."""
    values = [i * p.x + j * p.y + c for (i, j), c in f.terms]
    return max(values) if f.convention == "max" else min(values)


# ---------------------------------------------------------------------------
# Regular subdivision by exact upper hull of the lifted exponents: the
# coefficients are scaled by the LCM of their denominators, and the hull is
# gift-wrapped across cell sides with integer side and above-plane tests.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubdivisionCell:
    """One cell: its supporting slope, member exponents, hull polygon, and
    the dual curve vertex."""

    slope: tuple[Fraction, Fraction]
    offset: Fraction
    members: tuple[IntVector, ...]
    polygon: LatticePolygon  # absolute position in exponent space
    dual_vertex: Point


@dataclass(frozen=True)
class DualSubdivision:
    cells: tuple[SubdivisionCell, ...]

    def skeleton_edges(self) -> frozenset:
        out = set()
        for cell in self.cells:
            vs = cell.polygon.vertices
            if len(vs) == 2:
                pairs = [(vs[0], vs[1])]
            else:
                pairs = [
                    (vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))
                ]
            for a, b in pairs:
                ka, kb = (a.x, a.y), (b.x, b.y)
                out.add((ka, kb) if ka <= kb else (kb, ka))
        return frozenset(out)

    def vertex_set(self) -> frozenset:
        return frozenset(
            (v.x, v.y) for cell in self.cells for v in cell.polygon.vertices
        )


def _max_form(f: TropicalPolynomial) -> TropicalPolynomial:
    if f.convention == "max":
        return f
    return polynomial({e: -c for e, c in f.terms}, "max")


def dual_subdivision(f: TropicalPolynomial) -> DualSubdivision:
    """Upper-hull subdivision of the support, with dual curve vertices.

    For the min convention the subdivision is computed on the negated
    coefficients (the lower hull of the original lift).  A full-dimensional
    support is wrapped facet by facet from one hull edge; each cell holds
    every term on its facet's plane, in support order, and the cells are
    ordered by slope.
    """
    g = _max_form(f)
    if len(g.terms) < 2:
        raise EmptyCurveError("single-term polynomial has no corner locus")
    ring = _hull_ring(e for e, _ in g.terms)
    if len(ring) < 3:
        return _collinear_subdivision(g)
    scale = math.lcm(*(c.denominator for _, c in g.terms))
    lifted = [
        (i, j, c.numerator * (scale // c.denominator)) for (i, j), c in g.terms
    ]
    height = {(i, j): h for i, j, h in lifted}
    vector = {(i, j): IntVector(i, j) for i, j, _ in lifted}

    # Start edge: from the lex-min hull vertex a, the steepest term w on the
    # next hull side (the first of equal slopes).  The segment w-a is an
    # upper-hull edge with the rest of the support on the right of w -> a.
    (ax, ay), (bx, by) = ring[0], ring[1]
    ex, ey, ha = bx - ax, by - ay, height[ring[0]]
    w, rise, run = None, 0, 1
    for i, j, h in lifted:
        dx, dy = i - ax, j - ay
        if (dx or dy) and ex * dy - ey * dx == 0:
            # slope (h - ha) / run along the side, with run > 0
            if w is None or (h - ha) * run > rise * (ex * dx + ey * dy):
                w, rise, run = (i, j), h - ha, ex * dx + ey * dy
    # Every pair of terms on one side of the support hull, in the ring's
    # counterclockwise order: a cell side that runs so has no term on its
    # right, and no cell lies beyond it.  One pass over the terms per side,
    # so the cost follows the number of terms, not the size of the exponents.
    hull_sides = set()
    for (px, py), (qx, qy) in zip(ring, ring[1:] + ring[:1]):
        ex, ey = qx - px, qy - py
        on_side = sorted(
            (ex * (i - px) + ey * (j - py), (i, j))
            for i, j in height
            if ex * (j - py) == ey * (i - px)
        )
        hull_sides.update(itertools.combinations([t for _, t in on_side], 2))
    # by the normal over its gcd: _wrap may give one plane at several scales
    cells: dict[tuple[int, int, int], SubdivisionCell] = {}
    owned: set[tuple[tuple, tuple]] = set()  # sides of known cells
    pending = [(w, ring[0])]
    while pending:
        side = pending.pop()
        p, q = side
        if (q, p) in owned or side in hull_sides:
            continue  # the cell beyond this side is known, or there is none
        u = (*p, height[p])
        (nx, ny, nz), on = _wrap(lifted, u, (*q, height[q]))
        level = nx * u[0] + ny * u[1] + nz * u[2]
        cell_ring = _hull_ring(on)
        d = nz * scale
        k = math.gcd(nx, ny, nz)
        x, y = Fraction(nx, d), Fraction(ny, d)
        cells[nx // k, ny // k, nz // k] = SubdivisionCell(
            (-x, -y),
            Fraction(level, d),
            tuple(vector[t] for t in on),
            LatticePolygon(tuple(vector[t] for t in cell_ring)),
            Point(x, y),
        )
        sides = list(zip(cell_ring, cell_ring[1:] + cell_ring[:1]))
        owned.update(sides)
        pending.extend(sides)
    # the slope of a cell is (-nx, -ny) / (nz * scale): order on one
    # common denominator
    m = math.lcm(*(nz for _, _, nz in cells))
    order = sorted(cells, key=lambda n: (-n[0] * (m // n[2]), -n[1] * (m // n[2])))
    return DualSubdivision(tuple(cells[n] for n in order))


def _wrap(lifted, u, v) -> tuple[tuple[int, int, int], list[tuple]]:
    """The upper facet across the hull edge u-v on the right of u -> v: its
    upward normal (nz > 0) and the (x, y) terms on its plane, in support
    order.  Some term must lie strictly on that side.

    Every plane through u, v and a term r strictly on the right is a turn of
    one plane about the line uv, so "some term lies above r's plane" orders
    the candidates totally and one pass finds the last turn.  The terms on
    the current plane are kept as ties while the pass runs, and dropped when
    the plane turns, since a term off the line uv lies on one plane of the
    pencil only.  Terms on the lifted line uv lie on every plane of it.
    """
    ux, uy, uh = u
    ex, ey, eh = v[0] - ux, v[1] - uy, v[2] - uh
    # the pass starts from the vertical plane through uv, below every term
    # on the right of it
    a, b, c = ey, -ex, 0
    line, ties = [], []
    for t in lifted:
        i, j, h = t
        dx, dy = i - ux, j - uy
        side = ex * dy - ey * dx
        if side < 0:
            dh = h - uh
            above = a * dx + b * dy + c * dh
            if above > 0:
                # (r - u) x (v - u), whose z-part is positive on this side
                a, b, c = dy * eh - dh * ey, dh * ex - dx * eh, dx * ey - dy * ex
                ties = [t]
            elif above == 0:
                ties.append(t)
        elif side == 0:
            dh = h - uh
            if dx * eh == dh * ex and dy * eh == dh * ey:
                line.append(t)
    return (a, b, c), [(i, j) for i, j, _ in sorted(line + ties)]


def _collinear_subdivision(g: TropicalPolynomial) -> DualSubdivision:
    """Support on one lattice line: cells are the segments of the upper
    concave envelope in the line parameter."""
    pts = [IntVector(i, j) for (i, j), _ in g.terms]
    base = min(pts, key=lambda v: (v.x, v.y))
    far = max(pts, key=lambda v: (v.x, v.y))
    direction, _ = primitive_decompose(far - base)

    def coord(v: IntVector) -> int:
        d = v - base
        return d.x // direction.x if direction.x else d.y // direction.y

    lift = [(coord(v), c) for v, (_, c) in zip(pts, g.terms)]
    exponent = {k: v for (k, _), v in zip(lift, pts)}  # line parameter -> term
    # The upper envelope in (k, c), left to right: the hull ring's first
    # corner, then its corners from the last (the lex-max one) back.
    ring = _hull_ring(lift)
    top = ring.index(max(ring))
    chain = [ring[0], *reversed(ring[top:])]
    cells = []
    for (k1, c1), (k2, c2) in zip(chain, chain[1:]):
        v1, v2 = exponent[k1], exponent[k2]
        # tie locus of the two surviving terms: <v2-v1, x> = c1 - c2
        d = v2 - v1
        rhs = c1 - c2
        norm = Fraction(d.x * d.x + d.y * d.y)
        vertex = Point(rhs * d.x / norm, rhs * d.y / norm)
        slope_x = Fraction(-vertex.x)
        slope_y = Fraction(-vertex.y)
        cells.append(
            SubdivisionCell(
                (slope_x, slope_y),
                c1 - slope_x * v1.x - slope_y * v1.y,
                (v1, v2),
                LatticePolygon((v1, v2) if (v1.x, v1.y) <= (v2.x, v2.y) else (v2, v1)),
                vertex,
            )
        )
    return DualSubdivision(tuple(cells))


def corner_locus(f: TropicalPolynomial) -> TropicalCurve:
    """The non-differentiability set of f as a weighted balanced curve."""
    sub = dual_subdivision(f)
    if len(sub.cells[0].polygon.vertices) == 2:
        curve_max = _collinear_corner_locus(sub)  # support on one lattice line
    else:
        curve_max = _planar_corner_locus(sub)
    if f.convention == "min":
        return TropicalCurve(
            tuple(Point(-v.x, -v.y) for v in curve_max.vertices),
            curve_max.edges,
            tuple(Ray(r.vertex, -r.direction, r.weight) for r in curve_max.rays),
        )
    return curve_max


def _lattice_length(d: IntVector) -> int:
    return primitive_decompose(d)[1]


def _planar_corner_locus(sub: DualSubdivision) -> TropicalCurve:
    cells = sub.cells
    vertices = [c.dual_vertex for c in cells]
    # Each owner of a boundary edge, with the edge as an int difference
    # (x, y) oriented along the owner's polygon.
    edge_owner: dict[tuple, list[tuple[int, int, int]]] = {}
    for idx, cell in enumerate(cells):
        vs = [(v.x, v.y) for v in cell.polygon.vertices]
        for a, b in zip(vs, vs[1:] + vs[:1]):
            key = (a, b) if a <= b else (b, a)
            edge_owner.setdefault(key, []).append((idx, b[0] - a[0], b[1] - a[1]))
    edges = []
    rays = []
    for _, owners in sorted(edge_owner.items()):
        if len(owners) == 2:
            (i, dx, dy), (j, _, _) = owners
            edges.append(Edge(i, j, math.gcd(dx, dy)))
        elif len(owners) == 1:
            (i, dx, dy), = owners
            w = math.gcd(dx, dy)
            rays.append(Ray(i, IntVector(dy // w, -dx // w), w))  # side rotated -90
        else:
            raise GeometryError("a subdivision edge borders more than two cells")
    return TropicalCurve(tuple(vertices), tuple(edges), tuple(rays))


def _collinear_corner_locus(sub: DualSubdivision) -> TropicalCurve:
    vertices = []
    rays = []
    for idx, cell in enumerate(sub.cells):
        v1, v2 = cell.members
        d = v2 - v1
        w = _lattice_length(d)
        direction, _ = primitive_decompose(d.rot_ccw())
        vertices.append(cell.dual_vertex)
        rays.append(Ray(idx, direction, w))
        rays.append(Ray(idx, -direction, w))
    return TropicalCurve(tuple(vertices), (), tuple(rays))
