"""Tropical polynomials: parsing, evaluation, and corner-locus curves.

A polynomial is a finite map from lattice exponents to rational coefficients
under the max-plus convention (min-plus available behind a flag).  Its corner
locus, the set where the extremum is attained at least twice, is assembled
as a weighted balanced curve dual to the regular subdivision induced by
lifting each exponent to its coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geom import GeometryError, IntVector, Point, primitive_decompose
from .curve import Edge, Ray, TropicalCurve
from .newton import LatticePolygon, convex_hull


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
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise PolyParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def rational(self) -> Fraction:
        sign = 1
        if self.peek()[0] == "-":
            self.take("-")
            sign = -1
        num = int(self.take("number")[1])
        if self.peek()[0] == "/":
            self.take("/")
            den_tok = self.take("number")
            den = int(den_tok[1])
            if den == 0:
                raise PolyParseError("zero denominator", den_tok[2])
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def factor(self) -> tuple[int, int, Fraction]:
        tok = self.peek()
        if tok[0] == "(":
            self.take("(")
            value = self.rational()
            self.take(")")
            return (0, 0, value)
        if tok[0] in ("number", "-"):
            return (0, 0, self.rational())
        if tok[0] in ("x", "y"):
            self.take(tok[0])
            exp = 1
            if self.peek()[0] == "^":
                self.take("^")
                etok = self.peek()
                if etok[0] == "-":
                    raise PolyParseError("negative exponent", etok[2])
                exp = int(self.take("number")[1])
            return (exp, 0, Fraction(0)) if tok[0] == "x" else (0, exp, Fraction(0))
        raise PolyParseError(f"expected a term, found {tok[1]!r}", tok[2])

    def term(self) -> tuple[tuple[int, int], Fraction]:
        i, j, c = self.factor()
        while self.peek()[0] == "*":
            self.take("*")
            di, dj, dc = self.factor()
            i, j, c = i + di, j + dj, c + dc
        return ((i, j), c)

    def expression(self) -> list[tuple[tuple[int, int], Fraction]]:
        terms = [self.term()]
        while self.peek()[0] == "+":
            self.take("+")
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
    return polynomial(merged, convention)


def evaluate(f: TropicalPolynomial, p: Point) -> Fraction:
    """Extremum over terms of i*x + j*y + coefficient."""
    values = [i * p.x + j * p.y + c for (i, j), c in f.terms]
    return max(values) if f.convention == "max" else min(values)


def dominant_terms(f: TropicalPolynomial, p: Point) -> tuple[tuple[int, int], ...]:
    best = evaluate(f, p)
    return tuple(
        e for e, c in f.terms if e[0] * p.x + e[1] * p.y + c == best
    )


# ---------------------------------------------------------------------------
# Regular subdivision by exact upper hull of the lifted exponents.
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


def _plane_through(pts) -> tuple[Fraction, Fraction, Fraction] | None:
    (i1, j1, c1), (i2, j2, c2), (i3, j3, c3) = pts
    det = (i2 - i1) * (j3 - j1) - (i3 - i1) * (j2 - j1)
    if det == 0:
        return None
    sx = Fraction((c2 - c1) * (j3 - j1) - (c3 - c1) * (j2 - j1), det)
    sy = Fraction((i2 - i1) * (c3 - c1) - (i3 - i1) * (c2 - c1), det)
    t = c1 - sx * i1 - sy * j1
    return (sx, sy, t)


def dual_subdivision(f: TropicalPolynomial) -> DualSubdivision:
    """Upper-hull subdivision of the support, with dual curve vertices.

    For the min convention the subdivision is computed on the negated
    coefficients (the lower hull of the original lift).
    """
    g = _max_form(f)
    lifted = [(i, j, c) for (i, j), c in g.terms]
    if len(lifted) < 2:
        raise EmptyCurveError("single-term polynomial has no corner locus")
    hull2d = convex_hull([IntVector(i, j) for i, j, _ in lifted])
    if hull2d.area2() == 0:
        return _collinear_subdivision(g)
    cells: dict[tuple, SubdivisionCell] = {}
    n = len(lifted)
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                plane = _plane_through((lifted[a], lifted[b], lifted[c]))
                if plane is None or plane[:2] in cells:
                    continue
                sx, sy, t = plane
                if all(ci <= sx * i + sy * j + t for i, j, ci in lifted):
                    members = tuple(
                        IntVector(i, j)
                        for i, j, ci in lifted
                        if ci == sx * i + sy * j + t
                    )
                    poly = convex_hull(list(members))
                    if poly.area2() == 0:
                        continue
                    cells[(sx, sy)] = SubdivisionCell(
                        (sx, sy), t, members, poly, Point(-sx, -sy)
                    )
    ordered = tuple(
        cells[k] for k in sorted(cells, key=lambda s: (s[0], s[1]))
    )
    return DualSubdivision(ordered)


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

    lifted = sorted(
        (coord(IntVector(i, j)), Fraction(c), IntVector(i, j))
        for (i, j), c in g.terms
    )
    # upper hull in (k, c)
    chain: list[tuple] = []
    for k, c, v in lifted:
        while len(chain) >= 2:
            (k1, c1, _), (k2, c2, _) = chain[-2], chain[-1]
            if (c2 - c1) * (k - k1) <= (c - c1) * (k2 - k1):
                chain.pop()
            else:
                break
        chain.append((k, c, v))
    cells = []
    for (k1, c1, v1), (k2, c2, v2) in zip(chain, chain[1:]):
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
    # Each owner of a boundary edge with the edge oriented along its polygon.
    edge_owner: dict[tuple, list[tuple[int, IntVector]]] = {}
    for idx, cell in enumerate(cells):
        vs = cell.polygon.vertices
        for i in range(len(vs)):
            a, b = vs[i], vs[(i + 1) % len(vs)]
            ka, kb = (a.x, a.y), (b.x, b.y)
            key = (ka, kb) if ka <= kb else (kb, ka)
            edge_owner.setdefault(key, []).append((idx, b - a))
    edges = []
    rays = []
    for _, owners in sorted(edge_owner.items()):
        if len(owners) == 2:
            (i, side), (j, _) = owners
            edges.append(Edge(i, j, _lattice_length(side)))
        elif len(owners) == 1:
            (i, side), = owners
            direction, w = primitive_decompose(side.rot_cw())
            rays.append(Ray(i, direction, w))
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
