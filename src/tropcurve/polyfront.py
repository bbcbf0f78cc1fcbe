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
run on (x, y) int pairs in one private routine, _cells.  A support on one
line has no facet to wrap: _cells gives the segments of the upper envelope
of its lift (the upper monotone chain shared with newton) as cells of the
same int form, a segment's normal placing its dual vertex on the line
where its two terms tie.  So every support has one route, with two readers:
corner_locus places the dual vertices on one integer denominator and reads
cell sides as int differences, building no per-cell object, and
dual_subdivision builds each cell's Fractions, Point and IntVectors from the
same ints.  A number is one token of the curve files' grammar
(`geom._RATIONAL`), read by the files' routine; an exponent is a plain
non-negative integer.  The parser keeps each coefficient as an int pair
until its term ends, and refuses a number past the interpreter's
int-string limit with a PolyParseError at its longer digit run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .geom import _RATIONAL, GeometryError, IntVector, Point, _over_lcd, _read_ratio
from .curve import Edge, Ray, TropicalCurve
from .newton import LatticePolygon, _chain, _hull_ring


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
    """(kind, text, position) per token; a number, sign and denominator
    included, is one, so '-' and '/' are no tokens of their own."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "-0123456789":  # where a number can start: a match per position costs time
            m = _RATIONAL.match(text, i)
            if m:
                out.append(("number", m.group(), i))
                i = m.end()
                continue
        elif ch in "xy+*^()":
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

    def number(self) -> tuple[int, int]:
        """The next token, a number, as an (n, d) int pair with d > 0."""
        _, text, at = self.take("number")
        n, d = _read_ratio(text, lambda message, k: PolyParseError(message, at + k))
        if d == 0:
            raise PolyParseError("zero denominator", at + text.index("/") + 1)
        return n, d

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
                    _, etext, at = tokens[self.pos]
                    if etext.startswith("-"):
                        raise PolyParseError("negative exponent", at)
                    if "/" in etext:
                        raise PolyParseError("fractional exponent", at)
                    exp = self.number()[0]
                if kind == "x":
                    i += exp
                else:
                    j += exp
            else:
                if kind == "(":
                    self.pos += 1
                    n, d = self.number()
                    self.take(")")
                elif kind == "number":
                    n, d = self.number()
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


def dual_subdivision(f: TropicalPolynomial) -> DualSubdivision:
    """Upper-hull subdivision of the support, with dual curve vertices.

    For the min convention the subdivision is computed on the negated
    coefficients (the lower hull of the original lift).  A full-dimensional
    support is wrapped facet by facet from one hull edge; each cell holds
    every term on its facet's plane, in support order, and the cells are
    ordered by slope.  A support on one line has one cell per segment of
    the upper envelope, left to right, holding the segment's two ends.
    """
    scale, cells = _cells(f)
    vector = {e: IntVector(*e) for e, _ in f.terms}
    out = []
    for (nx, ny, nz), level, on, ring in cells:
        d = nz * scale
        x, y = Fraction(nx, d), Fraction(ny, d)
        out.append(SubdivisionCell(
            (-x, -y),
            Fraction(level, d),
            tuple(vector[t] for t in on),
            LatticePolygon(tuple(vector[t] for t in ring)),
            Point(x, y),
        ))
    return DualSubdivision(tuple(out))


def _cells(f: TropicalPolynomial):
    """The regular subdivision of f's support on ints.  Returns the scale
    of the lift (the LCM of the coefficients' denominators) and each cell
    of the upper hull of the max form's lift scaled to integers as
    ((nx, ny, nz), level, on, ring): the cell's gcd-reduced upward normal,
    its level n . (x, y, h), its terms in support order, and their hull
    ring of (x, y) pairs.  The cell's dual vertex is (nx, ny) / (nz * scale).

    A full-dimensional support gives the facets, in slope order.  A support
    on one line gives the segments of the upper envelope of the lift over
    the line, left to right, each with its two ends as `on` and `ring`: the
    segment (v1, h1)-(v2, h2) has the normal ((h1 - h2) * d, |d|^2) over its
    gcd, d = v2 - v1, so its dual vertex is the foot of the origin on the
    line where the two terms tie.
    """
    if len(f.terms) < 2:
        raise EmptyCurveError("single-term polynomial has no corner locus")
    sign = 1 if f.convention == "max" else -1  # the min form's lift, negated
    scale, hs = _over_lcd(c for _, c in f.terms)
    lifted = [(i, j, sign * h) for ((i, j), _), h in zip(f.terms, hs)]
    ring = _hull_ring(e for e, _ in f.terms)
    if len(ring) < 3:
        # Support order runs along the line from ring[0]: the upper chain of
        # (position along the line, height) is walked right to left.
        (ax, ay), (bx, by) = ring
        ex, ey = bx - ax, by - ay
        chain = _chain([(ex * (i - ax) + ey * (j - ay), h, i, j) for i, j, h in reversed(lifted)])
        chain.reverse()
        cells = []
        for (_, h1, i1, j1), (_, h2, i2, j2) in zip(chain, chain[1:]):
            dx, dy = i2 - i1, j2 - j1
            nx, ny, nz = (h1 - h2) * dx, (h1 - h2) * dy, dx * dx + dy * dy
            k = math.gcd(nx, ny, nz)
            nx, ny, nz = nx // k, ny // k, nz // k
            on = ((i1, j1), (i2, j2))
            cells.append(((nx, ny, nz), nx * i1 + ny * j1 + nz * h1, on, on))
        return scale, cells
    height = {(i, j): h for i, j, h in lifted}

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
    cells: dict[tuple[int, int, int], tuple] = {}
    owned: set[tuple[tuple, tuple]] = set()  # sides of known cells
    pending = [(w, ring[0])]
    while pending:
        side = pending.pop()
        p, q = side
        if (q, p) in owned or side in hull_sides:
            continue  # the cell beyond this side is known, or there is none
        ux, uy = p
        (nx, ny, nz), on = _wrap(lifted, (ux, uy, height[p]), (*q, height[q]))
        k = math.gcd(nx, ny, nz)
        nx, ny, nz = nx // k, ny // k, nz // k
        cell_ring = _hull_ring(on)
        cells[nx, ny, nz] = (nx * ux + ny * uy + nz * height[p], on, cell_ring)
        sides = list(zip(cell_ring, cell_ring[1:] + cell_ring[:1]))
        owned.update(sides)
        pending.extend(sides)
    # the slope of a cell is (-nx, -ny) / (nz * scale): order on one
    # common denominator
    m = math.lcm(*(nz for _, _, nz in cells))
    order = sorted(cells, key=lambda n: (-n[0] * (m // n[2]), -n[1] * (m // n[2])))
    return scale, [(n, *cells[n]) for n in order]


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


def corner_locus(f: TropicalPolynomial) -> TropicalCurve:
    """The non-differentiability set of f as a weighted balanced curve.

    Built on ints from the cells of _cells: dual vertex i is
    (nx, ny) / (nz * scale), placed on the one denominator
    scale * lcm(nz), and each side of a cell's ring bounds one edge (two
    owners) or one ray (one owner, the side rotated by -90 degrees).  A
    segment cell of a support on one line owns both sides of its ring and
    gets both rays, its backward side's first.  The min convention negates
    the vertices and the ray directions."""
    scale, cells = _cells(f)
    sign = 1 if f.convention == "max" else -1
    m = math.lcm(*(nz for (_, _, nz), *_ in cells))
    xs, ys = [], []
    # Each owner of a cell side, with the side as an int difference (x, y)
    # oriented along the owner's ring.
    edge_owner: dict[tuple, list[tuple[int, int, int]]] = {}
    for idx, ((nx, ny, nz), _, _, ring) in enumerate(cells):
        k = sign * (m // nz)
        xs.append(nx * k)
        ys.append(ny * k)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            key = (a, b) if a <= b else (b, a)
            edge_owner.setdefault(key, []).append((idx, b[0] - a[0], b[1] - a[1]))
    edges = []
    rays = []
    for _, owners in sorted(edge_owner.items()):
        if len(owners) > 2:
            raise GeometryError("a subdivision edge borders more than two cells")
        if len(owners) == 2 and owners[0][0] != owners[1][0]:
            (i, dx, dy), (j, _, _) = owners
            edges.append(Edge(i, j, math.gcd(dx, dy)))
            continue
        for i, dx, dy in reversed(owners):
            w = math.gcd(dx, dy)
            # the side rotated by -90 degrees; under min, by +90
            rays.append(Ray(i, IntVector(sign * dy // w, -sign * dx // w), w))
    return TropicalCurve._on_grid(scale * m, xs, ys, tuple(edges), tuple(rays))
