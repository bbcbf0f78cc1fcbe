"""Stable intersection of tropical curves.

One scan of the item pairs of two curves gives their intersection record
(`_record`): each meeting point and each end of a part that two items
share, with the items of each curve through it, where the point sits on
each, and its vertex mark: the vertex of either curve it is, if any.
`stable_intersection`, `is_transversal` and `jacobian.sigma` read it; only
the last pair scanned is kept, by the identity of the two curves.  The
record admits its pair: each curve passes `curve.require_valid`, one dict
lookup for a curve that carries the verdict, before the scan.  The
perturbation oracle, `generic_direction` and `has_shared_segment` are the
tests' and the benchmark's cross-checks and admit nothing.

The scan (`curve._scan`) and the oracle's crossing test run on one sweep
(`curve._sweep`), which tests just the item pairs whose integer bounding
boxes overlap, each as it finds it.  It reads each curve's integer index
(`TropicalCurve._index`, built once per curve, holding the curve's own
items), so a curve that serves many pairs, such as a walk's host, is
indexed once; a side whose scale is below the pair's is raised once per
factor and kept (`curve._raised_by`), so a host that meets mobile curves
of a few scales is not raised again on every step.  Every reader here takes an
item's coordinates and scale from the item itself.  The record keys each
point on integers, an item's end by its vertex's key (`TropicalCurve._keys`,
built at the first meeting on one of the curve's vertices), and compares
no Point.  The vertex mark is the one classifier: a pair is transversal
when no point has one, and the divisor's entries, each (key, multiplicity,
where it sits), are computed from the record on each call (`_entries`),
on integers, with |det| at each unmarked point.  `jacobian.sigma` reads
them as they are; `stable_intersection` puts them in order on one common
denominator, taking a curve's own vertex Point at a vertex and building a
Point for any other entry.

Each marked point gets its local multiplicity from the fan displacement
rule (Fulton-Sturmfels; Jensen-Yu), an integer count on the two stars,
which close since both curves are admitted.  The perturbation oracle
translates the second curve by an infinitesimal generic amount and takes
the limit of the transversal intersection: it is the independent route
that the test suite checks the record route against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable

from .geom import GeometryError, IntVector, Point, _over_lcd, cross, pt
from .curve import (
    Item,
    Shared,
    TropicalCurve,
    _point_on,
    _raised_by,
    _scan,
    _star,
    _sweep,
    require_valid,
    items,  # noqa: F401  perfbench's tracer and its tests patch this binding
)
from .newton import LatticePolygon, minkowski_sum


class NonGenericDirection(GeometryError):
    """The requested perturbation direction leaves a non-transversal contact."""


@dataclass(frozen=True)
class Divisor:
    """Finite formal sum of curve points with integer multiplicities."""

    entries: tuple[tuple[Point, int], ...]
    host: TropicalCurve | None = None

    @staticmethod
    def of(mapping: dict[Point, int], host: TropicalCurve | None = None) -> "Divisor":
        ent = tuple(
            (p, m)
            for p, m in sorted(mapping.items(), key=lambda e: (e[0].x, e[0].y))
            if m != 0
        )
        return Divisor(ent, host)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.entries)

    def _merge_host(self, other: "Divisor") -> TropicalCurve | None:
        if self.host is not None and other.host is not None:
            if self.host != other.host:
                raise GeometryError("divisors live on different curves")
        return self.host if self.host is not None else other.host

    def __add__(self, other: "Divisor") -> "Divisor":
        host = self._merge_host(other)
        out = dict(self.entries)
        for p, m in other.entries:
            out[p] = out.get(p, 0) + m
        return Divisor.of(out, host)

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __neg__(self) -> "Divisor":
        return Divisor(tuple((p, -m) for p, m in self.entries), self.host)


def transversal_multiplicity(
    d1: IntVector, w1: int, d2: IntVector, w2: int
) -> int:
    """|cross| of the weighted primitive vectors of two crossing edges."""
    c = (d1.x * d2.y - d1.y * d2.x) * w1 * w2
    if c == 0:
        raise GeometryError("parallel edges have no transversal multiplicity")
    return abs(c)


def bezout_degree(p: LatticePolygon, q: LatticePolygon) -> int:
    """Mixed area of two Newton polygons: the stable intersection degree."""
    a2 = minkowski_sum(p, q).area2() - p.area2() - q.area2()
    if a2 % 2 != 0:
        raise GeometryError("mixed area is not an integer")
    return a2 // 2


# ---------------------------------------------------------------------------
# Perturbation on the integer grid
# ---------------------------------------------------------------------------


def _line(it: Item) -> tuple[int, int, int]:
    """The line of the item as (dx, dy, dy*x - dx*y at any of its grid
    points), (dx, dy) its primitive direction with the first nonzero entry
    positive: two items of one scale lie on one line exactly when their
    keys are equal."""
    dx, dy = it.prim.x, it.prim.y
    if dx < 0 or (dx == 0 and dy < 0):
        dx, dy = -dx, -dy
    return dx, dy, dy * it.lattice[0] - dx * it.lattice[1]


def _pins(c1: TropicalCurve, c2: TropicalCurve, keep: Callable[[Item], bool]):
    """Each kept item that a perturbation direction may not run along, as
    (item, pin, whether the item is on c1), in the order _violations
    reports; the items are on the two curves' common grid (`_raised_by`).

    An item of c1 is pinned by the first parallel item of c2 on its line;
    then, vertex by vertex and c1's first, a vertex (its Point) pins each
    kept item of the other curve whose line holds it.  Both are lookups of
    line keys.
    """
    scale = lcm(c1._scale, c2._scale)
    f1, f2 = scale // c1._scale, scale // c2._scale
    its1, its2 = _raised_by(c1._index, f1)[0], _raised_by(c2._index, f2)[0]
    kept1 = [a for a in its1 if keep(a)]
    kept2 = [b for b in its2 if keep(b)]
    first_on: dict[tuple[int, int, int], Item] = {}
    for b in its2:
        first_on.setdefault(_line(b), b)
    for a in kept1:
        b = first_on.get(_line(a))
        if b is not None:
            yield a, b, True
    for c, f, kept, first in ((c1, f1, kept2, False), (c2, f2, kept1, True)):
        # direction -> line constant -> the kept items on that line, by position
        lines: dict[tuple[int, int], dict[int, list]] = {}
        for i, b in enumerate(kept):
            dx, dy, k = _line(b)
            lines.setdefault((dx, dy), {}).setdefault(k, []).append((i, b))
        for q, (x, y) in zip(c.vertices, c._grid):
            x, y = x * f, y * f
            hits = [
                hit
                for (dx, dy), on in lines.items()
                for hit in on.get(dy * x - dx * y, ())
            ]
            hits.sort(key=lambda hit: hit[0])
            for _, b in hits:
                yield b, q, first


def _violations(c1: TropicalCurve, c2: TropicalCurve, t: Point):
    """Why direction t fails to separate the curves, or None: the first pin
    of the items parallel to t, a collinear parallel pair or a vertex of one
    curve riding an item's line of the other."""
    _, (tx, ty) = _over_lcd((t.x, t.y))  # a positive integer multiple of t
    for it, pin, first in _pins(c1, c2, lambda it: it.prim.x * ty == tx * it.prim.y):
        if isinstance(pin, Item):
            return (
                f"{it.kind} {it.index} of the first curve stays collinear "
                f"with {pin.kind} {pin.index} of the second"
            )
        mine, other = ("second", "first") if first else ("first", "second")
        return (
            f"vertex ({pin.x}, {pin.y}) of the {mine} curve rides the "
            f"line of {it.kind} {it.index} of the {other}"
        )
    return None


def generic_direction(c1: TropicalCurve, c2: TropicalCurve) -> Point:
    """Deterministic direction passing the genericity test: the first
    (1, k), 1 <= k < 2000, that no item pins down.  One pass of _pins over
    the items along some (1, k) collects the forbidden slopes."""

    def along(it: Item) -> bool:
        # prim is primitive: its slope is an integer exactly when x is +-1
        return it.prim.x in (1, -1) and 1 <= it.prim.x * it.prim.y < 2000

    forbidden = {it.prim.x * it.prim.y for it, _, _ in _pins(c1, c2, along)}
    for k in range(1, 2000):
        if k not in forbidden:
            return pt(1, k)
    raise GeometryError("no generic direction found")


def perturbation_oracle(
    c1: TropicalCurve, c2: TropicalCurve, direction: Point
) -> Divisor:
    """Limit of the transversal intersection under infinitesimal translation.

    The second curve is translated by eps*direction.  On the common integer
    grid, each crossing parameter is (p0 + p1*eps)/den with den > 0, so the
    range tests compare the pair (p0, p1) lexicographically; the crossing is
    mapped to its eps -> 0 limit.
    """
    if not direction:
        raise NonGenericDirection("zero direction")
    why = _violations(c1, c2, direction)
    if why is not None:
        raise NonGenericDirection(why)
    _, (tx, ty) = _over_lcd((direction.x, direction.y))

    def crossing(a: Item, b: Item):
        # the limit lies on both closed items, so only box-overlapping pairs cross
        aox, aoy, avx, avy = a.lattice
        box, boy, bvx, bvy = b.lattice
        den = avx * bvy - bvx * avy
        if den == 0:
            return None  # parallel pairs separate immediately
        dx, dy = box - aox, boy - aoy
        s0, s1 = dx * bvy - bvx * dy, tx * bvy - bvx * ty
        r0, r1 = dx * avy - avx * dy, tx * avy - avx * ty
        if den < 0:
            den, s0, s1, r0, r1 = -den, -s0, -s1, -r0, -r1
        if (s0, s1) < (0, 0) or (a.head is not None and (s0, s1) > (den, 0)):
            return None
        if (r0, r1) < (0, 0) or (b.head is not None and (r0, r1) > (den, 0)):
            return None
        return _point_on(a, s0, den), abs(cross(a.prim * a.weight, b.prim * b.weight))

    acc: dict[Point, int] = {}
    for _, _, (limit, mu) in _sweep(c1._index, c2._index, crossing):
        acc[limit] = acc.get(limit, 0) + mu
    return Divisor.of(acc, c1)


class _At:
    """The items of each curve through one recorded point, each as (item,
    end): end 0 where the point is the item's tail, 1 its head, None inside.
    `vertex` is (0 for the first curve or 1 for the second, vertex index)
    where the point is a curve's vertex, else None."""

    __slots__ = ("its1", "its2", "vertex")

    def __init__(self, vertex: tuple[int, int] | None):
        self.its1: list[tuple[Item, int | None]] = []
        self.its2: list[tuple[Item, int | None]] = []
        self.vertex = vertex


# The last pair scanned and its record, replaced as one tuple.  The strong
# references keep both curves alive, so no other curve can take their ids
# while the entry lives; curves are frozen, so the same objects have the
# same record.
_last: tuple = (None, None, None)


def _record(c1: TropicalCurve, c2: TropicalCurve) -> dict[tuple[int, int, int], _At]:
    """The intersection record of the pair, each point by its reduced grid
    key (X, Y, D), gcd 1, the point (X/D, Y/D): one pair scan of the two
    curves' indexes after each curve of a new pair passes require_valid,
    reused while the same pair is asked for again.

    Items of an admitted curve meet only at its vertices, where they all
    end, so a point's first meeting gives its vertex mark, and a marked
    point records each curve's whole vertex star, or the one item it lies
    inside.  An item's end is keyed by its vertex's key
    (`TropicalCurve._keys`), any other point by its grid coordinates over
    their gcd.  No Point is built or compared here."""
    global _last
    last1, last2, points = _last
    if c1 is last1 and c2 is last2:
        return points
    require_valid(c1)
    require_valid(c2)
    points = {}
    for a, b, m in _scan(c1._index, c2._index):
        for s, t, den in m.ends if type(m) is Shared else (m,):
            ea = 0 if s == 0 else 1 if s == den and a.head is not None else None
            eb = 0 if t == 0 else 1 if t == den and b.head is not None else None
            if ea is not None:
                vertex = (0, a.tail if ea == 0 else a.head)
                key = c1._keys[vertex[1]]
            elif eb is not None:
                vertex = (1, b.tail if eb == 0 else b.head)
                key = c2._keys[vertex[1]]
            else:
                ox, oy, vx, vy = a.lattice
                X, Y, D = ox * den + vx * s, oy * den + vy * s, a.scale * den
                g = gcd(X, Y, D)
                key, vertex = (X // g, Y // g, D // g), None
            at = points.get(key)
            if at is None:
                at = points[key] = _At(vertex)
            # pairs come x-major: a met this point before only if it came last
            if not at.its1 or at.its1[-1][0] is not a:
                at.its1.append((a, ea))
            for it, _ in at.its2:
                if it is b:
                    break
            else:
                at.its2.append((b, eb))
    _last = (c1, c2, points)
    return points


def has_shared_segment(c1: TropicalCurve, c2: TropicalCurve) -> bool:
    # Not _record: perfbench's traced route check must not fill the record.
    return any(type(m) is Shared for _, _, m in _scan(c1._index, c2._index))


def is_transversal(c1: TropicalCurve, c2: TropicalCurve) -> bool:
    """True when every common point is a plain interior-interior crossing:
    no recorded point is a vertex of either curve."""
    return all(at.vertex is None for at in _record(c1, c2).values())


def _local_multiplicity(s1: list[tuple[int, int]], s2: list[tuple[int, int]]) -> int:
    """The multiplicity at a point with the closed stars s1 and s2 of (x, y)
    pairs: |cross(u, v)| summed over the pairs whose rays cross once s2 moves
    along d = (1, k), k above every |y| so that d is parallel to none, that
    is, when cross(d, v) and cross(d, u) have the sign of cross(u, v)."""
    k = 1 + max(abs(y) for _, y in s1 + s2)
    side2 = [(vx, vy, vy - k * vx > 0) for vx, vy in s2]
    mu = 0
    for ux, uy in s1:
        du = uy - k * ux > 0
        for vx, vy, dv in side2:
            c = ux * vy - uy * vx
            if c and (c > 0) == du == dv:
                mu += abs(c)
    return mu


def _entries(c1: TropicalCurve, c2: TropicalCurve) -> list[tuple[tuple[int, int, int], int, _At]]:
    """The stable intersection's entries, each (key, multiplicity, _At) with
    a nonzero multiplicity, in the record's order, computed on integers from
    the record, |det| at an unmarked point and the local count on the two
    stars at a vertex: no Point is built and none sorted."""
    found = []
    for key, at in _record(c1, c2).items():
        if at.vertex is None:
            # one item of each curve, crossing inside both: |det|
            (a, _), (b, _) = at.its1[0], at.its2[0]
            mu = transversal_multiplicity(a.prim, a.weight, b.prim, b.weight)
        else:
            mu = _local_multiplicity(_star(at.its1), _star(at.its2))
            if not mu:
                continue
        found.append((key, mu, at))
    return found


def stable_intersection(c1: TropicalCurve, c2: TropicalCurve) -> Divisor:
    """The stable intersection divisor, supported on the first curve.

    Each point of the record gets |det| of the weighted primitive vectors
    where one item of each curve crosses the other in their interiors, and
    elsewhere (vertices, ends of shared segments) the local count on the
    stars of the recorded items.  Inside a shared segment nothing is added.
    The entries are put in point order on one common denominator; a vertex
    is the curve's own vertex Point.
    """
    found = _entries(c1, c2)
    L = lcm(*(D for (_, _, D), _, _ in found))
    found.sort(key=lambda e: (e[0][0] * (L // e[0][2]), e[0][1] * (L // e[0][2])))
    curves = (c1, c2)
    return Divisor(tuple(
        (
            Point(Fraction(X, D), Fraction(Y, D)) if at.vertex is None
            else curves[at.vertex[0]].vertices[at.vertex[1]],
            mu,
        )
        for (X, Y, D), mu, at in found
    ), c1)
