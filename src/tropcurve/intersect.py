"""Stable intersection of tropical curves.

Two routes are implemented and cross-checked by the test suite:

* the multiplicity formula at each common point, via dual-cell areas of the
  overlay star, used whenever the set intersection is finite;
* a perturbation oracle that translates the second curve by an infinitesimal
  generic amount, intersects transversally with exact first-order arithmetic
  in the infinitesimal, and takes the limit.  Shared-segment configurations
  route here automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geom import GeometryError, IntVector, Point, cross, pt
from .curve import OVERLAP, Item, TropicalCurve, items, meetings, star_at
from .newton import LatticePolygon, minkowski_sum, star_multiplicity


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

    def multiplicity(self, p: Point) -> int:
        for q, m in self.entries:
            if q == p:
                return m
        return 0

    def points(self) -> tuple[Point, ...]:
        return tuple(p for p, _ in self.entries)

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
    c = cross(d1 * w1, d2 * w2)
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
# First-order arithmetic in an infinitesimal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Eps:
    """Value a + b*eps for an infinitesimal eps > 0, compared lexicographically."""

    const: Fraction
    slope: Fraction = Fraction(0)

    def __add__(self, other: "_Eps") -> "_Eps":
        return _Eps(self.const + other.const, self.slope + other.slope)

    def __sub__(self, other: "_Eps") -> "_Eps":
        return _Eps(self.const - other.const, self.slope - other.slope)

    def scaled(self, k: Fraction) -> "_Eps":
        return _Eps(self.const * k, self.slope * k)

    def key(self) -> tuple[Fraction, Fraction]:
        return (self.const, self.slope)

    def __lt__(self, other: "_Eps") -> bool:
        return self.key() < other.key()

    def __le__(self, other: "_Eps") -> bool:
        return self.key() <= other.key()


def _violations(c1: TropicalCurve, c2: TropicalCurve, t: Point):
    """Why direction t fails to separate the curves, or None.

    Rejects directions under which a parallel pair stays collinear, or which
    keep a vertex of one curve pinned on an item's line of the other.
    """
    its1, its2 = items(c1), items(c2)
    for a in its1:
        for b in its2:
            if cross(a.vec, b.vec) == 0:
                if (
                    cross(a.vec, b.origin - a.origin) == 0
                    and cross(a.vec, t) == 0
                ):
                    return (
                        f"{a.kind} {a.index} of the first curve stays collinear "
                        f"with {b.kind} {b.index} of the second"
                    )
    for v in c1.vertices:
        for b in its2:
            if cross(b.vec, t) == 0 and cross(b.vec, v - b.origin) == 0:
                return (
                    f"vertex ({v.x}, {v.y}) of the first curve rides the line "
                    f"of {b.kind} {b.index} of the second"
                )
    for v in c2.vertices:
        for a in its1:
            if cross(a.vec, t) == 0 and cross(a.vec, v - a.origin) == 0:
                return (
                    f"vertex ({v.x}, {v.y}) of the second curve rides the line "
                    f"of {a.kind} {a.index} of the first"
                )
    return None


def generic_direction(c1: TropicalCurve, c2: TropicalCurve) -> Point:
    """Deterministic direction passing the genericity test."""
    for k in range(1, 2000):
        t = pt(1, k)
        if _violations(c1, c2, t) is None:
            return t
    raise GeometryError("no generic direction found")


def perturbation_oracle(
    c1: TropicalCurve, c2: TropicalCurve, direction: Point
) -> Divisor:
    """Limit of the transversal intersection under infinitesimal translation.

    The second curve is translated by eps*direction; every crossing is
    computed with exact first-order arithmetic in eps and mapped to its
    eps -> 0 limit.
    """
    if not direction:
        raise NonGenericDirection("zero direction")
    why = _violations(c1, c2, direction)
    if why is not None:
        raise NonGenericDirection(why)
    zero = _Eps(Fraction(0))
    one = _Eps(Fraction(1))
    acc: dict[Point, int] = {}
    its2 = items(c2)
    for a in items(c1):
        for b in its2:
            den = cross(a.vec, b.vec)
            if den == 0:
                continue  # parallel pairs separate immediately
            s = _Eps(
                Fraction(cross(b.origin - a.origin, b.vec)),
                Fraction(cross(direction, b.vec)),
            ).scaled(Fraction(1, den))
            r = _Eps(
                Fraction(cross(a.origin - b.origin, a.vec)),
                Fraction(-cross(direction, a.vec)),
            ).scaled(Fraction(1, -den))
            if not (zero <= s and (not a.bounded or s <= one)):
                continue
            if not (zero <= r and (not b.bounded or r <= one)):
                continue
            limit = a.origin + a.vec * s.const
            mu = abs(cross(a.prim * a.weight, b.prim * b.weight))
            acc[limit] = acc.get(limit, 0) + mu
    return Divisor.of(acc, c1)


def has_shared_segment(c1: TropicalCurve, c2: TropicalCurve) -> bool:
    return any(p is OVERLAP for _, _, p in meetings(items(c1), items(c2)))


def is_transversal(c1: TropicalCurve, c2: TropicalCurve) -> bool:
    """True when every common point is a plain interior-interior crossing."""
    return all(
        p is not OVERLAP and p not in a.ends and p not in b.ends
        for a, b, p in meetings(items(c1), items(c2))
    )


def stable_intersection(c1: TropicalCurve, c2: TropicalCurve) -> Divisor:
    """The stable intersection divisor, supported on the first curve.

    Finite set intersections use the dual-cell multiplicity formula; shared
    segments route through the perturbation oracle with an automatically
    chosen generic direction.
    """
    # Each common point with the items of each curve through it, in item
    # order: with no overlap, every item of one curve through the point
    # meets every item of the other there, so all of them are recorded.
    met: dict[Point, tuple[list[Item], list[Item]]] = {}
    for a, b, p in meetings(items(c1), items(c2)):
        if p is OVERLAP:
            return perturbation_oracle(c1, c2, generic_direction(c1, c2))
        for it, through in zip((a, b), met.setdefault(p, ([], []))):
            if it not in through:
                through.append(it)
    acc: dict[Point, int] = {}
    for p, (its1, its2) in met.items():
        s1, s2 = star_at(p, its1), star_at(p, its2)
        m = star_multiplicity(s1 + s2) - star_multiplicity(s1) - star_multiplicity(s2)
        if m % 2 != 0:
            raise GeometryError("odd multiplicity defect; inputs inconsistent")
        mu = m // 2
        if mu < 0:
            raise GeometryError("negative intersection multiplicity")
        if mu:
            acc[p] = mu
    return Divisor.of(acc, c1)
