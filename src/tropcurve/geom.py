"""Exact planar primitives: integer vectors, rational points, angular order.

Everything here is exact. Coordinates are `fractions.Fraction`, lattice data
is plain `int`, and angular comparisons are done with sign tests instead of
floating-point trigonometry.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm
from typing import Callable, Iterable, Union

#: Exact rational scalar used for all coordinates.
Rational = Fraction

Scalar = Union[int, Fraction]


class GeometryError(Exception):
    """Base class for all domain errors raised by this package."""


class RefusalError(GeometryError):
    """Well-formed input outside the supported domain, refused by name.

    The CLI exits 1 on these and 2 on every other GeometryError.
    """


def digit_limit() -> int:
    """CPython's limit on the digits of an int converted from or to a
    string, past which int() and str() raise ValueError; 0 for none."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def decimal_digits(x: Scalar) -> int:
    """The decimal digits of x's larger part, counted without str()."""
    n = max(abs(x.numerator), x.denominator)
    k = max(1, n.bit_length() * 1233 >> 12)  # 1233 / 4096 < log10(2): k <= digits
    while n >= 10 ** k:
        k += 1
    return k


#: The one number grammar of polynomials and files, ASCII digits only:
#: int() and Fraction() would also take spaces, underscores and '٣'.
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _read_ratio(s: str, refuse: Callable[[str, int], Exception]) -> tuple[int, int]:
    """The (n, d) ints of a string of _RATIONAL, d = 0 for a zero
    denominator.  Past the int-string limit, raises refuse(message, offset
    in s) for the longer digit run, the numerator's on a tie."""
    num, _, den = s.partition("/")
    try:
        return int(num), int(den) if den else 1
    except ValueError:  # past the interpreter's int-string limit
        lead = 1 if num[0] == "-" else 0
        k, at = (len(den), len(num) + 1) if len(den) > len(num) - lead else (len(num) - lead, lead)
        raise refuse(f"number of {k} digits exceeds the {digit_limit()}-digit limit", at) from None


def _over_lcd(qs: Iterable[Scalar]) -> tuple[int, list[int]]:
    """(d, [q * d for q in qs]): the rationals as integer numerators over
    d, their least common denominator."""
    qs = list(qs)
    d = lcm(*(q.denominator for q in qs))
    return d, [q.numerator * (d // q.denominator) for q in qs]


def show(x: Scalar | Point) -> str:
    """x, or a Point as (x, y), for a message; past the int-string limit, digits."""
    if isinstance(x, Point):
        return f"({show(x.x)}, {show(x.y)})"
    try:
        return str(x)
    except ValueError:
        return f"<{decimal_digits(x)} digits>"


@dataclass(frozen=True)
class IntVector:
    """Integer lattice vector."""

    x: int
    y: int

    def __add__(self, other: "IntVector") -> "IntVector":
        return IntVector(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "IntVector") -> "IntVector":
        return IntVector(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "IntVector":
        return IntVector(-self.x, -self.y)

    def __mul__(self, k: int) -> "IntVector":
        return IntVector(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.x != 0 or self.y != 0

    def rot_ccw(self) -> "IntVector":
        """Rotate by +90 degrees."""
        return IntVector(-self.y, self.x)

    def rot_cw(self) -> "IntVector":
        """Rotate by -90 degrees."""
        return IntVector(self.y, -self.x)

    def to_point(self) -> "Point":
        return Point(Fraction(self.x), Fraction(self.y))


@dataclass(frozen=True)
class Point:
    """Rational point of the plane.  Doubles as a rational displacement."""

    x: Fraction
    y: Fraction

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def __mul__(self, k: Scalar) -> "Point":
        return Point(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.x != 0 or self.y != 0

    def __hash__(self) -> int:
        # Equal rationals have equal normalised numerator and denominator,
        # so hashing those ints agrees with equality and skips the modular
        # inverse that Fraction.__hash__ computes.
        x, y = self.x, self.y
        return hash((x.numerator, x.denominator, y.numerator, y.denominator))


def _fraction(x: Scalar | str) -> Fraction:
    """x as a Fraction: a number as Fraction() takes it, a string by the one
    number grammar (_RATIONAL).  Any other string, or a zero denominator,
    is a GeometryError that names it."""
    if not isinstance(x, str):
        return Fraction(x)
    if _RATIONAL.fullmatch(x):
        n, d = _read_ratio(x, lambda message, _: GeometryError(message))
        if d:
            return Fraction(n, d)
    raise GeometryError(f"invalid rational {x!r}")


def pt(x: Scalar | str, y: Scalar | str) -> Point:
    """Build a Point, coercing ints and 'p/q' strings of the number grammar
    to Fraction."""
    return Point(_fraction(x), _fraction(y))


def vec(x: int, y: int) -> IntVector:
    return IntVector(x, y)


def cross(u, v) -> Scalar:
    """Exterior product u.x*v.y - v.x*u.y.  Works on IntVector and Point."""
    return u.x * v.y - v.x * u.y


def area2(ring) -> Scalar:
    """Twice the signed area of the closed polygon through ring (shoelace):
    positive counterclockwise, 0 below 3 points.  Works on IntVector and Point."""
    return sum(cross(ring[i - 1], ring[i]) for i in range(len(ring)))


def dot(u, v) -> Scalar:
    """Interior product u.x*v.x + u.y*v.y."""
    return u.x * v.x + u.y * v.y


def primitive_decompose(v: IntVector) -> tuple[IntVector, int]:
    """Write v = m*u with u primitive and m >= 1 (the lattice length of v)."""
    if not v:
        raise GeometryError("zero vector has no primitive decomposition")
    m = gcd(abs(v.x), abs(v.y))
    return IntVector(v.x // m, v.y // m), m


def primitive_direction(v: Point) -> tuple[IntVector, Fraction]:
    """Primitive integer direction of a rational vector and its lattice length.

    Returns (u, m) with v = m*u, u primitive, m a positive rational.
    """
    if not v:
        raise GeometryError("zero vector has no direction")
    k, (x, y) = _over_lcd((v.x, v.y))
    u, m = primitive_decompose(IntVector(x, y))
    return u, Fraction(m, k)


def moment(v, p: Point, base: Point) -> Fraction:
    """Moment of the tangent vector (v, p) about the base point.

    Equals cross(p - base, v); invariant under sliding p along v.
    """
    return Fraction(cross(p - base, v))


@total_ordering
@dataclass(frozen=True)
class PseudoAngle:
    """Exact total order key for nonzero vectors, by counterclockwise angle.

    Two vectors compare equal exactly when they are positive multiples of
    each other.  The key is a half-plane index (angles in [0, pi) before
    those in [pi, 2pi)) refined by a cross-product sign test.
    """

    half: int
    direction: IntVector  # primitive representative, for hashing/equality

    def __lt__(self, other: "PseudoAngle") -> bool:
        if self.half != other.half:
            return self.half < other.half
        return cross(self.direction, other.direction) > 0


def pseudo_angle(v: IntVector) -> PseudoAngle:
    if not v:
        raise GeometryError("zero vector has no angle")
    half = 0 if (v.y > 0 or (v.y == 0 and v.x > 0)) else 1
    u, _ = primitive_decompose(v)
    return PseudoAngle(half, u)
