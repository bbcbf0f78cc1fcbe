"""Seeded generators for tropical polynomials (exponent -> coefficient maps).

Every generator takes a `random.Random` and nothing else that varies, so one
seed always yields the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

Coeffs = dict[tuple[int, int], Fraction]

# Concavity of the honeycomb lift -SCALE*(i^2 + i*j + j^2).  Flipping a
# diagonal of the honeycomb triangulation needs the four coefficient jitters
# of a unit parallelogram to move by SCALE, so jitters below 1 in absolute
# value keep the subdivision unimodular and the curve smooth.
SCALE = 6


def _jitter(rng: random.Random) -> Fraction:
    # one denominator for every jitter keeps the rationals of all seeds
    # about the same size
    return Fraction(rng.randint(-15, 15), 16)


def _support(d: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]


def concave_lift(rng: random.Random, d: int) -> Coeffs:
    """Generic honeycomb-like lift: a smooth curve of degree d, shifted by a
    random linear term."""
    a, b = rng.randint(-6, 6), rng.randint(-6, 6)
    return {
        (i, j): -SCALE * (i * i + i * j + j * j) + a * i + b * j + _jitter(rng)
        for i, j in _support(d)
    }


def sparse_lift(rng: random.Random, d: int) -> Coeffs:
    """Concave lift with a third of the non-corner terms dropped, which
    leaves non-unimodular cells and weight > 1 edges."""
    full = concave_lift(rng, d)
    inner = [e for e in sorted(full) if e not in {(0, 0), (d, 0), (0, d)}]
    for e in rng.sample(inner, len(inner) // 3):
        del full[e]
    return full


def tied_lift(rng: random.Random, d: int) -> Coeffs:
    """Lift that depends on i + j only, up to a linear term: the subdivision
    is a stack of strips whose shared sides carry weights 1, ..., d - 1."""
    a, b = rng.randint(-6, 6), rng.randint(-6, 6)
    g = [-SCALE * k * k + _jitter(rng) for k in range(d + 1)]
    return {(i, j): g[i + j] + a * i + b * j for i, j in _support(d)}


LIFTS = {"generic": concave_lift, "sparse": sparse_lift, "tied": tied_lift}


def poly_text(coeffs: Coeffs) -> str:
    """The polynomial in the CLI's expression syntax, e.g. '(-3/7)*x^2*y'."""
    terms = []
    for (i, j), c in sorted(coeffs.items()):
        factors = [f"({c})"]
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if j:
            factors.append("y" if j == 1 else f"y^{j}")
        terms.append("*".join(factors))
    return " + ".join(terms)
