"""The three workloads: inputs built from the seed, ops, and output checks.

Each workload has `setup(tc, seed)`, which builds every input before the
first timed op, and `round(tc, inputs, k, rec)`, which runs round k through
the recorder.  Rounds are deterministic in (seed, k).  Library functions are
looked up on their module at call time (`tc.params.perturb`), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import inputs as gen
from .recorder import Recorder


def _rng(*key) -> random.Random:
    # string seeds are hashed with SHA-512, so they are stable across runs
    return random.Random(":".join(str(k) for k in key))


# ---------------------------------------------------------------------------
# walk: the in-process `tropcurve walk`
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WalkInputs:
    host: object
    system: object
    mobiles: tuple  # ParamPoint per walk start, cycled over rounds
    seed: int

    def fingerprint(self):
        return (self.host, self.mobiles)


class Walk:
    """A round is one walk of STEPS ops from a mobile start; an op is
    perturb + curve_from_params + sigma + is_transversal (one line of
    `tropcurve walk`)."""

    name = "walk"
    STEPS = 50
    MOBILES = 8
    PREFIX_ROUNDS = 1

    @staticmethod
    def setup(tc, seed: int) -> WalkInputs:
        rng = _rng("walk", seed)
        host = tc.polyfront.corner_locus(
            tc.polyfront.polynomial(gen.concave_lift(rng, 3)))
        system = tc.jacobian.cycle_system(host)
        mobiles = tuple(
            tc.params.params_from_curve(tc.polyfront.corner_locus(
                tc.polyfront.polynomial(gen.concave_lift(rng, 3))))
            for _ in range(Walk.MOBILES)
        )
        return WalkInputs(host, system, mobiles, seed)

    @staticmethod
    def round(tc, w: WalkInputs, k: int, rec: Recorder) -> None:
        rng = _rng("walk", w.seed, "steps", k)
        p = w.mobiles[k % len(w.mobiles)]
        sigma0 = tc.jacobian.sigma(w.system, tc.params.curve_from_params(p))

        def step():
            q = tc.params.perturb(p, rng)
            c = tc.params.curve_from_params(q)
            coord = tc.jacobian.sigma(w.system, c)
            transversal = tc.intersect.is_transversal(w.system.curve, c)
            return q, c, coord, transversal

        def check(out):
            _, c, coord, _ = out
            return coord == sigma0 and tc.curve.validate(c).passed

        for _ in range(Walk.STEPS):
            out = rec.op(step, check)
            if out is not None:
                p = out[0]


# ---------------------------------------------------------------------------
# corner: the in-process `tropcurve from-poly` then `tropcurve newton`
# ---------------------------------------------------------------------------

# One block of the corner stream: (degree, lift kind, count).  Each block
# holds this mix in a seeded order.  Sorted by cost a block has 8 cheap ops
# (degree <= 4, sparse degree 5), 8 middle ones (degree 5, sparse degree 6),
# 3 generic degree-6 ops and one of degree 7, so on every seed the median
# sits inside the middle group and the 90th percentile inside the degree-6
# group, away from the jumps between groups.
CORNER_BLOCK = (
    (3, "generic", 1), (3, "sparse", 1), (3, "tied", 1),
    (4, "generic", 2), (4, "sparse", 1), (4, "tied", 1),
    (5, "generic", 4), (5, "sparse", 1), (5, "tied", 2),
    (6, "generic", 3), (6, "sparse", 2),
    (7, "generic", 1),
)
CORNER_OPS = tuple((d, kind) for d, kind, n in CORNER_BLOCK for _ in range(n))


@dataclass(frozen=True)
class CornerInputs:
    texts: tuple[str, ...]
    hulls: tuple  # expected Newton polygon: normalised hull of the support

    def fingerprint(self):
        return self.texts


class Corner:
    """A round is one op: parse + corner_locus + curve_to_json +
    newton_complex + newton_polygon."""

    name = "corner"
    BLOCKS = 40
    PREFIX_ROUNDS = len(CORNER_OPS)

    @staticmethod
    def setup(tc, seed: int) -> CornerInputs:
        rng = _rng("corner", seed)
        texts, hulls = [], []
        for _ in range(Corner.BLOCKS):
            block = list(CORNER_OPS)
            rng.shuffle(block)
            for d, kind in block:
                coeffs = gen.LIFTS[kind](rng, d)
                texts.append(gen.poly_text(coeffs))
                hulls.append(tc.newton.convex_hull(
                    [tc.geom.IntVector(i, j) for i, j in coeffs]).normalized())
        return CornerInputs(tuple(texts), tuple(hulls))

    @staticmethod
    def round(tc, w: CornerInputs, k: int, rec: Recorder) -> None:
        text = w.texts[k % len(w.texts)]
        hull = w.hulls[k % len(w.hulls)]

        def op():
            c = tc.polyfront.corner_locus(tc.polyfront.parse(text))
            doc = tc.jsonio.curve_to_json(c)
            tc.newton.newton_complex(c)
            return c, doc, tc.newton.newton_polygon(c)

        def check(out):
            c, doc, polygon = out
            return (
                polygon == hull
                and tc.curve.validate(c).passed
                and tc.jsonio.curve_from_json(doc) == c
            )

        rec.op(op, check)


# ---------------------------------------------------------------------------
# intersect: the in-process `tropcurve intersect` over all ordered pairs
# ---------------------------------------------------------------------------

INTERSECT_DEGREES = (2, 3, 3, 4, 4, 4, 5, 5)
# pool curves that also enter translated along one of their own edges
INTERSECT_SLID = (1, 3, 6)
# one dual-cell pair in this many is cross-checked against the oracle
ORACLE_SHARE = 8


@dataclass(frozen=True)
class IntersectInputs:
    pool: tuple
    degrees: dict  # (a, b) -> Bezout degree of the two Newton polygons
    crosscheck: frozenset  # pairs also checked against the oracle
    seed: int

    def fingerprint(self):
        return (self.pool, tuple(sorted(self.crosscheck)))


class Intersect:
    """A round is one op: one `stable_intersection` of an ordered pool pair.
    Rounds sweep every ordered pair, self-pairs included, in a seeded order
    that is reshuffled on each pass."""

    name = "intersect"
    PREFIX_ROUNDS = 60

    @staticmethod
    def setup(tc, seed: int) -> IntersectInputs:
        rng = _rng("intersect", seed)
        pool = [
            tc.polyfront.corner_locus(
                tc.polyfront.polynomial(gen.concave_lift(rng, d)))
            for d in INTERSECT_DEGREES
        ]
        for i in INTERSECT_SLID:
            c = pool[i]
            e = c.edges[rng.randrange(len(c.edges))]
            shift = (c.vertices[e.b] - c.vertices[e.a]) * Fraction(rng.randint(1, 3), 4)
            pool.append(tc.curve.translate(c, shift))
        polygons = [tc.newton.newton_polygon(c) for c in pool]
        pairs = [(a, b) for a in range(len(pool)) for b in range(len(pool))]
        degrees = {
            (a, b): tc.intersect.bezout_degree(polygons[a], polygons[b])
            for a, b in pairs
        }
        crosscheck = frozenset(rng.sample(pairs, len(pairs) // ORACLE_SHARE))
        return IntersectInputs(tuple(pool), degrees, crosscheck, seed)

    @staticmethod
    def pair(w: IntersectInputs, k: int) -> tuple[int, int]:
        pairs = sorted(w.degrees)
        _rng("intersect", w.seed, "pass", k // len(pairs)).shuffle(pairs)
        return pairs[k % len(pairs)]

    @staticmethod
    def round(tc, w: IntersectInputs, k: int, rec: Recorder) -> None:
        a, b = Intersect.pair(w, k)
        c1, c2 = w.pool[a], w.pool[b]

        def check(d):
            if d.degree != w.degrees[(a, b)]:
                return False
            if (a, b) not in w.crosscheck or tc.intersect.has_shared_segment(c1, c2):
                return True
            direction = tc.intersect.generic_direction(c1, c2)
            return d.entries == tc.intersect.perturbation_oracle(c1, c2, direction).entries

        rec.op(lambda: tc.intersect.stable_intersection(c1, c2), check)


WORKLOADS = {w.name: w for w in (Walk, Corner, Intersect)}
