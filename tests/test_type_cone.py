"""Every point of a valid curve's type is a valid curve.

`perturb` validates one curve per skeleton and none of its candidates: a
balanced embedded curve is a corner locus, and every length vector with all
lengths positive that closes every cycle lifts into the same secondary cone
(see `params.perturb`).  These tests draw such vectors far beyond the walk's
steps and check each with `validate`.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures_lib import (
    concave_lift,
    figure_eight,
    sparse_lift,
    tail_cycle_curve,
    theta_curve,
    tied_lift,
    triangle_cycle_host,
    tropical_line,
    two_triangles_bridged,
    unit_triangle_cycle,
    weight_two_edge_curve,
)
from tropcurve.curve import items, translate, union, validate
from tropcurve.geom import pt
from tropcurve.params import ParamPoint, curve_from_params, params_from_curve, project_to_closure
from tropcurve.polyfront import corner_locus, polynomial


def _loci():
    """Seeded concave, sparse and tied corner loci of degrees 2 to 5."""
    out = []
    for lift in (concave_lift, sparse_lift, tied_lift):
        for d in range(2, 6):
            for seed in range(2):
                out.append(corner_locus(polynomial(lift(random.Random(100 * d + seed), d))))
    return out


def _valence(c, v):
    return sum(v in (it.tail, it.head) for it in items(c))


def _crossings():
    """Unions whose items cross off every vertex: each crossing becomes a
    4-valent vertex of the union."""
    rng = random.Random(8)
    line = tropical_line()
    conic = corner_locus(polynomial(concave_lift(rng, 2)))
    cubic = corner_locus(polynomial(concave_lift(rng, 3)))
    return [
        union(line, translate(line, pt("1/3", "-1/2"))),
        union(conic, translate(line, pt("1/5", "2/7"))),
        union(cubic, translate(conic, pt("-1/3", "1/7"))),
    ]


CROSSINGS = _crossings()
FIXTURES = [
    tropical_line(),
    unit_triangle_cycle(),
    triangle_cycle_host(),
    figure_eight(),
    two_triangles_bridged(),
    theta_curve(),
    tail_cycle_curve(),
    weight_two_edge_curve(),
]
STARTS = [
    params_from_curve(c, random.Random(k).randrange(len(c.vertices)))
    for k, c in enumerate(_loci() + FIXTURES + CROSSINGS)
]


def test_the_types_cover_the_claim():
    for p in STARTS:
        assert validate(curve_from_params(p)).passed
    # genus 2, a bridge, weight-2 edges, and 4-valent crossings
    assert any(it.weight == 2 for p in STARTS for it in items(curve_from_params(p)))
    for c in CROSSINGS:
        assert any(_valence(c, v) == 4 for v in range(len(c.vertices)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(STARTS), st.data())
def test_every_positive_point_of_a_valid_type_is_valid(p, data):
    n = len(p.lengths)
    raw = data.draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n))
    ax, ay = data.draw(st.integers(-60, 60)), data.draw(st.integers(-60, 60))
    step = project_to_closure(p.skeleton, [Fraction(x) for x in raw])
    # the walk's step: the least 2^-k that keeps every length at least half
    walk = Fraction(1)
    while any(ll + walk * d < ll / 2 for ll, d in zip(p.lengths, step)):
        walk /= 2
    # factors up to 1000, down to 2^-10, of the walk's step, after its own
    factors = data.draw(st.lists(
        st.builds(Fraction, st.integers(1, 1000), st.sampled_from([2 ** j for j in range(11)])),
        max_size=6,
    ))
    steps = [walk * f for f in [Fraction(1), *factors]]
    # and a step 2^-b short of the cone's boundary, where a length nears 0
    shrink = [ll / -d for ll, d in zip(p.lengths, step) if d < 0]
    if shrink:
        steps.append(min(shrink) * (1 - Fraction(1, 2 ** data.draw(st.integers(1, 40)))))
    kept = 0
    for t in steps:
        lengths = tuple(ll + t * d for ll, d in zip(p.lengths, step))
        if min(lengths, default=1) <= 0:
            continue
        q = ParamPoint(p.skeleton, lengths, p.anchor_pos + pt(ax, ay) * t)
        assert validate(curve_from_params(q)).passed
        kept += 1
    assert kept >= 1
