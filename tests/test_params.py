import importlib
import random
import re
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures_lib import (
    concave_lift,
    figure_eight,
    reference_perturb,
    reference_project_to_closure,
    tail_cycle_curve,
    theta_curve,
    triangle_cycle_host,
    tropical_line,
    two_triangles_bridged,
    unit_triangle_cycle,
    wedge_l,
    wedge_m,
    weight_two_edge_curve,
)
from tropcurve.curve import (
    InvalidCurveError,
    StructureError,
    TropicalCurve,
    canonical_form,
    curve,
    items,
    translate,
    validate,
)
from tropcurve.geom import Point, pt
from tropcurve.newton import newton_complex
from tropcurve.polyfront import corner_locus, polynomial
from tropcurve.params import (
    GRID_HALVINGS,
    ClosureError,
    _segment_covered,
    ParamPoint,
    closure_matrix,
    curve_from_params,
    is_degeneration,
    params_from_curve,
    perturb,
    project_to_closure,
    same_component,
)

FIXTURES = [
    tropical_line(),
    unit_triangle_cycle(),
    triangle_cycle_host(),
    figure_eight(),
    two_triangles_bridged(),
    theta_curve(),
    tail_cycle_curve(),
]


@pytest.mark.parametrize("c", FIXTURES)
def test_round_trip(c):
    # the skeleton's spanning tree is rooted at the anchor, so try each one
    for anchor in range(len(c.vertices)):
        back = curve_from_params(params_from_curve(c, anchor))
        assert canonical_form(back) == canonical_form(c)


def test_disconnected_skeleton_refused():
    two_lines = curve(
        [(0, 0), (5, 5)],
        rays=[(0, (0, 1)), (0, (0, -1)), (1, (0, 1)), (1, (0, -1))],
    )
    with pytest.raises(ClosureError, match="disconnected"):
        curve_from_params(params_from_curve(two_lines))


def test_line_has_no_lengths():
    p = params_from_curve(tropical_line())
    assert p.lengths == ()
    assert p.anchor_pos == pt(0, 0)


def test_triangle_lengths():
    p = params_from_curve(unit_triangle_cycle())
    assert sorted(p.lengths) == [1, 1, 1]


def test_scaling_cycle():
    c = unit_triangle_cycle()
    p = params_from_curve(c)
    doubled = ParamPoint(
        p.skeleton, tuple(2 * ll for ll in p.lengths), p.anchor_pos
    )
    big = curve_from_params(doubled)
    assert validate(big).passed
    assert big.vertices[1] - big.vertices[0] == (
        c.vertices[1] - c.vertices[0]
    ) * 2


def test_closure_violation_named():
    # (curve, anchor, edge whose length is doubled, edges of the open cycle);
    # edge 6 of two_triangles_bridged is the bridge, on neither cycle
    cases = [
        (unit_triangle_cycle(), 0, 0, [0, 1, 2]),
        (two_triangles_bridged(), 0, 3, [3, 4, 5]),
        (two_triangles_bridged(), 3, 0, [0, 1, 2]),
        (two_triangles_bridged(), 5, 1, [0, 1, 2]),
        (theta_curve(), 0, 1, [0, 1, 2, 3]),
    ]
    for c, anchor, edge, cycle in cases:
        p = params_from_curve(c, anchor)
        lengths = list(p.lengths)
        lengths[edge] *= 2
        with pytest.raises(ClosureError) as err:
            curve_from_params(ParamPoint(p.skeleton, tuple(lengths), p.anchor_pos))
        assert str(err.value) == f"cycle through edges {cycle} does not close"


def test_nonpositive_length_rejected():
    p = params_from_curve(unit_triangle_cycle())
    lengths = list(p.lengths)
    lengths[1] = Fraction(0)
    with pytest.raises(ClosureError):
        curve_from_params(ParamPoint(p.skeleton, tuple(lengths), p.anchor_pos))


def test_anchor_only_step_translates():
    p = params_from_curve(triangle_cycle_host())
    moved = ParamPoint(p.skeleton, p.lengths, p.anchor_pos + pt(3, -2))
    c2 = curve_from_params(moved)
    assert canonical_form(c2) == canonical_form(
        translate(triangle_cycle_host(), pt(3, -2))
    )


def test_uniform_cycle_scaling_stays_in_cone():
    p = params_from_curve(unit_triangle_cycle())
    for f in (Fraction(1, 3), Fraction(5, 2), Fraction(7)):
        q = ParamPoint(p.skeleton, tuple(f * ll for ll in p.lengths), p.anchor_pos)
        assert validate(curve_from_params(q)).passed


def _independent_rows(rows):
    out = []
    reduced = []
    for row in rows:
        r = list(row)
        for piv in reduced:
            lead = next((j for j, x in enumerate(piv) if x != 0), None)
            if lead is not None and r[lead] != 0:
                f = r[lead] / piv[lead]
                r = [a - f * b for a, b in zip(r, piv)]
        if any(x != 0 for x in r):
            reduced.append(r)
            out.append(list(row))
    return out


def _solve(matrix, rhs):
    n = len(matrix)
    aug = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        f = aug[col][col]
        aug[col] = [x / f for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                g = aug[r][col]
                aug[r] = [a - g * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _gram_projection(skel, direction):
    """Reference: solve the Gram system of independent closure rows."""
    rows = _independent_rows(closure_matrix(skel))
    if not rows:
        return list(direction)
    m = len(rows)
    gram = [
        [sum(a * b for a, b in zip(rows[i], rows[j])) for j in range(m)]
        for i in range(m)
    ]
    rhs = [sum(a * b for a, b in zip(row, direction)) for row in rows]
    y = _solve(gram, rhs)
    out = list(direction)
    for i in range(m):
        for k in range(len(direction)):
            out[k] -= y[i] * rows[i][k]
    return out


@pytest.mark.parametrize("c", FIXTURES)
def test_projection_matches_gram_solve(c):
    rng = random.Random(11)
    for anchor in range(len(c.vertices)):
        skel = params_from_curve(c, anchor).skeleton
        rows = closure_matrix(skel)
        for _ in range(5):
            d = [
                Fraction(rng.randint(-60, 60), rng.randint(1, 12))
                for _ in skel.edges
            ]
            out = project_to_closure(skel, d)
            assert out == _gram_projection(skel, d)
            assert out == reference_project_to_closure(skel, d)
            for row in rows:
                assert sum(a * b for a, b in zip(row, out)) == 0


def test_perturb_zero_seedless_determinism():
    p = params_from_curve(figure_eight())
    a = perturb(p, 42)
    b = perturb(p, 42)
    assert a == b
    c = perturb(p, 43)
    assert a != c


def _step(p: ParamPoint, q: ParamPoint):
    return [b - a for a, b in zip(p.lengths, q.lengths)], q.anchor_pos - p.anchor_pos


@pytest.mark.parametrize("k", [1, 2, 5])
def test_perturb_halves_the_step_per_refused_candidate(k):
    # the per-candidate check lives on in reference_perturb: with no
    # refusal it returns perturb's step, and each refusal halves it
    p = params_from_curve(two_triangles_bridged())
    seen = []

    def refuse_first(c):
        seen.append(c)
        return len(seen) > k and validate(c).passed

    base = perturb(p, 7)
    assert reference_perturb(p, 7) == base
    got = reference_perturb(p, 7, refuse_first)
    assert len(seen) == k + 1
    lengths, anchor = _step(p, base)
    assert _step(p, got) == ([d / 2 ** k for d in lengths], anchor * Fraction(1, 2 ** k))


def test_perturb_refuses_a_point_that_does_not_close():
    p = params_from_curve(two_triangles_bridged())
    lengths = list(p.lengths)
    lengths[3] *= 2
    with pytest.raises(ClosureError, match="edges \\[3, 4, 5\\] does not close"):
        perturb(ParamPoint(p.skeleton, tuple(lengths), p.anchor_pos), 7)
    skel = replace(p.skeleton, vertex_count=p.skeleton.vertex_count + 1)
    with pytest.raises(ClosureError, match="disconnected"):
        perturb(ParamPoint(skel, p.lengths, p.anchor_pos), 7)


def test_perturb_chain_stays_valid():
    p = params_from_curve(two_triangles_bridged())
    rng = random.Random(7)
    combinatorics = None
    for step in range(1000):
        p = perturb(p, rng)
        c = curve_from_params(p)
        assert all(ll > 0 for ll in p.lengths)
        if step % 25 == 0:
            assert validate(c).passed
        nc = newton_complex(c)
        key = (nc.vertex_set(), nc.edge_segments())
        if combinatorics is None:
            combinatorics = key
        assert key == combinatorics


def test_degeneration_reflexive():
    for c in FIXTURES:
        assert is_degeneration(c, c)


def test_degeneration_one_vertex_star():
    host = unit_triangle_cycle()
    star = curve(
        [(0, 0)],
        rays=[(0, (-1, -1)), (0, (2, -1)), (0, (-1, 2))],
    )
    assert validate(star).passed
    assert is_degeneration(star, host)
    assert not is_degeneration(host, star)


def test_degeneration_requires_equal_polygon():
    assert not is_degeneration(tropical_line(), unit_triangle_cycle())


def test_degeneration_requires_covered_edges():
    # the two triangulations of the unit square: the same dual vertices,
    # but neither diagonal is covered by the other's edges
    a = corner_locus(polynomial({(0, 0): 1, (1, 0): 0, (0, 1): 0, (1, 1): 1}))
    b = corner_locus(polynomial({(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 0}))
    assert newton_complex(a).vertex_set() == newton_complex(b).vertex_set()
    assert not is_degeneration(a, b)
    assert not is_degeneration(b, a)


def test_segment_covered():
    whole = {((0, 0), (1, 0)), ((1, 0), (2, 0))}
    assert _segment_covered((0, 0), (2, 0), whole)
    assert not _segment_covered((0, 0), (2, 0), {((0, 0), (1, 0))})  # stops short
    assert not _segment_covered((0, 0), (2, 0), {((1, 0), (2, 0))})  # starts late
    assert not _segment_covered((0, 0), (2, 0), {((0, 1), (2, 1))})  # parallel


def test_same_component():
    line = tropical_line()
    assert same_component(line, translate(line, pt("22/7", "-3/5")))
    assert not same_component(wedge_l(), wedge_m())
    host = unit_triangle_cycle()
    star = curve(
        [(5, 5)],
        rays=[(0, (-1, -1)), (0, (2, -1)), (0, (-1, 2))],
    )
    assert same_component(host, star)


# -- the walk step: one curve per ParamPoint, the integer projector --


def test_curve_from_params_builds_once_per_point():
    p = perturb(params_from_curve(two_triangles_bridged()), 3)
    c = curve_from_params(p)
    assert curve_from_params(p) is c
    # an equal point is another object and builds its own curve
    twin = ParamPoint(p.skeleton, p.lengths, p.anchor_pos)
    assert twin == p and curve_from_params(twin) is not c
    assert canonical_form(curve_from_params(twin)) == canonical_form(c)


def test_perturb_hands_its_accepted_curve_on(monkeypatch):
    # the one curve perturb validates, through the gate, is its start's
    # own, built once; the candidate comes unbuilt and carries the
    # certified skeleton on
    gate = importlib.import_module("tropcurve.curve")
    checked = []
    monkeypatch.setattr(gate, "validate", lambda c: checked.append(c) or validate(c))
    p = params_from_curve(figure_eight())
    q = perturb(p, 5)
    assert len(checked) == 1 and checked[0] is curve_from_params(p)
    assert q.skeleton is p.skeleton and "_curve" not in vars(q)
    perturb(q, 6)
    assert len(checked) == 1


def test_a_point_that_does_not_close_raises_on_every_call():
    p = params_from_curve(two_triangles_bridged())
    lengths = list(p.lengths)
    lengths[3] *= 2
    bad = ParamPoint(p.skeleton, tuple(lengths), p.anchor_pos)
    for _ in range(3):
        with pytest.raises(ClosureError, match="does not close"):
            curve_from_params(bad)
    lengths[0] = Fraction(0)
    for _ in range(3):
        with pytest.raises(ClosureError, match="non-positive"):
            curve_from_params(ParamPoint(p.skeleton, tuple(lengths), p.anchor_pos))


@pytest.mark.parametrize("c", FIXTURES)
def test_params_from_curve_does_not_prime_the_curve(c):
    p = params_from_curve(c)
    assert "_curve" not in vars(p)
    back = curve_from_params(p)
    assert back is not c
    assert canonical_form(back) == canonical_form(c)


def test_validate_is_not_cached(monkeypatch):
    curve_mod = importlib.import_module("tropcurve.curve")
    scans = []
    real = curve_mod._scan
    monkeypatch.setattr(curve_mod, "_scan", lambda *a: scans.append(a) or real(*a))
    c = curve_from_params(perturb(params_from_curve(figure_eight()), 9))
    scans.clear()
    for k in range(1, 4):
        assert validate(c).passed
        assert len(scans) == k


def _seeded_skeletons():
    rng = random.Random(21)
    out = []
    for d in (2, 3, 4):
        c = corner_locus(polynomial(concave_lift(rng, d)))
        out.append(params_from_curve(c, rng.randrange(len(c.vertices))).skeleton)
    return out


SEEDED = _seeded_skeletons()
SKELETONS = [
    params_from_curve(c, anchor).skeleton
    for c in FIXTURES for anchor in range(len(c.vertices))
] + SEEDED


def test_projector_matches_gram_schmidt_on_seeded_skeletons():
    rng = random.Random(17)
    for skel in SEEDED:
        for _ in range(4):
            d = [Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in skel.edges]
            assert project_to_closure(skel, d) == reference_project_to_closure(skel, d)


rationals = st.fractions(max_denominator=10 ** 6).filter(lambda q: abs(q) < 10 ** 9)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SKELETONS), st.data())
def test_projector_matches_gram_schmidt_on_any_direction(skel, data):
    d = data.draw(st.lists(rationals, min_size=len(skel.edges), max_size=len(skel.edges)))
    got = project_to_closure(skel, d)
    assert got == reference_project_to_closure(skel, d)
    assert all(type(x) is Fraction for x in got)


# -- the dyadic grid: integer draws, steps of 2^-k, bounded denominators --


class ScriptedRandom(random.Random):
    """A Random whose randint hands out the given draws in order."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = iter(draws)

    def randint(self, a, b):
        x = next(self.draws)
        assert a <= x <= b
        return x


def _denominator(p: ParamPoint) -> int:
    return lcm(*(q.denominator for q in (*p.lengths, p.anchor_pos.x, p.anchor_pos.y)))


def _cubic(seed: int) -> ParamPoint:
    rng = random.Random(seed)
    return params_from_curve(corner_locus(polynomial(concave_lift(rng, 3))))


def _walk_stays_on_the_grid(p: ParamPoint, rng: random.Random, steps: int) -> None:
    bound = lcm(_denominator(p), p.skeleton._projector[1] << GRID_HALVINGS)
    for _ in range(steps):
        p = perturb(p, rng)
        assert bound % _denominator(p) == 0


def test_walk_denominators_divide_the_grid():
    _walk_stays_on_the_grid(_cubic(7), random.Random(7), 1500)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_walk_denominators_divide_the_grid_from_any_seed(cubic_seed, walk_seed):
    _walk_stays_on_the_grid(_cubic(cubic_seed), random.Random(walk_seed), 150)


@pytest.mark.parametrize("seed", range(6))
def test_perturb_takes_the_largest_power_of_two_under_the_bound(seed):
    rng = random.Random(seed)
    p = _cubic(seed)
    raw = [rng.randint(-60, 60) for _ in p.lengths]
    anchor = (rng.randint(-60, 60), rng.randint(1, 60))
    q = perturb(p, ScriptedRandom([*raw, *anchor]))
    step = project_to_closure(p.skeleton, [Fraction(x) for x in raw])
    bound = min([Fraction(1)] + [ll / (-d) / 2 for ll, d in zip(p.lengths, step) if d < 0])
    s = (q.anchor_pos.y - p.anchor_pos.y) / anchor[1]
    assert s.numerator == 1 and s.denominator & (s.denominator - 1) == 0
    assert s <= bound and (s == 1 or 2 * s > bound)
    assert list(q.lengths) == [ll + s * d for ll, d in zip(p.lengths, step)]
    assert q.anchor_pos == p.anchor_pos + pt(*anchor) * s


def test_perturb_returns_its_input_when_every_candidate_is_refused():
    # reference_perturb refusing every candidate runs k = k0, ...,
    # GRID_HALVINGS, each vertex moving half as far as in the last, and
    # returns p; perturb refuses no candidate of a valid start
    p = params_from_curve(two_triangles_bridged())
    seen = []
    first = reference_perturb(p, 7, lambda c: seen.append(c) or False)
    assert first is p
    assert perturb(p, 7) is not p
    assert 2 <= len(seen) <= GRID_HALVINGS + 1
    start = curve_from_params(p).vertices
    moved = [[v - v0 for v, v0 in zip(b.vertices, start)] for b in seen]
    assert any(moved[-1])
    for m, n in zip(moved, moved[1:]):
        assert m == [d * 2 for d in n]


def _crossing_h():
    """A balanced curve that crosses itself: the branches from (0, 0) and
    (4, 0) rise towards each other, and their rays cross at (2, 2)."""
    return curve(
        [(0, 0), (4, 0), (1, 1), (3, 1)],
        edges=[(0, 1), (0, 2), (1, 3)],
        rays=[(0, (-2, -1)), (1, (2, -1)), (2, (1, 1)), (3, (-1, 1))],
    )


def test_perturb_refuses_a_candidate_with_coincident_vertices():
    # _crossing_h fails validate, so perturb refuses it as a start, before
    # any candidate, and certifies nothing.  reference_perturb checks each
    # candidate: the draws lengthen both branches by 1, so the first (k = 0,
    # since no length shrinks) puts vertices 2 and 3 at (2, 2), where
    # validate raises; it counts that as refused and halves the step
    p = params_from_curve(_crossing_h())
    assert p.lengths == (4, 1, 1)
    for _ in range(2):
        with pytest.raises(
            InvalidCurveError,
            match=re.escape("curve crosses itself: ray 2 and ray 3 meet at (2, 2) "),
        ):
            perturb(p, ScriptedRandom([0, 1, 1, 0, 0]))
    assert "_certified" not in vars(p.skeleton)
    seen = []
    q = reference_perturb(
        p, ScriptedRandom([0, 1, 1, 0, 0]), lambda c: seen.append(c) or validate(c).passed
    )
    assert seen[0].vertices[2] == seen[0].vertices[3] == pt(2, 2)
    with pytest.raises(StructureError, match="vertices 2 and 3 coincide at \\(2, 2\\)"):
        validate(seen[0])
    assert seen[1].vertices[2] == pt("3/2", "3/2") and seen[1].vertices[3] == pt("5/2", "3/2")
    # every later candidate still crosses at (2, 2), so p comes back after
    # k = 0, ..., 60: the grid is no coarser than 60 halvings
    assert len(seen) == 61 and q is p


# -- one certificate per skeleton: the first candidate, checked in tests --


@pytest.mark.parametrize("c", FIXTURES + [weight_two_edge_curve()])
def test_perturb_is_the_reference_on_every_fixture_type(c):
    for anchor in range(len(c.vertices)):
        p = params_from_curve(c, anchor)
        for seed in range(4):
            assert perturb(p, seed) == reference_perturb(p, seed)


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_perturb_is_the_reference_along_a_cubic_walk(seed):
    p = _cubic(seed)
    for step in range(200):
        q = perturb(p, random.Random(step))
        assert q == reference_perturb(p, random.Random(step))
        p = q


def test_perturb_validates_once_per_skeleton(monkeypatch):
    # two starts built by the raw constructor, so neither is born valid:
    # the gate validates each once, and none of their candidates
    gate = importlib.import_module("tropcurve.curve")
    checked = []
    monkeypatch.setattr(gate, "validate", lambda c: checked.append(c) or validate(c))
    rng = random.Random(5)
    cubic = _fresh(curve_from_params(_cubic(5)))
    for p in (params_from_curve(cubic), params_from_curve(two_triangles_bridged())):
        start = p
        for _ in range(50):
            p = perturb(p, rng)
            assert p.skeleton is start.skeleton
        assert checked[-1] is curve_from_params(start)
    assert len(checked) == 2


@pytest.mark.parametrize("seed", [0, 1, 4, 6])
def test_perturb_returns_its_input_past_the_finest_step(seed):
    # a bridge of length 2^-80 that the draw shortens needs k > GRID_HALVINGS
    p = params_from_curve(two_triangles_bridged())
    assert p.skeleton.edges[6][:2] == (0, 3)  # the bridge, on no cycle
    lengths = list(p.lengths)
    lengths[6] = Fraction(1, 2 ** 80)
    q = ParamPoint(p.skeleton, tuple(lengths), p.anchor_pos)
    assert perturb(q, seed) is q
    assert reference_perturb(q, seed) is q


def _fresh(c):
    return TropicalCurve(tuple(Point(v.x, v.y) for v in c.vertices), c.edges, c.rays)


def _assert_built_as_fresh(c):
    fresh = _fresh(c)
    assert c._scale == fresh._scale
    assert c._grid == fresh._grid
    assert items(c) == items(fresh)
    assert [(it.scale, it.lattice) for it in items(c)] == [
        (it.scale, it.lattice) for it in items(fresh)
    ]


@pytest.mark.parametrize("c", FIXTURES)
def test_params_built_curve_has_the_scale_grid_and_items_of_a_fresh_one(c):
    for anchor in range(len(c.vertices)):
        p = params_from_curve(translate(c, pt("-7/6", "5/4")), anchor)
        _assert_built_as_fresh(curve_from_params(p))
        for _ in range(3):
            p = perturb(p, anchor)
            _assert_built_as_fresh(curve_from_params(p))


def test_walked_cubic_has_the_scale_grid_and_items_of_a_fresh_one():
    p, rng = _cubic(3), random.Random(3)
    for _ in range(200):
        p = perturb(p, rng)
        _assert_built_as_fresh(curve_from_params(p))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(FIXTURES),
    st.lists(st.integers(1, 8), min_size=2, max_size=2),
    st.fractions(max_denominator=60),
    st.fractions(max_denominator=60),
)
def test_any_scaled_fixture_is_built_as_a_fresh_one(c, ratio, x, y):
    # a common factor on every length keeps the cycles closed
    p = params_from_curve(c)
    f = Fraction(*ratio)
    _assert_built_as_fresh(curve_from_params(
        ParamPoint(p.skeleton, tuple(f * ll for ll in p.lengths), pt(x, y))
    ))
