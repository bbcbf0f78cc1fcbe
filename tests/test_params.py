import importlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures_lib import (
    concave_lift,
    figure_eight,
    reference_project_to_closure,
    tail_cycle_curve,
    theta_curve,
    triangle_cycle_host,
    tropical_line,
    two_triangles_bridged,
    unit_triangle_cycle,
    wedge_l,
    wedge_m,
)
from tropcurve.curve import BalanceReport, canonical_form, curve, translate, validate
from tropcurve.geom import pt
from tropcurve.newton import newton_complex
from tropcurve.polyfront import corner_locus, polynomial
from tropcurve.params import (
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
def test_perturb_halves_the_step_per_refused_candidate(monkeypatch, k):
    params = importlib.import_module("tropcurve.params")
    p = params_from_curve(two_triangles_bridged())
    seen = []

    def refuse_first(n):
        def fake(c):
            seen.append(c)
            report = validate(c)
            if len(seen) > n:
                return report
            return BalanceReport(report.residuals, ("refused",))
        return fake

    monkeypatch.setattr(params, "validate", refuse_first(0))
    base = perturb(p, 7)
    assert len(seen) == 1  # the unpatched first candidate passes
    seen.clear()
    monkeypatch.setattr(params, "validate", refuse_first(k))
    got = perturb(p, 7)
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
    params = importlib.import_module("tropcurve.params")
    checked = []
    monkeypatch.setattr(params, "validate", lambda c: checked.append(c) or validate(c))
    q = perturb(params_from_curve(figure_eight()), 5)
    assert curve_from_params(q) is checked[-1]


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
    real = curve_mod.meetings
    monkeypatch.setattr(curve_mod, "meetings", lambda *a: scans.append(a) or real(*a))
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
