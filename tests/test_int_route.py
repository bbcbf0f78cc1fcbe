"""The corner path on (x, y) int pairs against its IntVector/Fraction
references: face_structure, the dual propagation in both orders, the
shared hull ring and the collinear subdivision.  Every comparison is
dataclass equality, so each face id, dual vertex and cell must agree."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures_lib import (
    anti_line,
    concave_lift,
    coordinate_cross,
    diagonal_cross,
    figure_eight,
    reference_collinear_subdivision,
    reference_convex_hull,
    reference_face_structure,
    reference_propagate,
    sparse_lift,
    tail_cycle_curve,
    theta_curve,
    tied_lift,
    triangle_cycle_host,
    tropical_line,
    two_triangles_bridged,
    unit_triangle_cycle,
    vertical_line,
    weight_two_edge_curve,
    wedge_l,
    wedge_m,
)
from tropcurve.curve import curve, translate
from tropcurve.geom import GeometryError, pt, vec
from tropcurve.newton import (
    DualityError,
    _propagate,
    convex_hull,
    face_structure,
    newton_complex,
)
from tropcurve.polyfront import corner_locus, dual_subdivision, parse, polynomial

HAND = [
    tropical_line(),
    anti_line((2, -1)),
    coordinate_cross(),
    diagonal_cross((1, 1)),
    vertical_line((-2, 5)),
    wedge_l(),
    wedge_m((3, 1)),
    triangle_cycle_host(),
    unit_triangle_cycle(),
    figure_eight(),
    two_triangles_bridged(),
    theta_curve(),
    weight_two_edge_curve(),
    tail_cycle_curve(),
    # parallel rays that tie on angle, ordered by their offsets
    curve([(0, 0), (3, 0)], rays=[(0, (0, 1)), (0, (0, -1)), (1, (0, 1)), (1, (0, -1))]),
]

# Supports on one lattice line: every ray of the locus is parallel to one
# direction, so the circle at infinity orders them by offset alone.
COLLINEAR = [
    "0 + x + (-1)*x^2 + 3*x^3",
    "0 + 1/2*y + (-2)*y^3 + (-7)*y^4",
    "0 + (-1)*x*y + (-5/3)*x^2*y^2 + (-4)*x^4*y^4",
    "x*y^3 + 2*x^3*y^2 + (-1)*x^5*y + (-9)*x^7",
    "0 + x + x^2 + x^3 + x^4",
]


def assert_int_route_matches(c):
    """face_structure, _propagate and the hull of the dual vertices equal
    their references, or raise the same error."""
    try:
        want = reference_face_structure(c)
    except GeometryError as err:
        with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
            face_structure(c)
        return
    fs = face_structure(c)
    assert fs == want
    for order in ("bfs", "dfs"):
        try:
            ref = reference_propagate(fs, order)
        except DualityError as err:
            with pytest.raises(DualityError, match=f"^{re.escape(str(err))}$"):
                _propagate(fs)
            continue
        nc = _propagate(fs)
        assert nc == ref
        assert convex_hull(list(nc.dual_vertices)) == reference_convex_hull(
            list(nc.dual_vertices)
        )


def _seeded_loci():
    out = []
    for lift in (concave_lift, sparse_lift, tied_lift):
        rng = random.Random(f"int-route:{lift.__name__}")
        for d in range(3, 13):
            coeffs = lift(rng, d)
            for convention in ("max", "min"):
                out.append(corner_locus(polynomial(coeffs, convention)))
    return out


def test_seeded_loci_match_references():
    for c in _seeded_loci():
        assert_int_route_matches(c)


@pytest.mark.parametrize("text", COLLINEAR)
@pytest.mark.parametrize("convention", ["max", "min"])
def test_collinear_loci_match_references(text, convention):
    c = corner_locus(parse(text, convention))
    assert len({(r.direction.x, r.direction.y) for r in c.rays}) == 2
    assert_int_route_matches(c)
    assert_int_route_matches(translate(c, pt("5/7", "-3/11")))


def test_hand_fixtures_match_references():
    for c in HAND:
        assert_int_route_matches(c)
        assert_int_route_matches(translate(c, pt("-13/4", "2/9")))


def test_refused_curves_match_references():
    # crossing lines: a face structure, then an inconsistent propagation
    crossing = curve(
        [(0, 0), (1, 2)],
        rays=[(v, d) for v in (0, 1) for d in ((-1, 0), (0, -1), (1, 1))],
    )
    same_direction = curve([(0, 0), (1, 0), (2, 0)], edges=[(0, 1), (0, 2)])
    for c in (crossing, same_direction):
        assert_int_route_matches(c)


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.fractions(min_value=-8, max_value=8, max_denominator=9),
        min_size=2,
        max_size=14,
    ),
    st.sampled_from(["max", "min"]),
    st.fractions(min_value=-5, max_value=5, max_denominator=13),
    st.fractions(min_value=-5, max_value=5, max_denominator=13),
)
def test_random_loci_match_references(coeffs, convention, dx, dy):
    c = corner_locus(polynomial(coeffs, convention))
    assert_int_route_matches(c)
    assert_int_route_matches(translate(c, pt(dx, dy)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=14))
def test_hull_matches_reference(points):
    pts = [vec(x, y) for x, y in points]
    assert convex_hull(pts) == reference_convex_hull(pts)


def test_hull_of_nothing_refused():
    with pytest.raises(GeometryError, match="^hull of empty point set$"):
        convex_hull([])


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.sampled_from([(1, 0), (0, 1), (1, 1), (1, 2), (3, 1), (2, -1), (1, -3)]),
    st.dictionaries(
        st.integers(0, 6),
        st.fractions(min_value=-8, max_value=8, max_denominator=9),
        min_size=2,
        max_size=7,
    ),
)
def test_collinear_subdivision_matches_reference(base, direction, coeffs):
    (bx, by), (ux, uy) = base, direction
    lift = {}
    for k, c in coeffs.items():
        i, j = bx + k * ux, by + k * uy
        if i >= 0 and j >= 0:
            lift[(i, j)] = c
    if len(lift) < 2:
        return
    g = polynomial(lift)
    assert dual_subdivision(g) == reference_collinear_subdivision(g)


def test_two_items_in_one_direction_refused():
    c = curve([(0, 0), (1, 0), (2, 0)], edges=[(0, 1), (0, 2)])
    with pytest.raises(
        GeometryError, match="^two items leave vertex 0 in the same direction$"
    ):
        face_structure(c)


def test_unbalanced_propagation_refused():
    c = curve([(0, 0), (5, 0)], rays=[(0, (-1, 0)), (0, (0, -1)), (1, (1, 1))])
    with pytest.raises(
        DualityError,
        match=r"^dual propagation is inconsistent; curve is unbalanced or crosses itself$",
    ):
        newton_complex(c)
