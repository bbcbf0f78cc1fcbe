import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures_lib import (
    concave_lift,
    coordinate_cross,
    dual_cell_from_faces,
    figure_eight,
    reference_newton_polygon,
    reference_propagate,
    slid_pool,
    sparse_lift,
    tail_cycle_curve,
    theta_curve,
    tied_lift,
    triangle_cycle_host,
    tropical_line,
    two_triangles_bridged,
    vertical_line,
    wedge_l,
    wedge_m,
)
import tropcurve.newton as newton_module
from tropcurve import jsonio
from tropcurve.cli import main
from tropcurve.curve import InvalidCurveError, curve, require_valid, translate, union, validate
from tropcurve.geom import GeometryError, pt, vec
from tropcurve.newton import (
    DualityError,
    LatticePolygon,
    _propagate,
    convex_hull,
    dual_cell,
    face_structure,
    minkowski_sum,
    newton_complex,
    newton_polygon,
    star_cell,
    vertex_multiplicity,
)
from tropcurve.polyfront import corner_locus, polynomial


def poly(*pts):
    return convex_hull([vec(x, y) for x, y in pts])


UNIT_TRIANGLE = poly((0, 0), (1, 0), (0, 1))


def test_face_structure_line():
    fs = face_structure(tropical_line())
    assert fs.count == 3
    assert not fs.bounded_faces()


def test_face_structure_cross():
    fs = face_structure(coordinate_cross())
    assert fs.count == 4


def test_face_structure_bounded_cycle():
    fs = face_structure(triangle_cycle_host())
    assert fs.count == 4
    assert len(fs.bounded_faces()) == 1


def test_face_structure_two_parallel_lines():
    c = curve(
        [(0, 0), (3, 0)],
        rays=[(0, (0, 1)), (0, (0, -1)), (1, (0, 1)), (1, (0, -1))],
    )
    fs = face_structure(c)
    assert fs.count == 3


def test_face_structure_euler():
    for c in [
        tropical_line(),
        triangle_cycle_host(),
        figure_eight(),
        theta_curve(),
        tail_cycle_curve(),
    ]:
        fs = face_structure(c)
        v = len(c.vertices) + 1  # one vertex at infinity
        e = len(c.edges) + len(c.rays)
        assert v - e + fs.count == 2


def test_newton_complex_line():
    nc = newton_complex(tropical_line())
    assert nc.vertex_set() == {(0, 0), (1, 0), (0, 1)}
    assert len(nc.dual_edges) == 3


def test_newton_complex_weighted_line():
    c = curve(
        [(0, 0)],
        rays=[(0, (-1, 0), 2), (0, (0, -1), 2), (0, (1, 1), 2)],
    )
    nc = newton_complex(c)
    assert nc.vertex_set() == {(0, 0), (2, 0), (0, 2)}


def test_newton_complex_vertical_line():
    nc = newton_complex(vertical_line())
    assert nc.vertex_set() == {(0, 0), (1, 0)}
    assert len(nc.dual_edges) == 2


def test_newton_complex_traversal_independent():
    for c in [triangle_cycle_host(), figure_eight(), theta_curve()]:
        fs = face_structure(c)
        a = _propagate(fs)
        for order in ("bfs", "dfs"):
            b = reference_propagate(fs, order)
            assert a.dual_vertices == b.dual_vertices
            assert a.dual_edges == b.dual_edges


def test_newton_polygon_line():
    assert newton_polygon(tropical_line()) == UNIT_TRIANGLE


def test_newton_polygon_degree_c():
    for deg in (1, 2, 3):
        c = curve(
            [(0, 0)],
            rays=[
                (0, (-1, 0), deg),
                (0, (0, -1), deg),
                (0, (1, 1), deg),
            ],
        )
        assert newton_polygon(c) == poly((0, 0), (deg, 0), (0, deg))


def test_newton_polygon_wedges():
    assert newton_polygon(wedge_l()) == poly((0, 0), (1, 0), (1, 1))
    assert newton_polygon(wedge_m()) == poly((0, 0), (0, 1), (1, 1))


def test_newton_polygon_translation_invariant():
    for c in [tropical_line(), triangle_cycle_host(), figure_eight()]:
        moved = translate(c, pt("7/3", "-11/5"))
        assert newton_polygon(moved) == newton_polygon(c)


# A 500-bit translation, the size the walk's coordinates reach.
BIG_SHIFT = pt(Fraction(7 ** 180, 11 ** 140 + 3), Fraction(-(2 ** 512) - 1, 13 ** 135))


def _cross_check_curves():
    """Fixture curves; seeded corner loci of degree 2 to 7 from generic,
    sparse and tied lifts; smooth loci with copies slid along their own
    edges; and a translate at 500 bits."""
    fixtures = [
        tropical_line(),
        triangle_cycle_host(),
        figure_eight(),
        two_triangles_bridged(),
        theta_curve(),
        tail_cycle_curve(),
        wedge_l(),
        wedge_m(),
    ]
    loci = []
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        for d in range(2, 8):
            for lift in (concave_lift, sparse_lift, tied_lift):
                coeffs = lift(rng, d)
                loci.append((corner_locus(polynomial(coeffs)), coeffs))
    pool = slid_pool(random.Random(11), (2, 3, 4, 5), (0, 1, 2, 3))
    big = translate(pool[2], BIG_SHIFT)
    assert max(q.denominator.bit_length() for v in big.vertices for q in (v.x, v.y)) > 500
    return fixtures + pool + [big], loci


def test_hull_equals_ray_construction():
    """The hull route, kept here as the reference, agrees with the ray
    construction newton_polygon runs."""
    curves, loci = _cross_check_curves()
    for c in curves + [c for c, _ in loci]:
        assert newton_polygon(c) == reference_newton_polygon(c)
    for c, coeffs in loci:
        support = convex_hull([vec(i, j) for i, j in coeffs]).normalized()
        assert newton_polygon(c) == support


def test_newton_polygon_builds_no_face_structure(monkeypatch):
    expected = [reference_newton_polygon(c) for c in _cross_check_curves()[0]]
    curves = _cross_check_curves()[0]  # fresh objects: nothing cached on them

    def refuse(c):
        raise AssertionError("face_structure called")

    monkeypatch.setattr(newton_module, "face_structure", refuse)
    assert [newton_polygon(c) for c in curves] == expected


@pytest.mark.parametrize("flags", [[], ["--json"], ["--svg", "out.svg"]])
def test_cli_newton_builds_face_structure_once(monkeypatch, tmp_path, flags):
    calls = []
    real = newton_module.face_structure

    def counting(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(newton_module, "face_structure", counting)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(jsonio.curve_to_json(theta_curve()))
    assert main(["newton", "c.json", *flags]) == 0
    assert len(calls) == 1


def test_crossing_lines_give_their_product_polygon():
    # two tropical lines crossing at (1, 1), with no vertex there
    c = curve(
        [(0, 0), (1, 2)],
        rays=[(v, d) for v in (0, 1) for d in ((-1, 0), (0, -1), (1, 1))],
    )
    report = validate(c)
    assert report.balanced and report.embedding_violations
    assert newton_polygon(c) == poly((0, 0), (2, 0), (0, 2))
    assert newton_polygon(c) == minkowski_sum(UNIT_TRIANGLE, UNIT_TRIANGLE)
    with pytest.raises(DualityError):
        newton_complex(c)


def test_unbalanced_star_refused():
    c = curve([(0, 0)], rays=[(0, (1, 0)), (0, (0, 1))])
    with pytest.raises(InvalidCurveError, match=r"^curve is not balanced: vertex 0 has residual \(1, 1\)$"):
        newton_polygon(c)


def test_unbalanced_curve_with_closing_rays_refused():
    # the rays sum to zero, so their polygon closes, but neither vertex is
    # balanced; the refusal is require_valid's
    c = curve([(0, 0), (5, 0)], rays=[(0, (-1, 0)), (0, (0, -1)), (1, (1, 1))])
    assert not validate(c).balanced
    with pytest.raises(InvalidCurveError) as refused:
        newton_polygon(c)
    with pytest.raises(InvalidCurveError) as valid:
        require_valid(c)
    assert str(refused.value) == str(valid.value) == (
        "curve is not balanced: vertex 0 has residual (-1, -1)"
    )


def test_curve_without_rays_refused():
    with pytest.raises(GeometryError, match="no rays has no Newton polygon"):
        newton_polygon(curve([(0, 0)]))


def test_minkowski_point_identity():
    p = poly((0, 0), (1, 0), (0, 1))
    assert minkowski_sum(p, LatticePolygon((vec(2, 3),))) == p.translated(vec(2, 3))


def test_minkowski_triangles():
    two = minkowski_sum(UNIT_TRIANGLE, UNIT_TRIANGLE)
    assert two == poly((0, 0), (2, 0), (0, 2))


def test_minkowski_union_duality():
    rng = random.Random(13)

    def random_curve():
        while True:
            d = rng.randint(1, 3)
            coeffs = {}
            for i in range(d + 1):
                for j in range(d + 1 - i):
                    if rng.random() < 0.8:
                        coeffs[(i, j)] = Fraction(
                            rng.randint(-9, 9), rng.randint(1, 3)
                        )
            if len(coeffs) >= 2:
                return corner_locus(polynomial(coeffs))

    pairs = [
        (tropical_line(), translate(tropical_line(), pt(3, 0))),
        (tropical_line(), vertical_line((-2, -5))),
        (triangle_cycle_host(), wedge_l()),
        (wedge_l(), wedge_m((2, 1))),
    ] + [
        (
            random_curve(),
            translate(
                random_curve(),
                pt(Fraction(rng.randint(-30, 30), 7),
                   Fraction(rng.randint(-30, 30), 11)),
            ),
        )
        for _ in range(6)
    ]
    for a, b in pairs:
        u = union(a, b)
        assert validate(u).passed
        assert newton_polygon(u) == minkowski_sum(
            newton_polygon(a), newton_polygon(b)
        )


def test_minkowski_segments():
    h = poly((0, 0), (1, 0))
    v = poly((0, 0), (0, 1))
    assert minkowski_sum(h, v) == poly((0, 0), (1, 0), (1, 1), (0, 1))
    assert minkowski_sum(h, h) == poly((0, 0), (2, 0))


# hulls of 1 to 7 points: points and segments among them
lattice_polygons = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=7
).map(lambda pts: poly(*pts))


@settings(max_examples=300, deadline=None)
@given(lattice_polygons, lattice_polygons)
def test_minkowski_sum_is_hull_of_vertex_sums(p, q):
    sums = [a + b for a in p.vertices for b in q.vertices]
    assert minkowski_sum(p, q) == convex_hull(sums)


def test_star_cell_refuses_zero_vector_before_closure():
    with pytest.raises(GeometryError, match="^zero vector has no angle$"):
        star_cell([vec(1, 0), vec(0, 0)])  # nor do these close up
    with pytest.raises(GeometryError, match="^edge vectors do not close up$"):
        star_cell([vec(1, 0), vec(0, 1)])


def test_dual_cell_line_vertex():
    cell = dual_cell(tropical_line(), 0)
    assert cell == UNIT_TRIANGLE
    assert cell.area() == Fraction(1, 2)


def test_dual_cell_cross_vertex():
    cell = dual_cell(coordinate_cross(), 0)
    assert cell.area() == 1
    assert vertex_multiplicity(coordinate_cross(), pt(0, 0)) == 2


def test_dual_cell_weighted():
    c = curve(
        [(0, 0)],
        rays=[(0, (1, 0), 2), (0, (-1, 1)), (0, (-1, -1))],
    )
    cell = dual_cell(c, 0)
    assert cell.area2() == 2
    sides = cell.edge_vectors()
    assert any(abs(s.x) + abs(s.y) == 2 for s in sides)


def test_dual_cell_matches_face_version():
    rng = random.Random(5)
    loci = [
        corner_locus(polynomial(lift(rng, d)))
        for d in range(2, 8)
        for lift in (concave_lift, sparse_lift, tied_lift)
    ]
    for c in [tropical_line(), triangle_cycle_host(), figure_eight()] + loci:
        nc = newton_complex(c)
        for v in range(len(c.vertices)):
            assert dual_cell(c, v) == dual_cell_from_faces(c, v, nc)


def test_multiplicity_conventions():
    line = tropical_line()
    assert vertex_multiplicity(line, pt(0, 0)) == 1
    assert vertex_multiplicity(line, pt(-3, 0)) == 0  # edge interior
    assert vertex_multiplicity(line, pt(50, 3)) == 0  # off the curve


def test_positive_area_at_real_vertices():
    for c in [triangle_cycle_host(), figure_eight(), theta_curve()]:
        for i, v in enumerate(c.vertices):
            star = len(
                [e for e in c.edges if i in (e.a, e.b)]
            ) + len([r for r in c.rays if r.vertex == i])
            if star >= 3:
                assert vertex_multiplicity(c, v) > 0
