import importlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures_lib import (
    anti_line,
    benchmark_pool,
    concave_lift,
    item_intersection,
    coordinate_cross,
    diagonal_cross,
    figure_eight,
    reference_is_transversal,
    reference_outgoing,
    reference_star_intersection,
    slid_pool,
    sparse_lift,
    tail_cycle_curve,
    theta_curve,
    triangle_cycle_host,
    tropical_line,
    two_triangles_bridged,
    unit_triangle_cycle,
    vertical_line,
    weight_two_edge_curve,
    wedge_l,
    wedge_m,
)
from tropcurve.curve import (
    InvalidCurveError,
    Shared,
    TropicalCurve,
    curve,
    items,
    local_star,
    locate,
    translate,
    union,
    validate,
    _star,
)
from tropcurve.geom import GeometryError, IntVector, Point, primitive_direction, pt, vec
from tropcurve import intersect
from tropcurve.intersect import (
    Divisor,
    NonGenericDirection,
    _local_multiplicity,
    _record,
    bezout_degree,
    generic_direction,
    has_shared_segment,
    is_transversal,
    perturbation_oracle,
    stable_intersection,
    transversal_multiplicity,
)
from tropcurve.jacobian import UnsupportedCurveError, abel_coordinate, cycle_system, sigma
from tropcurve.newton import convex_hull, newton_polygon, star_multiplicity
from tropcurve.params import curve_from_params, params_from_curve, perturb
from tropcurve.polyfront import corner_locus, parse, polynomial


def poly(*pts):
    return convex_hull([vec(x, y) for x, y in pts])


def triangle(d):
    return poly((0, 0), (d, 0), (0, d))


def entries(d: Divisor):
    return {( (p.x, p.y), m) for p, m in d.entries}


def test_transversal_multiplicity_examples():
    assert transversal_multiplicity(vec(1, 0), 1, vec(0, 1), 1) == 1
    assert transversal_multiplicity(vec(1, 0), 2, vec(1, 2), 1) == 4
    assert transversal_multiplicity(vec(1, 1), 1, vec(1, -1), 1) == 2
    with pytest.raises(GeometryError):
        transversal_multiplicity(vec(1, 0), 1, vec(2, 0), 3)


def test_divisor_arithmetic():
    p, q = pt(0, 0), pt(1, 1)
    d = Divisor.of({p: 1, q: 1})
    assert (d - d).entries == ()
    assert (d - d).degree == 0
    d2 = Divisor.of({q: 1})
    assert (d - d2).entries == ((p, 1),)
    assert (d + d2).degree == d.degree + d2.degree


def test_divisor_host_mismatch():
    a = Divisor.of({pt(0, 0): 1}, host=tropical_line())
    b = Divisor.of({pt(0, 0): 1}, host=anti_line())
    with pytest.raises(GeometryError):
        a + b


def test_two_lines_general_position():
    a = tropical_line()
    b = translate(tropical_line(), pt(4, 1))
    d = stable_intersection(a, b)
    assert d.degree == 1
    assert all(m == 1 for _, m in d.entries)
    assert d.degree == bezout_degree(newton_polygon(a), newton_polygon(b))


def test_line_vs_itself():
    a = tropical_line()
    d = stable_intersection(a, a)
    assert entries(d) == {((0, 0), 1)}


def test_line_vs_itself_oracle_rejects_sliding_direction():
    a = tropical_line()
    with pytest.raises(NonGenericDirection):
        perturbation_oracle(a, a, pt(1, 0))


def test_line_vs_itself_oracle_generic():
    a = tropical_line()
    d = perturbation_oracle(a, a, pt(1, 2))
    assert entries(d) == {((0, 0), 1)}


def test_vertex_on_vertex():
    d = stable_intersection(tropical_line(), anti_line())
    assert entries(d) == {((0, 0), 2)}
    o = perturbation_oracle(tropical_line(), anti_line(), generic_direction(
        tropical_line(), anti_line()))
    assert entries(o) == entries(d)


def test_vertex_on_edge():
    host = tropical_line()
    guest = wedge_l((2, 2))
    d = stable_intersection(host, guest)
    assert entries(d) == {((2, 2), 2)}
    assert d.degree == bezout_degree(newton_polygon(host), newton_polygon(guest))
    o = perturbation_oracle(host, guest, generic_direction(host, guest))
    assert entries(o) == entries(d)


def test_shared_ray_segment():
    a = tropical_line()
    b = translate(tropical_line(), pt(2, 2))
    d = stable_intersection(a, b)
    assert entries(d) == {((2, 2), 1)}
    d_swapped = stable_intersection(b, a)
    assert entries(d_swapped) == entries(d)


def test_shared_vertical_overlap():
    a = tropical_line()
    b = vertical_line((0, -3))
    d = stable_intersection(a, b)
    assert entries(d) == {((0, 0), 1)}
    assert d.degree == bezout_degree(newton_polygon(a), newton_polygon(b))


def test_line_through_cross_vertex():
    host = coordinate_cross()
    guest = tropical_line((-1, -1))
    d = stable_intersection(host, guest)
    assert entries(d) == {((0, 0), 2)}
    assert d.degree == bezout_degree(newton_polygon(host), newton_polygon(guest))
    o = perturbation_oracle(host, guest, generic_direction(host, guest))
    assert entries(o) == entries(d)


def test_fig_style_difference_is_point_pair():
    c = triangle_cycle_host()
    l = wedge_l((0, 0))
    m = wedge_m((2, 1))
    dl = stable_intersection(c, l)
    dm = stable_intersection(c, m)
    assert entries(dl) == {((1, 0), 1), ((3, 0), 1), ((-1, 1), 1)}
    assert entries(dm) == {((3, 0), 2), ((-1, 1), 1)}
    diff = dl - dm
    assert entries(diff) == {((1, 0), 1), ((3, 0), -1)}


def test_bezout_projective_degrees():
    assert bezout_degree(triangle(2), triangle(3)) == 6
    for c in (1, 2, 3, 4):
        for d in (1, 2, 3):
            assert bezout_degree(triangle(c), triangle(d)) == c * d


def test_bezout_point_is_zero():
    from tropcurve.newton import LatticePolygon

    pt_poly = LatticePolygon((vec(3, 5),))
    assert bezout_degree(triangle(3), pt_poly) == 0


def test_bezout_wedges():
    # direct area computation: the Minkowski hexagon has area 3
    deg = bezout_degree(
        poly((0, 0), (1, 0), (1, 1)), poly((0, 0), (0, 1), (1, 1))
    )
    assert deg == 2
    # cross-check against the actual stable intersection of wedge curves
    d = stable_intersection(wedge_l((0, 0)), wedge_m((2, 1)))
    assert d.degree == deg


def test_is_transversal():
    a = tropical_line()
    cycle = unit_triangle_cycle()
    crossing = [
        (a, translate(a, pt(4, 1))),
        (cycle, vertical_line(("1/2", 5))),  # crosses two edges inside
    ]
    touching = [
        (a, anti_line()),  # vertex on vertex
        (a, translate(a, pt(2, 2))),  # shared ray
        (a, wedge_l((2, 2))),  # vertex inside a ray
        (cycle, vertical_line((1, 5))),  # through the head of edge 0
        (cycle, vertical_line((0, 5))),  # along edge 2
        (weight_two_edge_curve(), diagonal_cross(("1/2", 0))),  # inside an edge
    ]
    for c1, c2 in crossing:
        assert is_transversal(c1, c2) and is_transversal(c2, c1)
    for c1, c2 in touching:
        assert not is_transversal(c1, c2) and not is_transversal(c2, c1)


def test_symmetry_and_bezout_on_fixture_pairs():
    pairs = [
        (tropical_line(), translate(anti_line(), pt("1/2", "7/3"))),
        (triangle_cycle_host(), wedge_l((0, 0))),
        (triangle_cycle_host(), tropical_line((-3, -4))),
        (coordinate_cross(), wedge_m((5, "1/3"))),
    ]
    for a, b in pairs:
        d_ab = stable_intersection(a, b)
        d_ba = stable_intersection(b, a)
        assert entries(d_ab) == entries(d_ba)
        assert d_ab.degree == bezout_degree(newton_polygon(a), newton_polygon(b))
        o = perturbation_oracle(a, b, generic_direction(a, b))
        assert entries(o) == entries(d_ab)


def test_transversal_mu_matches_formula():
    a = tropical_line()
    b = translate(tropical_line(), pt(4, 1))
    d = stable_intersection(a, b)
    ((p, m),) = d.entries
    # crossing of the northeast ray of a with the west ray of b
    assert m == transversal_multiplicity(vec(1, 1), 1, vec(-1, 0), 1)


# Vertex on vertex: most fixtures have a vertex at the origin, and the
# shifted anti line sits on vertex (1, 0) of the unit triangle cycle and of
# the figure eight.  Vertex inside an edge: the shifted diagonal cross sits
# inside edge (0, 0)-(1, 0) of those two curves and inside the weight-2 edge.
# Vertex inside a ray: the shifted wedge sits on the tropical line's
# northeast ray.  The quadratic corner locus has rays of weight 2.
PAIR_CURVES = [
    tropical_line(),
    anti_line(),
    coordinate_cross(),
    diagonal_cross(),
    vertical_line(),
    wedge_l(),
    wedge_m(),
    triangle_cycle_host(),
    unit_triangle_cycle(),
    figure_eight(),
    two_triangles_bridged(),
    theta_curve(),
    weight_two_edge_curve(),
    tail_cycle_curve(),
    corner_locus(parse("0 + x^2 + y^2")),
    diagonal_cross(("1/2", 0)),
    anti_line((1, 0)),
    wedge_l((2, 2)),
    translate(theta_curve(), pt("1/3", "1/7")),
]
PAIRS = [(a, b) for a in PAIR_CURVES for b in PAIR_CURVES]


def reference_star(c: TropicalCurve, p: Point):
    """Weighted primitive vectors leaving p, from locate and raw curve data."""
    hit = locate(c, p)
    if hit is None:
        return []
    kind, i = hit
    if kind == "vertex":
        return reference_outgoing(c, i)
    if kind == "edge":
        e = c.edges[i]
        u, _ = primitive_direction(c.vertices[e.b] - c.vertices[e.a])
        w = u * e.weight
    else:
        w = c.rays[i].direction * c.rays[i].weight
    return [w, -w]


def reference_stable_intersection(c1: TropicalCurve, c2: TropicalCurve) -> Divisor:
    """The dual-cell formula with each star found by locating the point."""
    met = [item_intersection(a, b) for a in items(c1) for b in items(c2)]
    if any(isinstance(p, Shared) for p in met):
        return perturbation_oracle(c1, c2, generic_direction(c1, c2))
    acc = {}
    for p in {p for p in met if p is not None}:
        s1, s2 = reference_star(c1, p), reference_star(c2, p)
        m = star_multiplicity(s1 + s2) - star_multiplicity(s1) - star_multiplicity(s2)
        acc[p] = m // 2
    return Divisor.of(acc, c1)


@pytest.fixture(scope="module")
def reference_divisors():
    return [reference_stable_intersection(a, b) for a, b in PAIRS]


def test_star_route_matches_locate_route(reference_divisors):
    for (a, b), ref in zip(PAIRS, reference_divisors):
        assert stable_intersection(a, b) == ref, (a, b)


def test_stable_intersection_never_locates(monkeypatch, reference_divisors):
    def refuse(c, p):
        raise AssertionError("stable_intersection located a point")

    monkeypatch.setattr(importlib.import_module("tropcurve.curve"), "locate", refuse)
    assert [stable_intersection(a, b) for a, b in PAIRS] == reference_divisors


# ---------------------------------------------------------------------------
# The intersection record against the routes that read none
# ---------------------------------------------------------------------------

# Seeded smooth corner loci and copies of two of them slid along their own
# edges, as in the benchmark's intersect pool.
POOL = slid_pool(random.Random(5), (2, 3, 3, 4), (1, 3))
POOL_PAIRS = [(a, b) for a in POOL for b in POOL]


def assert_record_routes(c1: TropicalCurve, c2: TropicalCurve) -> None:
    assert stable_intersection(c1, c2) == reference_star_intersection(c1, c2)
    assert is_transversal(c1, c2) == reference_is_transversal(c1, c2)


def test_record_matches_star_route_on_fixture_pairs():
    for a, b in PAIRS:
        assert_record_routes(a, b)


def test_record_matches_star_route_on_pool_pairs():
    routes = set()
    for a, b in POOL_PAIRS:
        routes.add(has_shared_segment(a, b))
        assert_record_routes(a, b)
    assert routes == {False, True}


shifts = st.builds(
    pt,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PAIR_CURVES), st.sampled_from(PAIR_CURVES), shifts)
def test_record_matches_star_route_on_translates(c1, c2, shift):
    # quarter-integer shifts put vertices on vertices, edges and rays
    assert_record_routes(c1, translate(c2, shift))


def assert_refused_by_the_record(c1: TropicalCurve, c2: TropicalCurve, message: str) -> None:
    """Every reader of the record refuses the pair with require_valid's
    message, on every call."""
    for _ in range(2):
        for read in (_record, stable_intersection, is_transversal):
            with pytest.raises(InvalidCurveError, match=f"^{re.escape(message)}$"):
                read(c1, c2)


def test_self_crossing_first_curve_takes_the_star_route():
    # the two edges of x cross each other at the origin, on an item of the
    # other curve: the reference's star route counts both there, and the
    # record admits neither order of the pair, as x's lone edges leave its
    # vertices unbalanced
    x = curve([(-1, -1), (1, 1), (-1, 1), (1, -1)], edges=[(0, 1), (2, 3)])
    for other, mu in ((vertical_line((0, -3)), 2), (coordinate_cross(), 4)):
        for a, b in ((x, other), (other, x)):
            assert entries(reference_star_intersection(a, b)) == {((0, 0), mu)}
            assert_refused_by_the_record(a, b, "curve is not balanced: vertex 0 has residual (1, 1)")
    assert "_valid" not in vars(x)


def test_loose_end_on_an_item_keeps_the_star_route():
    # a lone segment's ends each have one item, whose star does not close:
    # the star route refuses them and counts the crossing inside; the
    # record refuses the unbalanced segment before any scan
    seg = curve([(0, 0), (1, 0)], edges=[(0, 1)])
    for x in (0, 1):
        line = vertical_line((x, -3))
        for a, b in ((seg, line), (line, seg)):
            with pytest.raises(GeometryError, match="do not close up"):
                reference_star_intersection(a, b)
            assert reference_is_transversal(a, b) is False
            assert_refused_by_the_record(a, b, "curve is not balanced: vertex 0 has residual (1, 0)")
    inside = vertical_line(("1/2", -3))
    assert entries(reference_star_intersection(seg, inside)) == {((Fraction(1, 2), 0), 1)}
    assert reference_is_transversal(seg, inside) is True
    assert_refused_by_the_record(seg, inside, "curve is not balanced: vertex 0 has residual (1, 0)")


def assert_one_route(pairs, monkeypatch) -> int:
    """On every pair that shares a segment, stable_intersection and sigma
    (where the first curve has a cycle system) equal the answers derived
    from the checked oracle, computed before the oracle, its direction
    finder and its pin scan are made to raise.  Returns how many such pairs
    sigma was compared on."""
    shared = [(a, b) for a, b in pairs if has_shared_segment(a, b)]
    systems = {}
    for a, _ in shared:
        if id(a) not in systems:
            try:
                systems[id(a)] = cycle_system(a)
            except UnsupportedCurveError:
                systems[id(a)] = None
    oracle = [perturbation_oracle(a, b, generic_direction(a, b)) for a, b in shared]
    coords = [
        None if systems[id(a)] is None else abel_coordinate(systems[id(a)], d)
        for (a, _), d in zip(shared, oracle)
    ]

    def refuse(*args):
        raise AssertionError("stable intersection left the record route")

    for name in ("generic_direction", "_pins", "perturbation_oracle"):
        monkeypatch.setattr(intersect, name, refuse)
    for (a, b), d, coord in zip(shared, oracle, coords):
        assert stable_intersection(a, b) == d, (a, b)
        if coord is not None:
            assert sigma(systems[id(a)], b) == coord, (a, b)
    return sum(coord is not None for coord in coords)


def test_shared_segment_pairs_take_the_record_route(monkeypatch):
    overlapping = [(a, b) for a, b in PAIRS + POOL_PAIRS if has_shared_segment(a, b)]
    assert any(a in POOL and b in POOL and a is not b for a, b in overlapping)
    assert assert_one_route(PAIRS + POOL_PAIRS, monkeypatch) > 0


@pytest.fixture(scope="module")
def benchmark_pools():
    """The intersect workload's pool for seeds 11 to 20, built by the
    benchmark's own setup."""
    return [benchmark_pool(seed) for seed in range(11, 21)]


def test_benchmark_pool_shared_pairs_take_the_record_route(benchmark_pools, monkeypatch):
    # The benchmark's own check compares only the degree on these pairs.
    pairs = [(a, b) for pool in benchmark_pools for a in pool for b in pool]
    assert sum(has_shared_segment(a, b) for a, b in pairs) > len(pairs) // 10
    assert assert_one_route(pairs, monkeypatch) > 0


def meeting_kinds(c1: TropicalCurve, c2: TropicalCurve, counts: dict) -> None:
    """Check the pair's record against the routes that read none, and its
    vertex marks against the curves' vertices, counting each point by
    kind: a crossing, a vertex on a vertex, a vertex inside an item, and
    (of any of these) an end of a part the curves share."""
    assert is_transversal(c1, c2) == reference_is_transversal(c1, c2)
    assert stable_intersection(c1, c2) == reference_star_intersection(c1, c2)
    curves = (c1, c2)
    where = [{(v.x, v.y): i for i, v in enumerate(c.vertices)} for c in curves]
    for (X, Y, D), at in _record(c1, c2).items():
        vs = [w.get((Fraction(X, D), Fraction(Y, D))) for w in where]
        # the mark names the first curve's vertex there, else the second's
        assert at.vertex == next(((k, v) for k, v in enumerate(vs) if v is not None), None)
        for c, v, its in zip(curves, vs, (at.its1, at.its2)):
            got = sorted((it.head is None, it.index, end) for it, end in its)
            if v is None:
                assert len(got) == 1 and got[0][2] is None
            else:
                # every item of the curve at its vertex, with the end there
                assert got == sorted(
                    (it.head is None, it.index, 0 if it.tail == v else 1)
                    for it in items(c)
                    if v in (it.tail, it.head)
                )
        if at.vertex is None:
            counts["crossing"] += 1
        else:
            counts["vertex inside item" if None in vs else "vertex on vertex"] += 1
        u1, u2 = ({primitive_direction(vec(x, y))[0] for x, y in _star(its)} for its in (at.its1, at.its2))
        if u1 & u2:
            # the end of a shared part is an item end
            assert at.vertex is not None
            counts["shared end"] += 1


def test_the_vertex_mark_classifies_every_kind_of_meeting():
    counts = dict.fromkeys(("crossing", "vertex on vertex", "vertex inside item", "shared end"), 0)
    pool = benchmark_pool(11)
    for a in pool:
        for b in pool:
            meeting_kinds(a, b, counts)
    # walk steps: a new mobile curve on the type's cone against a fixed host
    rng = random.Random(7)
    host = corner_locus(polynomial(concave_lift(rng, 3)))
    p = params_from_curve(corner_locus(polynomial(concave_lift(rng, 3))))
    for _ in range(100):
        p = perturb(p, rng)
        meeting_kinds(host, curve_from_params(p), counts)
    # integer translates of the fixtures put vertices on vertices and items
    for a in PAIR_CURVES:
        for b in PAIR_CURVES:
            for shift in (pt(0, 0), pt(1, 0), pt(0, -1)):
                meeting_kinds(a, translate(b, shift), counts)
    assert counts["crossing"] >= 4000
    assert counts["vertex on vertex"] >= 500
    assert counts["vertex inside item"] >= 800
    assert counts["shared end"] >= 1000


# ---------------------------------------------------------------------------
# The local count at a point against the dual-cell formula
# ---------------------------------------------------------------------------


def dual_cell_count(s1, s2) -> int:
    m = star_multiplicity(s1 + s2) - star_multiplicity(s1) - star_multiplicity(s2)
    assert m % 2 == 0
    return m // 2


def displaced_count(s1, s2, d: IntVector) -> int:
    """The fan displacement count with the second star moved along d."""
    total = 0
    for u in s1:
        for v in s2:
            c = u.x * v.y - u.y * v.x
            s, t = d.x * v.y - d.y * v.x, d.x * u.y - d.y * u.x
            assert s and t, "d is parallel to a star vector"
            if c and (c > 0) == (s > 0) == (t > 0):
                total += abs(c)
    return total


def pairs(star) -> list[tuple[int, int]]:
    return [(u.x, u.y) for u in star]


def assert_local_count(s1, s2) -> None:
    """s1 and s2 as IntVector stars; the local count takes (x, y) pairs."""
    mu = _local_multiplicity(pairs(s1), pairs(s2))
    assert mu == dual_cell_count(s1, s2)
    # three more generic directions: K exceeds every coordinate, so none of
    # them is parallel to a star vector
    K = 1 + max(max(abs(u.x), abs(u.y)) for u in s1 + s2)
    for d in (IntVector(K, 1), IntVector(-1, K), IntVector(-K, -K - 1)):
        assert displaced_count(s1, s2, d) == mu


primitives = st.sampled_from(
    [IntVector(x, y) for x, y in [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1),
                                  (1, 2), (-2, 1), (3, -1), (-1, -3), (2, 5), (-3, 2)]]
)


@st.composite
def balanced_stars(draw):
    """Weighted primitive vectors closed by their negated sum; opposite
    pairs stand for items through the point, which a star at a point of a
    curve always has at least one of."""
    star = [u * draw(st.integers(1, 3)) for u in draw(st.lists(primitives, min_size=1, max_size=4))]
    for u in draw(st.lists(primitives, max_size=2)):
        w = draw(st.integers(1, 2))
        star += [u * w, -u * w]
    rest = IntVector(-sum(u.x for u in star), -sum(u.y for u in star))
    if rest:
        star.append(rest)
    return star


@settings(max_examples=200, deadline=None)
@given(balanced_stars(), balanced_stars())
def test_local_count_matches_dual_cell_formula(s1, s2):
    assert_local_count(s1, s2)


def test_local_count_on_vertex_stars_of_loci():
    rng = random.Random(3)
    loci = [
        corner_locus(polynomial(lift(rng, d)))
        for d in (2, 3, 4)
        for lift in (concave_lift, sparse_lift)
    ]
    stars = [local_star(c, v) for c in loci for v in c.vertices]
    for s1 in stars[::3]:
        for s2 in stars[::4]:
            assert_local_count(s1, s2)


def _copy(c: TropicalCurve) -> TropicalCurve:
    return TropicalCurve(c.vertices, c.edges, c.rays)


def test_record_is_kept_by_identity():
    a, b = triangle_cycle_host(), tropical_line(("8/3", "-3/4"))
    a2 = _copy(a)
    assert a2 == a and a2 is not a
    d = stable_intersection(a, b)
    d2 = stable_intersection(a2, b)
    assert d2 == d and d2.host is a2
    # a2's own items, or their copies raised in a2's own index
    own = {id(it) for its in (items(a2), *(v for v, _ in a2._index.raised.values())) for it in its}
    assert a2._index.raised and all(
        id(it) in own for at in _record(a2, b).values() for it, _ in at.its1
    )


def test_is_transversal_before_stable_intersection():
    for a, b in [
        (triangle_cycle_host(), tropical_line(("8/3", "-3/4"))),
        (tropical_line(), wedge_l((2, 2))),
        (tropical_line(), translate(tropical_line(), pt(4, 1))),
    ]:
        assert is_transversal(a, b) == reference_is_transversal(a, b)
        assert stable_intersection(a, b) == reference_star_intersection(a, b)


def test_interleaved_pairs():
    a = triangle_cycle_host()
    b, c = wedge_l((0, 0)), wedge_m((2, 1))
    for x in (b, c, b):
        assert stable_intersection(a, x) == reference_star_intersection(a, x)
        assert is_transversal(a, x) == reference_is_transversal(a, x)
    assert stable_intersection(a, b) != stable_intersection(a, c)


def test_overlap_pair_is_not_transversal():
    a = tropical_line()
    b = translate(a, pt(2, 2))
    assert not is_transversal(a, b)
    assert entries(stable_intersection(a, b)) == {((2, 2), 1)}
    assert not is_transversal(a, b)
    # the shared ray is recorded at its one end, with every item through it
    assert has_shared_segment(a, b)
    assert {
        key: (len(at.its1), len(at.its2)) for key, at in _record(a, b).items()
    } == {(2, 2, 1): (1, 3)}


def test_one_pair_scan_serves_sigma_and_is_transversal(monkeypatch):
    from tropcurve.jacobian import cycle_system, sigma

    system = cycle_system(triangle_cycle_host())
    mobile = tropical_line(("8/3", "-3/4"))
    scans = []
    real = intersect._scan
    monkeypatch.setattr(intersect, "_scan", lambda *a: scans.append(a) or real(*a))
    sigma(system, mobile)
    assert is_transversal(system.curve, mobile)
    assert len(scans) == 1


def test_stable_intersection_after_sigma_and_after_is_transversal(monkeypatch):
    # the record keeps no entries: each call computes them again from the
    # one scan, and a vertex entry is the vertex object of its curve
    host = triangle_cycle_host()
    system = cycle_system(host)
    scans = []
    real = intersect._scan
    monkeypatch.setattr(intersect, "_scan", lambda *a: scans.append(a) or real(*a))
    vertex_entries = 0
    mobiles = [tropical_line(("8/3", "-3/4")), tropical_line(("5/2", "-3/4"))]
    mobiles += [
        translate(host, (host.vertices[e.b] - host.vertices[e.a]) * Fraction(1, 3))
        for e in host.edges
    ]
    for mobile in mobiles:
        sigma(system, mobile)
        d1 = stable_intersection(host, mobile)
        assert is_transversal(host, mobile) == reference_is_transversal(host, mobile)
        d2 = stable_intersection(host, mobile)
        assert d1 == d2 == reference_star_intersection(host, mobile)
        at_point = {(p.x, p.y): p for p, _ in d2.entries}
        for (X, Y, D), _, at in intersect._entries(host, mobile):
            if at.vertex is not None:
                k, v = at.vertex
                assert at_point[Fraction(X, D), Fraction(Y, D)] is (host, mobile)[k].vertices[v]
                vertex_entries += 1
    assert len(scans) == len(mobiles)
    assert vertex_entries


def test_vertex_keys_are_built_at_a_meeting_on_a_vertex():
    def built(*cs):
        return ["_keys" in c.__dict__ for c in cs]

    # crossings inside items on both curves: no keys
    a, b = tropical_line(), vertical_line((1, 5))
    assert entries(stable_intersection(a, b)) == {((1, 1), 1)}
    assert is_transversal(a, b)
    assert built(a, b) == [False, False]
    # the second curve's vertex inside the first's ray: its keys only
    a, b = tropical_line(), vertical_line((1, 1))
    assert entries(stable_intersection(a, b)) == {((1, 1), 1)}
    assert built(a, b) == [False, True]
    # the first curve's vertex at the end of a shared ray: its keys only
    a, b = tropical_line(), vertical_line((0, 3))
    assert entries(stable_intersection(a, b)) == {((0, 0), 1)}
    assert built(a, b) == [True, False]
    assert a._keys == ((0, 0, 1),)


def test_has_shared_segment_keeps_no_record():
    a, b = tropical_line(), anti_line()
    assert not has_shared_segment(a, b)
    assert intersect._last[0] is not a
