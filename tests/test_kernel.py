"""The integer kernel against the references in fixtures_lib.

`fixtures_lib.meetings` (curve._scan's reports as Points), `item_intersection`, `locate`, `_violations`,
`generic_direction` and `perturbation_oracle` decide every predicate on the
curves' integer grids.  Here they must give exactly what the rational
predicates give: the same pairs in the same order, the same Points (as
Fractions), the same refusal messages.  The box-pruned sweep of `meetings`
and of the oracle's crossing loop must give what the scans of every pair
give, in their order.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures_lib import (
    _point_at,
    _vec,
    all_pairs_crossings,
    all_pairs_meetings,
    all_pairs_pins,
    concave_lift,
    coordinate_cross,
    diagonal_cross,
    item_ends,
    item_intersection,
    meetings,
    reference_generic_direction,
    reference_locate,
    reference_meetings,
    reference_perturbation_oracle,
    reference_violations,
    slid_pool,
    sparse_lift,
    theta_curve,
    tied_lift,
    triangle_cycle_host,
    tropical_line,
    two_triangles_bridged,
    vertical_line,
    weight_two_edge_curve,
)
from tropcurve.curve import (
    Shared,
    TropicalCurve,
    _boxes,
    curve,
    items,
    locate,
    translate,
)
from tropcurve.geom import GeometryError, Point, pt
from tropcurve.intersect import (
    Divisor,
    _pins,
    _violations,
    generic_direction,
    perturbation_oracle,
    stable_intersection,
)
from tropcurve.newton import star_multiplicity
from tropcurve.polyfront import corner_locus, polynomial

DIRECTIONS = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (1, -1),
              (-1, 1), (1, 2), (2, 1), (-2, -1), (1, -2), (3, 1), (-1, 3)]

# A 500-bit scale and offset, the size the walk's coordinates reach.
BIG = Fraction(3 ** 320 + 1, 5 ** 215 + 2)
BIG_SHIFT = pt(Fraction(7 ** 180, 11 ** 140 + 3), Fraction(-(2 ** 512) - 1, 13 ** 135))


def bits(c: TropicalCurve) -> int:
    return max(
        max(q.numerator.bit_length(), q.denominator.bit_length())
        for v in c.vertices for q in (v.x, v.y)
    )


@st.composite
def grid_curves(draw, big=None):
    """Unbalanced curve data on a small grid: edges and rays with shared
    vertices, collinear runs and ends touching other items."""
    # few grids, so that two drawn curves often share points and lines
    den = draw(st.sampled_from([1, 2, 3, 7]))
    off = pt(Fraction(draw(st.integers(-1, 1)), den), Fraction(draw(st.integers(-1, 1)), den))
    cells = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          min_size=2, max_size=6, unique=True))
    vs = [pt(Fraction(i, den), Fraction(j, den)) + off for i, j in cells]
    n = len(vs)
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 2))
        .filter(lambda e: e[0] != e[1]), max_size=6))
    rays = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.sampled_from(DIRECTIONS), st.integers(1, 2)),
        max_size=4))
    if big is None:
        big = draw(st.booleans())
    if big:
        vs = [v * BIG + BIG_SHIFT for v in vs]
    return curve([(v.x, v.y) for v in vs], edges, rays)


def assert_fraction_points(seq):
    for _, _, p in seq:
        for q in p.ends if isinstance(p, Shared) else (p,):
            assert type(q.x) is Fraction and type(q.y) is Fraction


@settings(max_examples=40, deadline=None)
@given(grid_curves(), grid_curves())
def test_meetings_match_fraction_reference(c1, c2):
    its1, its2 = items(c1), items(c2)
    want = reference_meetings(its1, its2)
    got = list(meetings(its1, its2))
    assert got == want
    assert_fraction_points(got)
    one = list(meetings(its1 + its2))
    assert one == reference_meetings(its1 + its2)
    assert_fraction_points(one)
    met = {(a, b): p for a, b, p in want}
    for a in its1:
        for b in its2:
            assert item_intersection(a, b) == met.get((a, b))


@settings(max_examples=10, deadline=None)
@given(grid_curves(big=True), grid_curves(big=True))
def test_meetings_match_reference_at_500_bits(c1, c2):
    assert bits(c1) > 500
    assert list(meetings(items(c1), items(c2))) == reference_meetings(items(c1), items(c2))


def test_parallel_cases_match_reference():
    # collinear runs, touching ends, rays both ways, a shared vertex
    c = curve(
        [(0, 0), (1, 0), (2, 0), ("7/2", 0), ("1/3", "1/3"), (5, 0)],
        edges=[(0, 1), (1, 2), (0, 2), (2, 3), (4, 1), (3, 5)],
        rays=[(5, (1, 0)), (0, (-1, 0)), (1, (1, 0)), (3, (-1, 0)), (4, (1, 1))],
    )
    its = items(c)
    got = list(meetings(its))
    assert got == reference_meetings(its)
    assert any(isinstance(p, Shared) for _, _, p in got)
    assert any(not isinstance(p, Shared) for _, _, p in got)


@settings(max_examples=30, deadline=None)
@given(grid_curves(), grid_curves(), st.sampled_from(DIRECTIONS),
       st.integers(1, 5))
def test_oracle_and_violations_match_eps_reference(c1, c2, d, k):
    t = pt(Fraction(d[0], k), Fraction(d[1], k + 1))
    assert _violations(c1, c2, t) == reference_violations(c1, c2, t)
    try:
        want = reference_perturbation_oracle(c1, c2, t)
    except GeometryError as err:
        try:
            perturbation_oracle(c1, c2, t)
        except GeometryError as got:
            assert type(got) is type(err) and str(got) == str(err)
        else:
            raise AssertionError("the integer oracle accepted a refused direction")
    else:
        assert perturbation_oracle(c1, c2, t) == want


@settings(max_examples=25, deadline=None)
@given(grid_curves(), grid_curves())
def test_generic_direction_matches_per_slope_loop(c1, c2):
    for a, b in ((c1, c2), (c1, c1)):
        assert generic_direction(a, b) == reference_generic_direction(a, b)


def test_generic_direction_skips_every_pinned_slope():
    # each ray of slope k is collinear with its copy in the self-pair
    fan = curve([(0, 0)], rays=[(0, (1, k)) for k in range(1, 7)]
                + [(0, (-1, -k)) for k in range(1, 7)])
    assert generic_direction(fan, fan) == reference_generic_direction(fan, fan) == pt(1, 7)


@settings(max_examples=25, deadline=None)
@given(grid_curves(), st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 6))
def test_locate_matches_linear_scan(c, i, j, q):
    its = items(c)
    probes = [pt(Fraction(i, q), Fraction(j, q)), *c.vertices]
    probes += [_point_at(it, Fraction(1, q + 1)) for it in its]
    probes += [_point_at(it, q + 1) for it in its if not it.bounded]
    for p in probes:
        assert locate(c, p) == reference_locate(c, p)


# -- whole intersections over the fixtures and the benchmark's pool shapes --


def reference_stable_intersection(c1: TropicalCurve, c2: TropicalCurve, met) -> Divisor:
    """stable_intersection with every predicate in Fraction arithmetic, from
    the pairs of reference_meetings."""
    if any(isinstance(p, Shared) for _, _, p in met):
        return reference_perturbation_oracle(c1, c2, reference_generic_direction(c1, c2))
    through: dict[Point, tuple[list, list]] = {}
    for a, b, p in met:
        for it, seen in zip((a, b), through.setdefault(p, ([], []))):
            if it not in seen:
                seen.append(it)
    acc = {}
    for p, (its1, its2) in through.items():
        s1 = [w for it in its1 for w in _star(p, it)]
        s2 = [w for it in its2 for w in _star(p, it)]
        m = star_multiplicity(s1 + s2) - star_multiplicity(s1) - star_multiplicity(s2)
        if m:
            acc[p] = m // 2
    return Divisor.of(acc, c1)


def _star(p, it):
    w = it.prim * it.weight
    out = []
    if not it.bounded or p != item_ends(it)[0] + _vec(it):
        out.append(w)
    if p != item_ends(it)[0]:
        out.append(-w)
    return out


def _pool() -> list[TropicalCurve]:
    """Smooth corner loci of degrees 2 to 4, some slid along one of their own
    edges, as in the benchmark's intersect pool; then a translate at 500
    bits."""
    pool = slid_pool(random.Random(11), (2, 3, 4), (0, 1))
    pool.append(translate(pool[0], BIG_SHIFT))
    return pool


FIXTURES = [
    tropical_line(), coordinate_cross(), vertical_line(), triangle_cycle_host(),
    two_triangles_bridged(), weight_two_edge_curve(), diagonal_cross(("1/2", 0)),
    translate(theta_curve(), pt("1/3", "1/7")),
]


def test_fixture_pairs_match_reference():
    for c1 in FIXTURES:
        for c2 in FIXTURES:
            met = reference_meetings(items(c1), items(c2))
            assert list(meetings(items(c1), items(c2))) == met
            assert stable_intersection(c1, c2) == reference_stable_intersection(c1, c2, met)


def test_pool_pairs_match_reference():
    pool = _pool()
    assert bits(pool[-1]) > 500
    routes = set()
    for c1 in pool:
        for c2 in pool:
            met = reference_meetings(items(c1), items(c2))
            assert list(meetings(items(c1), items(c2))) == met
            routes.add(any(isinstance(p, Shared) for _, _, p in met))
            assert stable_intersection(c1, c2) == reference_stable_intersection(c1, c2, met)
    assert routes == {False, True}


# -- the box-pruned sweep against the scans of every pair --


def assert_sweep_matches(xs, ys=None):
    got = list(meetings(xs, ys))
    assert got == all_pairs_meetings(xs, ys)
    return got


def _loci() -> list[TropicalCurve]:
    """Seeded corner loci of degrees 2 to 8: generic, sparse (edges of
    weight above 1, cells that are not triangles) and tied (strips)."""
    rng = random.Random(12)
    return [
        corner_locus(polynomial(lift(rng, d)))
        for d in range(2, 9)
        for lift in (concave_lift, sparse_lift, tied_lift)
    ]


def test_sweep_matches_all_pairs_on_corner_loci():
    loci = _loci()
    for c, nxt in zip(loci, loci[1:] + loci[:1]):
        its = items(c)
        assert assert_sweep_matches(its)  # the vertices of a locus are meetings
        assert_sweep_matches(its, its)
        assert_sweep_matches(its, items(nxt))
        assert_sweep_matches(its + items(nxt))


def test_sweep_matches_all_pairs_on_slid_copies():
    pool = slid_pool(random.Random(5), (2, 3, 4, 5), (0, 1, 2, 3))
    overlaps = 0
    for c1 in pool:
        for c2 in pool:
            got = assert_sweep_matches(items(c1), items(c2))
            overlaps += any(isinstance(p, Shared) for _, _, p in got)
            assert_sweep_matches(items(c1) + items(c2))
    assert overlaps > len(pool)  # more than the self-pairs share segments


@st.composite
def parallel_ray_curves(draw):
    """Vertices on a small grid, each with up to three rays out of only
    three directions: many parallel rays, some on one line, and edges."""
    cells = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                          min_size=1, max_size=8, unique=True))
    n = len(cells)
    rays = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.sampled_from([(1, 0), (0, 1), (-1, -1)])),
        min_size=1, max_size=16))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
        max_size=4))
    return curve(cells, edges, rays)


@settings(max_examples=40, deadline=None)
@given(parallel_ray_curves(), parallel_ray_curves())
def test_sweep_matches_all_pairs_with_parallel_rays(c1, c2):
    assert_sweep_matches(items(c1))
    assert_sweep_matches(items(c1), items(c2))
    assert_sweep_matches(items(c1) + items(c2))


@settings(max_examples=10, deadline=None)
@given(grid_curves(big=True), grid_curves(big=True))
def test_sweep_matches_all_pairs_at_500_bits(c1, c2):
    assert bits(c1) > 500
    assert_sweep_matches(items(c1), items(c2))
    assert_sweep_matches(items(c1) + items(c2))


def test_sweep_of_empty_and_single_sequences():
    its = items(tropical_line())
    assert list(meetings(())) == list(meetings((), its)) == list(meetings(its, ())) == []
    assert list(meetings(its[:1])) == []
    assert list(meetings(its[:1], its[:1])) == all_pairs_meetings(its[:1], its[:1])


def test_boxes_are_ints_past_the_finite_extent():
    c = translate(triangle_cycle_host(), BIG_SHIFT)
    ix = c._index
    its = ix.views
    boxes = _boxes(ix, 1, ix.extent)
    assert all(type(x) is int for box in boxes for x in box)
    ends = []
    for it in its:
        ox, oy, vx, vy = it.lattice
        ends.append((ox, oy))
        if it.head is not None:
            ends.append((ox + vx, oy + vy))
    xs, ys = [x for x, _ in ends], [y for _, y in ends]
    for it, (x0, x1, y0, y1) in zip(its, boxes):
        ox, oy, vx, vy = it.lattice
        assert x0 <= ox <= x1 and y0 <= oy <= y1
        if it.head is None:
            # the open sides lie past every end, the closed ones at the origin
            assert (x1 > max(xs)) == (vx > 0) and (x0 < min(xs)) == (vx < 0)
            assert (y1 > max(ys)) == (vy > 0) and (y0 < min(ys)) == (vy < 0)


def test_pruned_crossings_match_all_pairs():
    pairs = [(a, b) for a in FIXTURES for b in FIXTURES]
    pool = _pool()
    pairs += [(a, b) for a in pool for b in pool]
    overlapping = 0
    for c1, c2 in pairs:
        if not any(isinstance(p, Shared) for _, _, p in meetings(items(c1), items(c2))):
            continue
        overlapping += 1
        t = generic_direction(c1, c2)
        assert perturbation_oracle(c1, c2, t) == all_pairs_crossings(c1, c2, t)
    assert overlapping > len(FIXTURES) + len(pool)


@settings(max_examples=40, deadline=None)
@given(grid_curves(), grid_curves())
def test_pin_lookups_match_all_pairs(c1, c2):
    # every item kept, so one vertex can pin items of several directions
    for a, b in ((c1, c2), (c1, c1)):
        assert list(_pins(a, b, lambda it: True)) == all_pairs_pins(a, b, lambda it: True)


def test_pin_lookups_keep_view_order_across_directions():
    # the vertex (0, 0) of the second curve lies on the lines of edges 0
    # and 2 (direction (1, 0)) and of edge 1 (direction (1, 1))
    c1 = curve([(-2, 0), (-1, 0), (-1, -1), (1, 1), (1, 0), (3, 0)],
               edges=[(0, 1), (2, 3), (4, 5)])
    c2 = curve([(0, 0)], rays=[(0, (0, 1)), (0, (0, -1))])
    pins = list(_pins(c1, c2, lambda it: True))
    assert [(it.index, q) for it, q, first in pins if first] == [
        (0, pt(0, 0)), (1, pt(0, 0)), (2, pt(0, 0))]
    assert pins == all_pairs_pins(c1, c2, lambda it: True)
