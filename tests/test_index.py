"""The integer index of a curve and the pair scans that read it.

`TropicalCurve._index` holds the curve's own items, each its own integer
view, with each item's finite box, the curve's finite extent and the
positions of its rays, built once on first use.  `validate`, `_scan`, the
intersection record, `has_shared_segment` and the oracle's crossing test read
it; a pair scan raises a side only when its scale is below the pair's, as
copies of its items equal to them, and keeps that raise per factor, a
bounded number of factors per index.  Here the record route is checked
against the routes that read no record on pairs where both sides are
raised and on every ordered pair of the benchmark's intersect pools, the
sweep against a scan of all pairs, the index's items and their raised
copies against the curve's items, and the index is counted: once per
curve, and never by corner_locus.  `sigma`, which reads the record's
integer entries and builds no Point, is checked against `reference_sigma`
on odd translates raised on both sides, and the kept raises against their
bound, on a long walk too.
"""

import importlib
import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures_lib import (
    anti_line,
    benchmark_pool,
    concave_lift,
    coordinate_cross,
    figure_eight,
    meetings,
    poly_text,
    reference_is_transversal,
    reference_meetings,
    reference_sigma,
    reference_star_intersection,
    sigma_on_the_record,
    tail_cycle_curve,
    tropical_line,
    two_triangles_bridged,
    unit_triangle_cycle,
    wedge_l,
)
from tropcurve.curve import (
    Item,
    TropicalCurve,
    _boxes,
    _index_of,
    _meet,
    _point_on,
    _raise,
    _raised_by,
    _sweep,
    items,
    translate,
    validate,
)
from tropcurve.geom import pt
from tropcurve.intersect import has_shared_segment, is_transversal, stable_intersection
from tropcurve.jacobian import UnsupportedCurveError, cycle_system, sigma
from tropcurve.jsonio import curve_to_json
from tropcurve.newton import newton_complex, newton_polygon
from tropcurve.params import curve_from_params, params_from_curve, perturb
from tropcurve.polyfront import corner_locus, parse, polynomial

curve_mod = importlib.import_module("tropcurve.curve")
intersect_mod = importlib.import_module("tropcurve.intersect")

_systems: dict[int, object] = {}


def system_of(c: TropicalCurve):
    """The cycle system of c, or None where it has none; kept per curve."""
    if id(c) not in _systems:
        try:
            _systems[id(c)] = (c, cycle_system(c))
        except UnsupportedCurveError:
            _systems[id(c)] = (c, None)
    return _systems[id(c)][1]


def assert_record_routes(c1: TropicalCurve, c2: TropicalCurve) -> None:
    """The record's answers equal those of the routes that read none; sigma
    is compared where the first curve has a cycle system."""
    assert stable_intersection(c1, c2) == reference_star_intersection(c1, c2)
    assert is_transversal(c1, c2) == reference_is_transversal(c1, c2)
    system = system_of(c1)
    if system is not None:
        assert sigma(system, c2) == reference_sigma(system, c2)


def swept_pairs(x, y=None) -> set:
    """The pairs that _sweep hands its test, each accepted."""
    return {(a, b) for a, b, _ in _sweep(x, y, lambda a, b: True)}


def assert_candidates_cover(c1: TropicalCurve, c2: TropicalCurve) -> None:
    """Every pair that _meet finds meeting, in a scan of all pairs of items
    raised apart from the index, is tested by the sweep: of the pair scan,
    and of each curve's own scan.  Pairs are compared by value: a raised
    copy equals its item, and no two items of a curve are equal."""
    scale = c1._scale * c2._scale
    v1, v2 = ([_raise(it, scale // it.scale) for it in items(c)] for c in (c1, c2))
    met = {(a, b) for a, b in product(v1, v2) if _meet(a, b) is not None}
    got = swept_pairs(c1._index, c2._index)
    assert met <= got
    for c, its in ((c1, v1), (c2, v2)):
        met = {(a, b) for a, b in combinations(its, 2) if _meet(a, b) is not None}
        assert met <= swept_pairs(c._index)


# -- the sweep tests each box-overlapping pair once --


def overlapping_pairs(x, y=None) -> set:
    """The pairs of positions whose boxes overlap on the pair's grid, each
    ray's box fitted to the extent of all the items, by testing every pair:
    with one index (i, j), i < j; with two, (position in x, in y)."""
    if y is None:
        boxes = _boxes(x, 1, x.extent)
        pairs = combinations(range(len(boxes)), 2)
        b1 = b2 = boxes
    else:
        scale = lcm(x.scale, y.scale)
        fs = scale // x.scale, scale // y.scale
        extents = [[v * f for v in ix.extent] for ix, f in zip((x, y), fs) if ix.extent]
        extent = (
            min(e[0] for e in extents), max(e[1] for e in extents),
            min(e[2] for e in extents), max(e[3] for e in extents),
        )
        b1, b2 = (_boxes(ix, f, extent) for ix, f in zip((x, y), fs))
        pairs = product(range(len(b1)), range(len(b2)))
    return {
        (i, j) for i, j in pairs
        if b1[i][0] <= b2[j][1] and b2[j][0] <= b1[i][1]
        and b1[i][2] <= b2[j][3] and b2[j][2] <= b1[i][3]
    }


def sweep_calls(x, y=None) -> list:
    """The pairs of positions that _sweep hands its test, in call order."""
    if y is None:
        v1 = v2 = x.views
    else:
        scale = lcm(x.scale, y.scale)
        v1, v2 = (_raised_by(ix, scale // ix.scale)[0] for ix in (x, y))
    at1, at2 = ({id(it): k for k, it in enumerate(v)} for v in (v1, v2))
    calls = []
    assert _sweep(x, y, lambda a, b: calls.append((at1[id(a)], at2[id(b)]))) == []
    return calls


def degree_4_locus(den: int, linear) -> TropicalCurve:
    """A smooth degree-4 corner locus on the grid of den: the honeycomb lift
    over den plus a linear term."""
    return corner_locus(polynomial({
        (i, j): Fraction(-den * (i * i + i * j + j * j) + linear(i, j), den)
        for i in range(5) for j in range(5 - i)
    }))


def test_the_sweep_tests_each_overlapping_pair_once():
    halves = degree_4_locus(2, lambda i, j: i)
    thirds = degree_4_locus(3, lambda i, j: 2 * i - 3 * j)
    assert (halves._scale, thirds._scale) == (2, 3)
    other_halves = degree_4_locus(2, lambda i, j: j)
    assert other_halves._scale == 2
    cases = [
        (halves._index, None),  # one index
        (halves._index, other_halves._index),  # two of one scale
        (halves._index, thirds._index),  # raised on both sides, by 3 and by 2
        (thirds._index, halves._index),
    ]
    for x, y in cases:
        calls = sweep_calls(x, y)
        assert len(calls) == len(set(calls))
        assert set(calls) == overlapping_pairs(x, y)
        assert len(calls) < len(x.views) * len(x.views if y is None else y.views) / 2


def test_the_sweep_of_an_index_without_items_calls_no_test():
    def refuse(a, b):
        raise AssertionError("the test was called")

    empty = _index_of((), 1)
    full = tropical_line()._index
    for x, y in ((empty, None), (empty, empty), (empty, full), (full, empty)):
        assert _sweep(x, y, refuse) == []


# -- pairs whose scales force a raise of both sides --

POOL = benchmark_pool(11)
SCALE16 = [c for c in POOL if c._scale == 16]
SCALE64 = [c for c in POOL if c._scale == 64]
# curves on the integer grid: a translate has the shift's denominators as scale
INTEGRAL = [
    tropical_line(), anti_line(), coordinate_cross(), wedge_l(), unit_triangle_cycle(),
    figure_eight(), two_triangles_bridged(),
]

# a rational with denominator 3, 5 or 7
thirds_fifths_sevenths = st.tuples(
    st.sampled_from((3, 5, 7)), st.integers(-25, 25)
).filter(lambda dn: dn[1] % dn[0]).map(lambda dn: Fraction(dn[1], dn[0]))


@st.composite
def rescaled_pairs(draw):
    """A translate by a shift of denominators 3, 5 and 7 and a pool curve of
    scale 16 or 64 such that neither scale divides the other."""
    base = draw(st.sampled_from(INTEGRAL + SCALE16))
    other = draw(st.sampled_from(SCALE64 if base._scale == 16 else SCALE16 + SCALE64))
    shift = pt(draw(thirds_fifths_sevenths), draw(thirds_fifths_sevenths))
    return translate(base, shift), other


def test_the_pool_has_both_scales():
    assert SCALE16 and SCALE64
    assert all(c._scale == 1 for c in INTEGRAL)


@settings(max_examples=60, deadline=None)
@given(rescaled_pairs())
def test_pairs_raised_on_both_sides_match_references(pair):
    moved, pooled = pair
    assert moved._scale % pooled._scale and pooled._scale % moved._scale
    for c1, c2 in ((moved, pooled), (pooled, moved)):
        assert list(meetings(c1._index, c2._index)) == reference_meetings(items(c1), items(c2))
        assert_record_routes(c1, c2)
    assert_candidates_cover(moved, pooled)


# -- every ordered pair of the benchmark's intersect pools --


@pytest.mark.parametrize("seed", range(11, 21))
def test_benchmark_pool_pairs_match_references(seed):
    pool = benchmark_pool(seed)
    shared = 0
    for c1 in pool:
        for c2 in pool:
            assert_record_routes(c1, c2)
            assert_candidates_cover(c1, c2)
            shared += has_shared_segment(c1, c2)
    assert shared > len(pool)  # more than the self-pairs share segments


# -- when the index is built --


def _walk_start():
    rng = random.Random(4)
    host = corner_locus(polynomial(concave_lift(rng, 3)))
    mobile = params_from_curve(corner_locus(polynomial(concave_lift(rng, 3))))
    return host, cycle_system(host), mobile, rng


def test_a_walk_builds_the_host_index_once(monkeypatch):
    host, system, p, rng = _walk_start()
    assert "_index" not in vars(host)
    built = []
    real = curve_mod._index_of
    monkeypatch.setattr(curve_mod, "_index_of", lambda its, *a: built.append(its) or real(its, *a))
    sigma0 = sigma(system, curve_from_params(p))
    for _ in range(50):
        # the benchmark's walk op
        p = perturb(p, rng)
        c = curve_from_params(p)
        assert sigma(system, c) == sigma0
        is_transversal(host, c)
    assert sum(its is items(host) for its in built) == 1
    # every other index is a mobile curve's, each built once
    assert len({id(its) for its in built}) == len(built) > 50


def test_the_record_reads_the_index_validate_built(monkeypatch):
    # perturb hands on an unbuilt candidate: sigma builds its index once, the
    # record reads it, and validate reuses it
    host, system, p, rng = _walk_start()
    q = perturb(p, rng)
    assert q is not p
    c = curve_from_params(q)
    assert "_index" not in vars(c)
    built, scans = [], []
    real_index, real_scan = curve_mod._index_of, intersect_mod._scan
    monkeypatch.setattr(curve_mod, "_index_of", lambda its, *a: built.append(its) or real_index(its, *a))
    monkeypatch.setattr(intersect_mod, "_scan", lambda *a: scans.append(a) or real_scan(*a))
    sigma(system, c)
    ix = c._index
    assert is_transversal(host, c) == reference_is_transversal(host, c)
    assert len(scans) == 1
    assert scans[0][0] is host._index and scans[0][1] is ix
    assert validate(c).passed and c._index is ix
    assert sum(its is items(c) for its in built) == 1


def test_the_corner_op_builds_no_index(monkeypatch):
    def refuse(*args):
        raise AssertionError("an index was built")

    monkeypatch.setattr(curve_mod, "_index_of", refuse)
    rng = random.Random(7)
    c = corner_locus(polynomial(concave_lift(rng, 7)))
    assert len(c.vertices) == 49
    # the rest of the benchmark's corner op
    c2 = corner_locus(parse(poly_text(concave_lift(rng, 7))))
    curve_to_json(c2)
    newton_complex(c2)
    newton_polygon(c2)
    assert "_index" not in vars(c) and "_index" not in vars(c2)


# -- the index holds the curve's own items, and raises copies of them --


def test_an_index_holds_its_curves_own_items():
    rng = random.Random(13)
    loci = [corner_locus(polynomial(concave_lift(rng, d))) for d in (2, 3, 4, 5)]
    p = params_from_curve(loci[1])
    candidates = []
    for _ in range(20):
        p = perturb(p, rng)
        candidates.append(curve_from_params(p))
    fixtures = INTEGRAL + BOUQUETS + SCALE16 + SCALE64
    for c in loci + fixtures + candidates:
        views = c._index.views
        assert len(views) == len(c._items)
        assert all(views[k] is c._items[k] for k in range(len(views)))


@pytest.mark.parametrize("f", range(2, 8))
def test_raised_copies_are_items_equal_to_their_originals(f):
    c = translate(tail_cycle_curve(), pt(Fraction(1, 3), Fraction(-2, 5)))
    raised = _raised_by(c._index, f)[0]
    assert {it.kind for it in c._items} == {"edge", "ray"}
    assert len(raised) == len(c._items)
    for it, copy in zip(c._items, raised):
        assert type(copy) is Item and copy is not it and copy.scale == it.scale * f
        assert copy == it and it == copy and hash(copy) == hash(it)
        assert (copy.length, copy.kind) == (it.length, it.kind)
        # an edge's parameter is a fraction of its run; a ray's counts steps
        # of prim / scale, so a copy's steps are f times as many
        g = 1 if it.bounded else f
        for t, den in ((0, 1), (1, 3), (2, 7), (1, 1), (5, 2)):
            assert _point_on(copy, t * g, den) == _point_on(it, t, den)


# -- sigma on the record's integer entries, and the kept raises --

# bouquet hosts on the integer grid: an odd translate has an odd scale
BOUQUETS = [unit_triangle_cycle(), figure_eight(), two_triangles_bridged(), tail_cycle_curve()]
# a rational with denominator 4 or 8
quarters_eighths = st.tuples(
    st.sampled_from((4, 8)), st.integers(-40, 40)
).filter(lambda dn: dn[1] % 2).map(lambda dn: Fraction(dn[1], dn[0]))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(BOUQUETS),
    st.sampled_from(INTEGRAL + SCALE16 + SCALE64),
    st.tuples(thirds_fifths_sevenths, thirds_fifths_sevenths),
    st.tuples(quarters_eighths, quarters_eighths),
)
def test_sigma_on_odd_translates_raised_on_both_sides_matches_reference(base, other, s1, s2):
    host = translate(base, pt(*s1))
    mobile = other if other._scale > 1 else translate(other, pt(*s2))
    assert host._scale % 2 and mobile._scale % 2 == 0  # neither scale divides the other
    system = cycle_system(host)
    assert sigma_on_the_record(system, mobile) == reference_sigma(system, mobile)
    # each side is kept raised by the factor that brings it to the pair's scale
    assert list(host._index.raised) == [mobile._scale]
    assert next(reversed(mobile._index.raised)) == host._scale


def raises_of(monkeypatch, c: TropicalCurve) -> list[int]:
    """The scales to which c's index is raised from now on, in order."""
    built = []
    real = curve_mod._raised

    def raised(ix, scale):
        if ix is c._index:
            built.append(scale)
        return real(ix, scale)

    monkeypatch.setattr(curve_mod, "_raised", raised)
    return built


def test_raises_are_kept_per_factor_and_bounded(monkeypatch):
    host = translate(unit_triangle_cycle(), pt(Fraction(1, 3), Fraction(2, 5)))
    kept = host._index.raised
    built = raises_of(monkeypatch, host)
    factors = [2, 4, 2, 8, 16, 32, 64, 128, 256, 512, 1024, 2, 4]
    for k, f in enumerate(factors):
        mobile = translate(tropical_line(), pt(Fraction(1, f), k))
        assert mobile._scale == f
        is_transversal(host, mobile)
        assert len(kept) <= curve_mod.RAISED_KEPT and next(reversed(kept)) == f
        views, boxes = kept[f]
        assert [it.lattice[0] for it in views] == [it.lattice[0] * f for it in host._index.views]
        assert boxes == [tuple(x * f for x in box) for box in host._index.boxes]
    # the second 2 finds its raise kept; by the last 2 and 4, eight newer
    # factors have pushed theirs out
    assert built == [host._scale * f for f in factors[:2] + factors[3:]]


def test_a_long_walk_keeps_the_host_raises_bounded(monkeypatch):
    # the long-walk setup: concave_lift host and mobile from random.Random(7)
    rng = random.Random(7)
    host = corner_locus(polynomial(concave_lift(rng, 3)))
    system = cycle_system(host)
    p = params_from_curve(corner_locus(polynomial(concave_lift(rng, 3))))
    sigma0 = sigma(system, curve_from_params(p))
    kept = host._index.raised
    built = raises_of(monkeypatch, host)
    factors, seconds, raises = set(), [], []
    start = time.process_time()
    for step in range(1, 3001):
        p = perturb(p, rng)
        c = curve_from_params(p)
        assert sigma(system, c) == sigma0
        is_transversal(host, c)
        factors.add(lcm(host._scale, c._scale) // host._scale)
        assert len(kept) <= curve_mod.RAISED_KEPT
        if step % 500 == 0:
            seconds.append(time.process_time() - start)
            raises.append(len(built))
            assert reference_sigma(system, c) == sigma0
            built.clear()
            start = time.process_time()
    # each factor is raised once, however long the walk
    assert sum(raises) == len(factors)
    # the cost per 500 steps stays flat (loosely: CPU time of a shared machine)
    assert seconds[-1] < 3 * seconds[0]
