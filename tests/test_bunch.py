import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures_lib import (
    anti_line,
    concave_lift,
    coordinate_cross,
    diagonal_cross,
    figure_eight,
    reference_bouquet_structure,
    sparse_lift,
    tail_cycle_curve,
    theta_curve,
    tied_lift,
    triangle_cycle_host,
    tropical_line,
    two_triangles_bridged,
    unit_triangle_cycle,
    vertical_line,
    wedge_l,
    wedge_m,
    weight_two_edge_curve,
)
from tropcurve.bunch import (
    BouquetStructure,
    DisconnectedCurveError,
    NotABouquet,
    bouquet_structure,
    bridges,
    bunch,
    classify_edges,
)
from tropcurve.curve import Edge, StructureError, TropicalCurve, curve, translate, validate
from tropcurve.geom import pt
from tropcurve.polyfront import corner_locus, polynomial


def test_classify_line():
    line = tropical_line()
    assert classify_edges(line) == ()


def test_classify_triangle_cycle():
    c = triangle_cycle_host()
    assert classify_edges(c) == ("cycle", "cycle", "cycle")


def test_classify_tail():
    c = tail_cycle_curve()
    assert classify_edges(c) == ("cycle", "cycle", "cycle", "tentacle", "tentacle")


def test_classify_bridge_between_triangles():
    c = two_triangles_bridged()
    assert classify_edges(c) == (
        "cycle", "cycle", "cycle", "cycle", "cycle", "cycle", "tentacle",
    )


def test_classification_translation_invariant():
    c = tail_cycle_curve()
    assert classify_edges(translate(c, pt("3/7", "-1/2"))) == classify_edges(c)


def test_classify_disconnected_errors():
    two_lines = curve(
        [(0, 0), (5, 5)],
        rays=[
            (0, (0, 1)), (0, (0, -1)),
            (1, (0, 1)), (1, (0, -1)),
        ],
    )
    empty = curve([])
    for c, reason in ((two_lines, "curve is disconnected"), (empty, "empty curve")):
        assert validate(c).passed
        with pytest.raises(DisconnectedCurveError, match=reason):
            classify_edges(c)


def test_bunch_line_is_point():
    b = bunch(tropical_line())
    assert len(b.nodes) == 1
    assert not b.arcs
    assert b.genus() == 0


def test_bunch_cycle_is_circle():
    b = bunch(triangle_cycle_host())
    assert b.genus() == 1
    assert len(b.arcs) == 3


def test_bunch_figure_eight():
    b = bunch(figure_eight())
    assert b.genus() == 2
    s = bouquet_structure(figure_eight(), b)
    assert isinstance(s, BouquetStructure)
    assert s.genus == 2
    # both cycles attach at the shared vertex (0,0), vertex index 0
    assert {c.base_vertex for c in s.cycles} == {0}


def test_bunch_bridged_triangles_distinct_attachments():
    c = two_triangles_bridged()
    s = bouquet_structure(c)
    assert isinstance(s, BouquetStructure)
    assert s.genus == 2
    bases = sorted(cc.base_vertex for cc in s.cycles)
    assert bases == [0, 3]  # one attachment per cycle inside the center blob


def test_bouquet_genus_one():
    s = bouquet_structure(triangle_cycle_host())
    assert isinstance(s, BouquetStructure)
    assert s.genus == 1
    (cyc,) = s.cycles
    assert len(cyc.edge_indices) == 3
    assert cyc.vertex_path[0] == cyc.vertex_path[-1] == cyc.base_vertex


def test_bouquet_point():
    s = bouquet_structure(tropical_line())
    assert isinstance(s, BouquetStructure)
    assert s.genus == 0 and s.cycles == ()


def test_theta_is_not_a_bouquet():
    s = bouquet_structure(theta_curve())
    assert isinstance(s, NotABouquet)
    assert "degree >= 3" in s.reason


def test_betti_number_consistency():
    for c in [
        triangle_cycle_host(),
        figure_eight(),
        two_triangles_bridged(),
        tail_cycle_curve(),
        theta_curve(),
        weight_two_edge_curve(),
    ]:
        b = bunch(c)
        # cycle-space rank of the original finite-edge graph
        n = len(c.vertices)
        rank = len(c.edges) - n + 1  # all fixtures here are connected
        assert b.genus() == rank


def test_classification_invariant_under_subdivision():
    c = triangle_cycle_host()
    # subdivide edge 0 with its midpoint (2-valent collinear vertex)
    mid = (c.vertices[0] + c.vertices[1]) * pt("1/2", 0).x
    from tropcurve.curve import Edge, TropicalCurve

    vs = c.vertices + (mid,)
    k = len(c.vertices)
    es = (Edge(0, k, 1), Edge(k, 1, 1)) + c.edges[1:]
    sub = TropicalCurve(vs, es, c.rays)
    assert validate(sub).passed
    assert set(classify_edges(sub)) == {"cycle"}
    assert bunch(sub).genus() == 1


# ---------------------------------------------------------------------------
# bridges against a brute-force reference
# ---------------------------------------------------------------------------


def _connected(n: int, ends) -> bool:
    """Whether n vertices are connected by the given (a, b) edges."""
    if n == 0:
        return False
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for a, b in ends:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return len(seen) == n


def reference_bridges(c: TropicalCurve) -> set[int]:
    """Drop each edge in turn and test whether the rest stays connected."""
    ends = [(e.a, e.b) for e in c.edges]
    return {
        i for i in range(len(ends))
        if not _connected(len(c.vertices), ends[:i] + ends[i + 1:])
    }


FIXTURES = [
    tropical_line, anti_line, coordinate_cross, diagonal_cross, vertical_line,
    wedge_l, wedge_m, triangle_cycle_host, unit_triangle_cycle, figure_eight,
    two_triangles_bridged, theta_curve, weight_two_edge_curve, tail_cycle_curve,
]


@pytest.mark.parametrize("make", FIXTURES, ids=lambda f: f.__name__)
def test_bridges_match_reference_on_fixtures(make):
    c = make()
    assert bridges(c) == reference_bridges(c)


@pytest.mark.parametrize("lift", [concave_lift, sparse_lift, tied_lift],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("d", range(2, 9))
def test_bridges_match_reference_on_corner_loci(lift, d):
    rng = random.Random(1000 * d + 7)
    for _ in range(2):
        c = corner_locus(polynomial(lift(rng, d)))
        assert bridges(c) == reference_bridges(c)


@st.composite
def multigraphs(draw):
    """Abstract finite-edge multigraphs: a random core with some edges
    doubled, pendant trees hung on it, and sometimes a second piece."""
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda ab: ab[0] != ab[1]
    )
    ends = draw(st.lists(pairs, max_size=10))
    ends += draw(st.lists(st.sampled_from(ends), max_size=3)) if ends else []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        ends.append((draw(st.integers(0, n - 1)), n))
        n += 1
    if draw(st.booleans()):
        extra = draw(st.integers(min_value=1, max_value=3))
        ends += [(n + k, n + k + 1) for k in range(extra - 1)]
        n += extra
    order = draw(st.permutations(range(len(ends))))
    es = tuple(Edge(*ends[k]) for k in order)
    return TropicalCurve(tuple(pt(v, v * v) for v in range(n)), es, ())


@settings(max_examples=150, deadline=None)
@given(multigraphs())
def test_bridges_match_reference_on_multigraphs(c):
    ends = [(e.a, e.b) for e in c.edges]
    if not _connected(len(c.vertices), ends):
        with pytest.raises(DisconnectedCurveError, match="curve is disconnected"):
            bridges(c)
        return
    found = bridges(c)
    assert found == reference_bridges(c)
    for i, (a, b) in enumerate(ends):
        if ends.count((a, b)) + ends.count((b, a)) > 1:
            assert i not in found  # a doubled edge is never a bridge


def test_bridges_refusals():
    with pytest.raises(DisconnectedCurveError, match="empty curve"):
        bridges(curve([]))
    apart = TropicalCurve((pt(0, 0), pt(1, 0), pt(5, 5)), (Edge(0, 1),), ())
    with pytest.raises(DisconnectedCurveError, match="curve is disconnected"):
        bridges(apart)


# ---------------------------------------------------------------------------
# bouquet_structure against the reference that checks every refusal
# ---------------------------------------------------------------------------


def _same_bouquet_or_refusal(c: TropicalCurve) -> None:
    """bouquet_structure equals the reference, NotABouquet reason included,
    or both refuse the curve with the same message.  A self-loop edge has no
    length, so the item gate refuses it before either runs."""
    loops = [i for i, e in enumerate(c.edges) if e.a == e.b]
    if loops:
        with pytest.raises(StructureError, match=f"^edge {loops[0]} has identical endpoints$"):
            bouquet_structure(c)
        return
    try:
        want = reference_bouquet_structure(c)
    except DisconnectedCurveError as err:
        with pytest.raises(DisconnectedCurveError) as got:
            bouquet_structure(c)
        assert str(got.value) == str(err)
        return
    assert bouquet_structure(c) == want


@pytest.mark.parametrize("make", FIXTURES, ids=lambda f: f.__name__)
def test_bouquet_structure_matches_reference_on_fixtures(make):
    _same_bouquet_or_refusal(make())


@pytest.mark.parametrize("lift", [concave_lift, sparse_lift, tied_lift],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("d", range(2, 7))
def test_bouquet_structure_matches_reference_on_corner_loci(lift, d):
    rng = random.Random(1000 * d + 11)
    for _ in range(3):
        _same_bouquet_or_refusal(corner_locus(polynomial(lift(rng, d))))


@st.composite
def looped_multigraphs(draw):
    """multigraphs() plus edges whose two ends are the same vertex and
    cycles of length 1-4 hung on the rest by a bridge, with the vertex
    positions shuffled so that any vertex may be the lex-min one."""
    c = draw(multigraphs())
    n = len(c.vertices)
    ends = [(e.a, e.b) for e in c.edges]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        v = draw(st.integers(0, n - 1))
        ends.append((v, v))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        k = draw(st.integers(min_value=1, max_value=4))
        ends.append((draw(st.integers(0, n - 1)), n))
        ends += [(n + i, n + (i + 1) % k) for i in range(k)]
        n += k
    order = draw(st.permutations(range(len(ends))))
    pos = draw(st.permutations(range(n)))
    es = tuple(Edge(*ends[k]) for k in order)
    return TropicalCurve(tuple(pt(pos[v], pos[v] ** 2) for v in range(n)), es, ())


@settings(max_examples=300, deadline=None)
@given(looped_multigraphs())
def test_bouquet_structure_matches_reference_on_multigraphs(c):
    _same_bouquet_or_refusal(c)


def test_bouquet_refusal_is_only_degree_three():
    s = bouquet_structure(theta_curve())
    assert s == NotABouquet("2 quotient nodes have degree >= 3")
    # three parallel edges: two nodes of degree 3
    triple = TropicalCurve((pt(0, 0), pt(1, 1)), (Edge(0, 1),) * 3, ())
    assert bouquet_structure(triple) == NotABouquet(
        "2 quotient nodes have degree >= 3"
    )
    # a self-loop edge at each end of a bridge: a self-loop has no length,
    # so the item gate refuses the curve before the bunch is built
    dumbbell = TropicalCurve(
        (pt(0, 0), pt(1, 1)), (Edge(0, 0), Edge(0, 1), Edge(1, 1)), ()
    )
    with pytest.raises(StructureError, match="^edge 0 has identical endpoints$"):
        bouquet_structure(dumbbell)
    # with no arcs the one node is the genus-0 bouquet
    assert bouquet_structure(tropical_line()) == BouquetStructure(0, 0, ())
