import pytest

from fixtures_lib import (
    figure_eight,
    tail_cycle_curve,
    theta_curve,
    triangle_cycle_host,
    tropical_line,
    two_triangles_bridged,
    weight_two_edge_curve,
)
from tropcurve.bunch import (
    BouquetStructure,
    DisconnectedCurveError,
    NotABouquet,
    bouquet_structure,
    bunch,
    classify_edges,
)
from tropcurve.curve import curve, translate, validate
from tropcurve.geom import pt


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
