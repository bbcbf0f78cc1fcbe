"""The item view against a reference built from raw Edge/Ray records."""

from fractions import Fraction

import pytest

from fixtures_lib import (
    coordinate_cross,
    diagonal_cross,
    figure_eight,
    item_ends,
    reference_outgoing,
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
    Edge,
    Ray,
    StructureError,
    TropicalCurve,
    canonical_form,
    curve,
    items,
    local_star,
    normalize,
    validate,
)
from tropcurve.geom import IntVector, primitive_direction
from tropcurve.intersect import stable_intersection
from tropcurve.newton import newton_complex, newton_polygon
from tropcurve.polyfront import corner_locus, parse

# Every fixture but vertical_line: a 2-valent vertex with opposite rays is
# never fused, so where a line's one vertex sits is not canonical, and
# splitting one of its rays moves it.
SPLITTABLE = [
    tropical_line(),
    coordinate_cross(),
    diagonal_cross(),
    wedge_l(),
    wedge_m(),
    triangle_cycle_host(),
    unit_triangle_cycle(),
    figure_eight(),
    two_triangles_bridged(),
    theta_curve(),
    weight_two_edge_curve(),
    tail_cycle_curve(),
]

CURVES = SPLITTABLE + [
    vertical_line(),
    corner_locus(parse("0 + x + y + (-1)*x*y")),
    corner_locus(parse("0 + 2*x + 2*y + 3*x*y + x^2 + y^2")),
    corner_locus(parse("0 + x^2 + y^2")),
    corner_locus(parse("0 + x^3 + y^3 + 1*x*y")),
]


def reference_points(c: TropicalCurve):
    """(point, reference star) at every vertex and inside every edge and ray."""
    for v, p in enumerate(c.vertices):
        yield p, reference_outgoing(c, v)
    for e in c.edges:
        a, b = c.vertices[e.a], c.vertices[e.b]
        u, _ = primitive_direction(b - a)
        yield a + (b - a) * Fraction(1, 3), [u * e.weight, -u * e.weight]
    for r in c.rays:
        p = c.vertices[r.vertex] + r.direction.to_point() * Fraction(5, 2)
        yield p, [r.direction * r.weight, -r.direction * r.weight]


@pytest.mark.parametrize("c", CURVES)
def test_items_built_once(c):
    assert items(c) is items(c)
    assert len(items(c)) == len(c.edges) + len(c.rays)


@pytest.mark.parametrize("c", CURVES)
def test_items_record_their_ends(c):
    its = items(c)
    for it, e in zip(its, c.edges):
        assert (it.tail, it.head, it.weight) == (e.a, e.b, e.weight)
        assert item_ends(it) == (c.vertices[e.a], c.vertices[e.b])
        u, length = primitive_direction(c.vertices[e.b] - c.vertices[e.a])
        assert (it.prim, it.length, it.kind) == (u, length, "edge")
    for it, r in zip(its[len(c.edges):], c.rays):
        assert (it.tail, it.head, it.length) == (r.vertex, None, None)
        assert item_ends(it) == (c.vertices[r.vertex],)
        assert (it.prim, it.weight, it.kind) == (r.direction, r.weight, "ray")


@pytest.mark.parametrize("c", CURVES)
def test_local_star_matches_reference(c):
    for p, ref in reference_points(c):
        assert local_star(c, p) == ref, p


@pytest.mark.parametrize("c", CURVES)
def test_residuals_match_reference(c):
    expected = []
    for v in range(len(c.vertices)):
        total = IntVector(0, 0)
        for w in reference_outgoing(c, v):
            total = total + w
        expected.append(total)
    assert validate(c).residuals == tuple(expected)


def split_edge(c: TropicalCurve, i: int) -> TropicalCurve:
    """Subdivide edge i at a third of its length with a 2-valent vertex."""
    e = c.edges[i]
    a, b = c.vertices[e.a], c.vertices[e.b]
    m = len(c.vertices)
    edges = c.edges[:i] + c.edges[i + 1:] + (
        Edge(e.a, m, e.weight), Edge(m, e.b, e.weight)
    )
    return TropicalCurve(c.vertices + (a + (b - a) * Fraction(1, 3),), edges, c.rays)


def split_ray(c: TropicalCurve, i: int) -> TropicalCurve:
    """Move ray i's start out along it, joined back by a new edge."""
    r = c.rays[i]
    m = len(c.vertices)
    p = c.vertices[r.vertex] + r.direction.to_point() * Fraction(5, 2)
    rays = c.rays[:i] + c.rays[i + 1:] + (Ray(m, r.direction, r.weight),)
    edges = c.edges + (Edge(r.vertex, m, r.weight),)
    return TropicalCurve(c.vertices + (p,), edges, rays)


@pytest.mark.parametrize("c", SPLITTABLE)
def test_normalize_undoes_splits(c):
    target = canonical_form(normalize(c))
    splits = [split_edge(c, i) for i in range(len(c.edges))]
    splits += [split_ray(c, i) for i in range(len(c.rays))]
    for s in splits:
        assert len(s.vertices) == len(c.vertices) + 1
        assert canonical_form(normalize(s)) == target


@pytest.mark.parametrize(
    "c",
    [
        # edge + edge through (1, 0) with weights 1 and 2
        curve([(0, 0), (1, 0), (3, 0)], edges=[(0, 1, 1), (1, 2, 2)]),
        # edge + ray through (1, 0) with weights 2 and 1
        curve([(0, 0), (1, 0)], edges=[(0, 1, 2)], rays=[(1, (1, 0), 1)]),
    ],
)
def test_normalize_keeps_unequal_weights(c):
    assert canonical_form(normalize(c)) == canonical_form(c)


# An edge whose head is past the last vertex, and one whose head is -1,
# which Python indexing would read as the last vertex.
OUT_OF_RANGE = [
    curve([(0, 0)], edges=[(0, 5)], rays=[(0, (1, 0)), (0, (-1, 0))]),
    curve([(0, 0), (1, 0)], edges=[(0, -1)], rays=[(0, (-1, 0)), (1, (1, 0))]),
]


@pytest.mark.parametrize("c", OUT_OF_RANGE)
@pytest.mark.parametrize(
    "use",
    [
        newton_complex,
        newton_polygon,
        lambda c: stable_intersection(c, tropical_line()),
        lambda c: stable_intersection(tropical_line(), c),
    ],
    ids=["newton_complex", "newton_polygon", "stable_intersection", "stable_intersection_second"],
)
def test_out_of_range_vertex_refused(c, use):
    with pytest.raises(StructureError, match="^edge 0 references vertex out of range$"):
        use(c)


@pytest.mark.parametrize("vertex", [1, -1])
def test_ray_out_of_range_refused(vertex):
    c = curve([(0, 0)], rays=[(0, (1, 0)), (vertex, (-1, 0))])
    with pytest.raises(StructureError, match="^ray 1 references vertex out of range$"):
        items(c)
    with pytest.raises(StructureError, match="^ray 1 references vertex out of range$"):
        validate(c)
