"""Shared hand-built curves used across the test suite."""

from fractions import Fraction

from tropcurve.curve import TropicalCurve, curve
from tropcurve.geom import IntVector, primitive_direction


def reference_outgoing(c: TropicalCurve, vertex: int) -> list[IntVector]:
    """Weighted primitive vectors leaving a vertex, from raw edges and rays."""
    out = []
    for e in c.edges:
        if e.a == vertex or e.b == vertex:
            other = e.b if e.a == vertex else e.a
            u, _ = primitive_direction(c.vertices[other] - c.vertices[vertex])
            out.append(u * e.weight)
    for r in c.rays:
        if r.vertex == vertex:
            out.append(r.direction * r.weight)
    return out


def tropical_line(at=(0, 0)) -> TropicalCurve:
    """One vertex, rays west, south and northeast."""
    return curve([at], rays=[(0, (-1, 0)), (0, (0, -1)), (0, (1, 1))])


def anti_line(at=(0, 0)) -> TropicalCurve:
    """Mirror of the tropical line: rays east, north and southwest."""
    return curve([at], rays=[(0, (1, 0)), (0, (0, 1)), (0, (-1, -1))])


def coordinate_cross(at=(0, 0)) -> TropicalCurve:
    return curve(
        [at],
        rays=[(0, (1, 0)), (0, (-1, 0)), (0, (0, 1)), (0, (0, -1))],
    )


def diagonal_cross(at=(0, 0)) -> TropicalCurve:
    return curve(
        [at],
        rays=[(0, (1, 1)), (0, (-1, -1)), (0, (1, -1)), (0, (-1, 1))],
    )


def vertical_line(at=(0, 0)) -> TropicalCurve:
    return curve([at], rays=[(0, (0, 1)), (0, (0, -1))])


def wedge_l(at=(0, 0)) -> TropicalCurve:
    """Vertex with rays south, east and up-left; hull of exponents (0,0),(1,0),(1,1)."""
    return curve([at], rays=[(0, (0, -1)), (0, (1, 0)), (0, (-1, 1))])


def wedge_m(at=(0, 0)) -> TropicalCurve:
    """Vertex with rays down-right, north and west; hull (0,0),(0,1),(1,1)."""
    return curve([at], rays=[(0, (1, -1)), (0, (0, 1)), (0, (-1, 0))])


def triangle_cycle_host() -> TropicalCurve:
    """Genus-1 curve: triangle cycle with one ray per vertex.

    Vertices (5/2,-1), (5/2,-1/2), (2,-1/2); rays (1,-2), (1,1), (-2,1).
    """
    return curve(
        [("5/2", -1), ("5/2", "-1/2"), (2, "-1/2")],
        edges=[(0, 1), (1, 2), (2, 0)],
        rays=[(0, (1, -2)), (1, (1, 1)), (2, (-2, 1))],
    )


def unit_triangle_cycle() -> TropicalCurve:
    """Genus-1 curve whose cycle is the unit triangle (total lattice length 3)."""
    return curve(
        [(0, 0), (1, 0), (0, 1)],
        edges=[(0, 1), (1, 2), (2, 0)],
        rays=[(0, (-1, -1)), (1, (2, -1)), (2, (-1, 2))],
    )


def figure_eight() -> TropicalCurve:
    """Two triangle cycles sharing one vertex: a genus-2 bouquet, no tentacles."""
    return curve(
        [(0, 0), (1, 0), (1, 1), (-1, 0), (-1, -1)],
        edges=[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)],
        rays=[
            (1, (1, -1)), (2, (1, 2)),
            (3, (-1, 1)), (4, (-1, -2)),
        ],
    )


def two_triangles_bridged() -> TropicalCurve:
    """Two triangle cycles joined by a bridge: genus-2 bouquet whose center
    blob has a distinct attachment vertex per cycle."""
    return curve(
        [(0, 0), (1, 0), (1, 1), (-2, -1), (-3, -1), (-3, -2)],
        edges=[
            (0, 1), (1, 2), (2, 0),
            (3, 4), (4, 5), (5, 3),
            (0, 3),
        ],
        rays=[
            (1, (1, -1)), (2, (1, 2)),
            (4, (-1, 1)), (5, (-1, -2)),
        ],
    )


def theta_curve() -> TropicalCurve:
    """Reduced curve whose bunch is a theta graph (not a bouquet)."""
    return curve(
        [(0, 0), (3, 0), (1, 1), (2, 1), (1, -1), (2, -1)],
        edges=[
            (0, 1),
            (0, 2), (2, 3), (3, 1),
            (0, 4), (4, 5), (5, 1),
        ],
        rays=[
            (0, (-1, 0)), (0, (-1, 1)), (0, (-1, -1)),
            (1, (1, 0)), (1, (1, 1)), (1, (1, -1)),
            (2, (0, 1)), (3, (0, 1)),
            (4, (0, -1)), (5, (0, -1)),
        ],
    )


def weight_two_edge_curve() -> TropicalCurve:
    """Balanced but non-reduced: a single weight-2 finite edge."""
    return curve(
        [(0, 0), (1, 0)],
        edges=[(0, 1, 2)],
        rays=[
            (0, (-1, 1)), (0, (-1, -1)),
            (1, (1, 1)), (1, (1, -1)),
        ],
    )


def tail_cycle_curve() -> TropicalCurve:
    """Triangle cycle with a two-edge tail: tail edges are tentacles.

    Triangle (0,0),(1,0),(0,1); tail (0,1)->(0,2)->(0,3) ending in two rays.
    The tail's middle vertex is 2-valent collinear (a subdivided tentacle).
    """
    return curve(
        [(0, 0), (1, 0), (0, 1), (0, 2), (0, 3)],
        edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)],
        rays=[
            (0, (-1, -1)),
            (1, (2, -1)),
            (2, (-1, 1)),
            (4, (-1, 1)), (4, (1, 0)),
        ],
    )


def square_loop(cx=0, cy=0, r=1):
    """Axis-aligned square loop around (cx, cy)."""
    from tropcurve.geom import pt

    return (
        pt(cx - r, cy - r),
        pt(cx + r, cy - r),
        pt(cx + r, cy + r),
        pt(cx - r, cy + r),
    )


def rect_loop(cx, cy, rx, ry):
    """Axis-aligned rectangle loop; unequal radii dodge diagonal rays."""
    from tropcurve.geom import pt

    return (
        pt(cx - rx, cy - ry),
        pt(cx + rx, cy - ry),
        pt(cx + rx, cy + ry),
        pt(cx - rx, cy + ry),
    )
