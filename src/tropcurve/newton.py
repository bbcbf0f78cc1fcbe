"""Duality for tropical curves: complement faces, dual lattice complex,
polygons, Minkowski sums, and vertex multiplicities.

The Newton polygon is read off the rays alone: each weighted ray direction
rotated +90 degrees is one side of the polygon, as each vector of a
vertex's star, so rotated, is one side of its dual cell.  The dual complex
is built from the complement faces on request; its hull is the same
polygon, which the tests check.

The dual complex assigns one lattice point per complement face.  Crossing an
edge of weight w from its left face to its right face (left/right relative to
the edge's primitive direction) moves the lattice point by w times the
direction rotated -90 degrees.  This chirality is fixed once and used
everywhere; it makes the 3-ray curve with rays west/south/northeast dual to
the standard unit triangle.

The face structure and the propagation run on plain ints: one angle key
per item end, read off the item's primitive direction with no gcd, parallel
rays ordered by their integer offset on the curve's grid, and dual lattice
points walked as (x, y) pairs; IntVectors are built only for the dual
vertices returned.  One monotone-chain hull ring on (x, y) pairs serves
every lattice polygon: convex_hull and the subdivision of polyfront take
the ring of their points, and the Newton polygon, dual cells and Minkowski
sums the ring of their sides' partial sums, the sides sorted by the same
angle key.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .geom import GeometryError, IntVector, Point, area2
from .curve import Item, TropicalCurve, _require_balanced, _residuals, items, local_star


class DualityError(GeometryError):
    """Inconsistent dual propagation: the input was not a balanced embedded curve."""


# ---------------------------------------------------------------------------
# Lattice polygons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticePolygon:
    """Convex lattice polygon; vertices counterclockwise, lex-min first.

    Degenerate cases: a single vertex (point) or two vertices (segment).
    """

    vertices: tuple[IntVector, ...]

    def area2(self) -> int:
        """Twice the enclosed area (shoelace)."""
        return area2(self.vertices)

    def area(self) -> Fraction:
        return Fraction(self.area2(), 2)

    def translated(self, t: IntVector) -> "LatticePolygon":
        return LatticePolygon(tuple(v + t for v in self.vertices))

    def normalized(self) -> "LatticePolygon":
        m = min(self.vertices, key=lambda v: (v.x, v.y))
        return self.translated(-m)

    def edge_vectors(self) -> list[IntVector]:
        vs = self.vertices
        if len(vs) <= 1:
            return []
        if len(vs) == 2:
            d = vs[1] - vs[0]
            return [d, -d]
        return [vs[(i + 1) % len(vs)] - vs[i] for i in range(len(vs))]


def _chain(seq: list[tuple]) -> list[tuple]:
    """One monotone chain: the points of seq that turn strictly left."""
    out: list[tuple] = []
    for p in seq:
        while len(out) >= 2 and (
            (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
            - (p[0] - out[-2][0]) * (out[-1][1] - out[-2][1])
        ) <= 0:
            out.pop()
        out.append(p)
    return out


def _hull_ring(points) -> list[tuple]:
    """The extreme points of a nonempty set of (x, y) pairs, counterclockwise
    from the lex-min one (Andrew's monotone chain).  A collinear set gives
    its two ends, a single point itself.  The coordinates are ints."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts
    return _chain(pts)[:-1] + _chain(pts[::-1])[:-1]


def convex_hull(points: list[IntVector]) -> LatticePolygon:
    """The hull ring of the points as a polygon; extreme points only."""
    if not points:
        raise GeometryError("hull of empty point set")
    ring = _hull_ring((p.x, p.y) for p in points)
    return LatticePolygon(tuple(IntVector(x, y) for x, y in ring))


_first = itemgetter(0)
_first_two = itemgetter(0, 1)


class _Angle(tuple):
    """The angle key (half, x, y) of a nonzero int direction (x, y), half 0
    for angles in [0, pi).  Less-than compares the half-planes, then the
    cross product, so sorting needs no gcd and parallel directions tie; on
    primitive directions equality is the tuple's, since equal primitive
    directions are equal vectors."""

    __slots__ = ()

    def __lt__(self, other: "_Angle") -> bool:
        if self[0] != other[0]:
            return self[0] < other[0]
        return self[1] * other[2] - other[1] * self[2] > 0


def _polygon(steps: list[tuple[int, int]]) -> LatticePolygon:
    """The convex polygon whose sides are the int steps (x, y) taken in angle
    order: the hull ring of their partial sums, lex-min vertex at the origin.
    Parallel steps fall on one side.  A zero step is refused, then steps
    that do not sum to zero."""
    if (0, 0) in steps:
        raise GeometryError("zero vector has no angle")
    sx = sy = 0
    sums = [(0, 0)]
    for _, x, y in sorted(
        _Angle((0 if y > 0 or (y == 0 and x > 0) else 1, x, y)) for x, y in steps
    ):
        sx, sy = sx + x, sy + y
        sums.append((sx, sy))
    if sx or sy:
        raise GeometryError("edge vectors do not close up")
    ring = _hull_ring(sums)
    mx, my = ring[0]
    return LatticePolygon(tuple(IntVector(x - mx, y - my) for x, y in ring))


def minkowski_sum(p: LatticePolygon, q: LatticePolygon) -> LatticePolygon:
    """Minkowski sum: the sides of both polygons taken in angle order, placed
    at the sum of their lex-min vertices."""
    steps = [(s.x, s.y) for s in p.edge_vectors() + q.edge_vectors()]
    return _polygon(steps).translated(p.vertices[0] + q.vertices[0])


# ---------------------------------------------------------------------------
# Complement faces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceStructure:
    """Faces of the complement, with edge-side and vertex adjacency.

    side_face[2*k] / side_face[2*k+1] give the face left / right of item k
    (relative to the item's stored direction; items list edges then rays).
    """

    count: int
    side_face: tuple[int, ...]
    bounded: tuple[bool, ...]
    vertex_faces: tuple[tuple[int, ...], ...]
    items: tuple[Item, ...]

    def bounded_faces(self) -> tuple[int, ...]:
        return tuple(f for f in range(self.count) if self.bounded[f])


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def merge(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def face_structure(c: TropicalCurve) -> FaceStructure:
    """Enumerate the connected components of the plane minus the curve.

    Sides of items are glued around each vertex and around the circle at
    infinity (rays ordered by direction, parallel rays by signed offset).
    Each item end gets one angle key, built from the item's primitive
    direction (the head end's is the opposite half); a ray's offset is
    taken on the curve's integer grid, whose positive scale keeps the
    order.  Requires a structurally sound embedded curve.
    """
    its = items(c)
    if not its:
        raise GeometryError("empty curve has no face structure")
    uf = _UnionFind(2 * len(its))

    # ends at each vertex: (angle of the outgoing direction, left side, right side)
    ends: list[list[tuple]] = [[] for _ in c._grid]
    ray_sides = []  # (angle, offset, left side, right side)
    for k, it in enumerate(its):
        x, y = it.prim.x, it.prim.y
        half = 0 if y > 0 or (y == 0 and x > 0) else 1
        angle = _Angle((half, x, y))
        ends[it.tail].append((angle, 2 * k, 2 * k + 1))
        if it.head is not None:
            ends[it.head].append((_Angle((1 - half, -x, -y)), 2 * k + 1, 2 * k))
        else:
            ox, oy = it.lattice[0], it.lattice[1]
            ray_sides.append((angle, x * oy - ox * y, 2 * k, 2 * k + 1))

    for v, lst in enumerate(ends):
        lst.sort(key=_first)
        for i in range(len(lst) - 1):
            if lst[i][0] == lst[i + 1][0]:
                raise GeometryError(
                    f"two items leave vertex {v} in the same direction"
                )
        for i in range(len(lst)):
            uf.merge(lst[i][1], lst[(i + 1) % len(lst)][2])

    ray_sides.sort(key=_first_two)
    for i in range(len(ray_sides)):
        uf.merge(ray_sides[i][2], ray_sides[(i + 1) % len(ray_sides)][3])

    face_of: dict[int, int] = {}
    side_face = []
    for s in range(2 * len(its)):
        side_face.append(face_of.setdefault(uf.find(s), len(face_of)))
    count = len(face_of)

    bounded = [True] * count
    for _, _, ls, rs in ray_sides:
        bounded[side_face[ls]] = False
        bounded[side_face[rs]] = False

    # the face of the sector counterclockwise after each end
    vertex_faces = tuple(tuple(side_face[e[1]] for e in lst) for lst in ends)
    return FaceStructure(count, tuple(side_face), tuple(bounded), vertex_faces, its)


# ---------------------------------------------------------------------------
# Newton complex and polygon
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NewtonComplex:
    """Dual lattice complex: one lattice point per face, one edge per item."""

    dual_vertices: tuple[IntVector, ...]  # indexed by face id
    dual_edges: tuple[tuple[int, int, str, int], ...]  # (left face, right face, kind, index)
    faces: FaceStructure

    def edge_segments(self) -> frozenset:
        out = set()
        for fi, fj, _, _ in self.dual_edges:
            a, b = self.dual_vertices[fi], self.dual_vertices[fj]
            ka, kb = (a.x, a.y), (b.x, b.y)
            out.add((ka, kb) if ka <= kb else (kb, ka))
        return frozenset(out)

    def vertex_set(self) -> frozenset:
        return frozenset((v.x, v.y) for v in self.dual_vertices)


def newton_complex(c: TropicalCurve) -> NewtonComplex:
    """Propagate dual lattice points across face adjacencies, breadth first.

    The result is independent of traversal order; an inconsistency during
    propagation means the input was unbalanced or crossed itself.  Each call
    builds the face structure afresh.
    """
    return _propagate(face_structure(c))


def _propagate(fs: FaceStructure) -> NewtonComplex:
    """The dual complex of a face structure, breadth first on int pairs."""
    edges = []
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(fs.count)]
    for k, it in enumerate(fs.items):
        fl, fr = fs.side_face[2 * k], fs.side_face[2 * k + 1]
        sx, sy = it.prim.y * it.weight, -it.prim.x * it.weight  # rot_cw
        edges.append((fl, fr, it.kind, it.index))
        adj[fl].append((fr, sx, sy))
        adj[fr].append((fl, -sx, -sy))

    w: list[tuple[int, int] | None] = [None] * fs.count
    w[0] = (0, 0)
    frontier = [0]
    for f in frontier:  # the queue grows while it is read
        fx, fy = w[f]
        for g, sx, sy in adj[f]:
            cand = (fx + sx, fy + sy)
            if w[g] is None:
                w[g] = cand
                frontier.append(g)
            elif w[g] != cand:
                raise DualityError(
                    "dual propagation is inconsistent; "
                    "curve is unbalanced or crosses itself"
                )
    if None in w:
        raise DualityError("face adjacency graph is not connected")
    mx, my = min(w)
    dual = tuple(IntVector(x - mx, y - my) for x, y in w)
    return NewtonComplex(dual, tuple(edges), fs)


def newton_polygon(c: TropicalCurve) -> LatticePolygon:
    """The Newton polygon from ray data alone: the weighted ray directions
    rotated +90 degrees, taken as the sides of one hull ring.

    Needs a balanced curve, which need not be embedded.  An unbalanced one
    is refused with InvalidCurveError naming the first vertex whose residual
    is not zero, as require_valid does; a balanced curve with no rays raises
    GeometryError.
    """
    _require_balanced(_residuals(c))
    if not c.rays:
        raise GeometryError("a curve with no rays has no Newton polygon")
    return _polygon(
        [(-r.direction.y * r.weight, r.direction.x * r.weight) for r in c.rays]
    )


#: The same ray construction, under the name that says so.
newton_polygon_from_rays = newton_polygon


# ---------------------------------------------------------------------------
# Dual cells and multiplicities
# ---------------------------------------------------------------------------


def star_cell(star: list[IntVector]) -> LatticePolygon:
    """Closed polygon traced by the +90-degree rotations of a star's vectors."""
    return _polygon([(-u.y, u.x) for u in star])


def star_multiplicity(star: list[IntVector]) -> int:
    return star_cell(star).area2()


def dual_cell(c: TropicalCurve, vertex: int) -> LatticePolygon:
    """The lattice polygon dual to a vertex (normalized translation)."""
    if not (0 <= vertex < len(c.vertices)):
        raise GeometryError(f"no vertex {vertex}")
    return star_cell(local_star(c, c.vertices[vertex]))


def vertex_multiplicity(c: TropicalCurve, p: Point) -> int:
    """Twice the area of the dual cell at a point; 0 off vertices."""
    return star_multiplicity(local_star(c, p))
