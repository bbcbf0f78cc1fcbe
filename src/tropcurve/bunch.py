"""Cycle topology of a curve: tentacle classification, the contracted
quotient multigraph, and bouquet detection.

A tentacle is a finite edge whose interior disconnects the curve, i.e. a
bridge of the finite-edge multigraph.  The bunch contracts every tentacle
and every ray; what survives is a multigraph in which every arc lies on a
cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geom import GeometryError, RefusalError
from .curve import TropicalCurve
from .newton import _UnionFind


class DisconnectedCurveError(RefusalError):
    """Cycle topology is only defined for connected curves."""


def _adjacency(c: TropicalCurve) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in c.vertices]
    for i, e in enumerate(c.edges):
        adj[e.a].append((e.b, i))
        adj[e.b].append((e.a, i))
    return adj


def bridges(c: TropicalCurve) -> set[int]:
    """Edge indices whose removal disconnects the finite-edge multigraph.

    Iterative low-link search from vertex 0; parallel edges are tracked by
    edge id, so a doubled edge is never a bridge.  An empty or disconnected
    curve is refused with DisconnectedCurveError.
    """
    if not c.vertices:
        raise DisconnectedCurveError("empty curve")
    adj = _adjacency(c)
    n = len(c.vertices)
    preorder = [-1] * n
    low = [0] * n
    out: set[int] = set()
    preorder[0] = 0
    counter = 1
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        v, in_edge, it = stack[-1]
        advanced = False
        for w, eid in it:
            if eid == in_edge:
                continue
            if preorder[w] == -1:
                preorder[w] = low[w] = counter
                counter += 1
                stack.append((w, eid, iter(adj[w])))
                advanced = True
                break
            low[v] = min(low[v], preorder[w])
        if advanced:
            continue
        stack.pop()
        if stack:
            parent = stack[-1][0]
            low[parent] = min(low[parent], low[v])
            if low[v] > preorder[parent]:
                out.add(in_edge)
    if counter != n:
        raise DisconnectedCurveError("curve is disconnected")
    return out


def classify_edges(c: TropicalCurve) -> tuple[str, ...]:
    """'tentacle' or 'cycle' for each finite edge of a connected curve."""
    b = bridges(c)
    return tuple("tentacle" if i in b else "cycle" for i in range(len(c.edges)))


@dataclass(frozen=True)
class BunchGraph:
    """Quotient multigraph after contracting tentacles and rays.

    Nodes are the connected blobs of contracted material (as vertex-index
    sets); arcs are the surviving finite edges.
    """

    node_of_vertex: tuple[int, ...]
    nodes: tuple[tuple[int, ...], ...]
    arcs: tuple[tuple[int, int, int], ...]  # (edge index, node a, node b)

    def genus(self) -> int:
        return len(self.arcs) - len(self.nodes) + 1

    def degree(self, node: int) -> int:
        d = 0
        for _, a, b in self.arcs:
            d += (a == node) + (b == node)
        return d


def bunch(c: TropicalCurve) -> BunchGraph:
    """Contract every tentacle and ray of a connected curve."""
    classes = classify_edges(c)
    n = len(c.vertices)
    uf = _UnionFind(n)
    for i, e in enumerate(c.edges):
        if classes[i] == "tentacle":
            uf.merge(e.a, e.b)
    roots: dict[int, int] = {}
    node_of_vertex = []
    members: list[list[int]] = []
    for v in range(n):
        r = uf.find(v)
        if r not in roots:
            roots[r] = len(roots)
            members.append([])
        node_of_vertex.append(roots[r])
        members[roots[r]].append(v)
    arcs = tuple(
        (i, node_of_vertex[e.a], node_of_vertex[e.b])
        for i, e in enumerate(c.edges)
        if classes[i] == "cycle"
    )
    return BunchGraph(
        tuple(node_of_vertex),
        tuple(tuple(m) for m in members),
        arcs,
    )


@dataclass(frozen=True)
class CurveCycle:
    """One non-contractible circle, lifted back to the curve.

    The oriented walk base -> ... -> base uses actual curve vertices; every
    consecutive pair of arcs meets at a genuine shared vertex.
    """

    vertex_path: tuple[int, ...]  # v0, v1, ..., vk with vk == v0
    edge_indices: tuple[int, ...]
    base_vertex: int  # attachment of the cycle to the bouquet center


@dataclass(frozen=True)
class BouquetStructure:
    genus: int
    center_node: int
    cycles: tuple[CurveCycle, ...]


@dataclass(frozen=True)
class NotABouquet:
    reason: str


def _arc_endpoints(c: TropicalCurve, edge_index: int) -> tuple[int, int]:
    e = c.edges[edge_index]
    return e.a, e.b


def _walk_circle(
    c: TropicalCurve, b: BunchGraph, start_node: int, first_arc: int,
    used: set[int], node_arcs: dict[int, list[int]],
) -> CurveCycle:
    """Follow a circle of the quotient starting along first_arc."""
    path_edges = [first_arc]
    used.add(first_arc)
    eidx, na, nb = b.arcs[first_arc]
    node = nb if na == start_node else na
    # entry vertex into `node` along this arc
    ea, eb = _arc_endpoints(c, eidx)
    enter = eb if b.node_of_vertex[ea] == start_node else ea
    start_vertex = ea if b.node_of_vertex[ea] == start_node else eb
    vertices = [start_vertex, enter]
    while node != start_node:
        nxt = None
        for k in node_arcs[node]:
            if k not in used:
                nxt = k
                break
        if nxt is None:
            raise GeometryError("quotient walk stuck; not a bouquet circle")
        used.add(nxt)
        path_edges.append(nxt)
        eidx, na, nb = b.arcs[nxt]
        ea, eb = _arc_endpoints(c, eidx)
        leave = ea if b.node_of_vertex[ea] == node else eb
        enter2 = eb if leave == ea else ea
        if leave != vertices[-1]:
            raise GeometryError(
                "cycle passes through a blob at two different vertices"
            )
        node = nb if na == node else na
        vertices.append(enter2)
    if vertices[-1] != vertices[0]:
        raise GeometryError("cycle does not close at its attachment vertex")
    return CurveCycle(
        tuple(vertices),
        tuple(b.arcs[k][0] for k in path_edges),
        vertices[0],
    )


def bouquet_structure(
    c: TropicalCurve, b: BunchGraph | None = None
):
    """Decide whether the bunch is a wedge of circles at one point.

    Returns a BouquetStructure on success, otherwise a NotABouquet value
    naming the obstruction.
    """
    if b is None:
        b = bunch(c)
    if not b.arcs:
        if len(b.nodes) != 1:
            return NotABouquet("quotient has no arcs but several nodes")
        return BouquetStructure(0, 0, ())
    degrees = [b.degree(i) for i in range(len(b.nodes))]
    heavy = [i for i, d in enumerate(degrees) if d >= 3]
    if any(d == 1 for d in degrees):
        return NotABouquet("a quotient node has degree 1")
    if len(heavy) >= 2:
        return NotABouquet(
            f"{len(heavy)} quotient nodes have degree >= 3"
        )
    node_arcs: dict[int, list[int]] = {i: [] for i in range(len(b.nodes))}
    for k, (_, na, nb) in enumerate(b.arcs):
        node_arcs[na].append(k)
        if nb != na:
            node_arcs[nb].append(k)
    if heavy:
        center = heavy[0]
    else:
        # single circle; pick the node holding the lex-min vertex on the circle
        def node_key(i: int) -> tuple:
            return min((c.vertices[v].x, c.vertices[v].y) for v in b.nodes[i])

        center = min(range(len(b.nodes)), key=node_key)
    used: set[int] = set()
    cycles = []
    for k in node_arcs[center]:
        if k in used:
            continue
        cycles.append(_walk_circle(c, b, center, k, used, node_arcs))
    if len(used) != len(b.arcs):
        return NotABouquet("arcs remain outside every circle through the center")
    g = b.genus()
    if len(cycles) != g:
        return NotABouquet(
            f"{len(cycles)} circles at the center but first Betti number {g}"
        )
    return BouquetStructure(g, center, tuple(cycles))
