"""Cycle topology of a curve: tentacle classification, the contracted
quotient multigraph, and bouquet detection.

A tentacle is a finite edge whose interior disconnects the curve: an edge on
no fundamental cycle of spanning_forest, whose cycles also give params its
closure equations.  The bunch contracts every tentacle and every ray; what
survives is a multigraph in which every arc lies on a cycle, so no node has
degree 1.  It is a bouquet unless two or more nodes have degree >= 3; each
circle of a bouquet is then read straight off the arcs, since it enters and
leaves every contracted blob at one vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .geom import RefusalError
from .curve import TropicalCurve, items
from .newton import _UnionFind


class DisconnectedCurveError(RefusalError):
    """Cycle topology is only defined for connected curves."""


def spanning_forest(
    vertex_count: int, ends: Sequence[tuple[int, int]], root: int
) -> tuple[
    dict[int, tuple[int, int, int] | None],
    tuple[tuple[int, tuple[tuple[int, int], ...]], ...],
]:
    """Spanning forest by BFS from root, then from every vertex not yet
    reached, plus the fundamental cycle of each non-tree edge.

    ends[i] is the (a, b) pair of edge i.  The first dict maps each vertex,
    in BFS order, to its link (parent, parent edge, +1 when that edge runs
    parent -> vertex), or to None at a root.  Each cycle is (non-tree edge,
    ((edge, sign along the cycle), ...)); it runs a -> b along the non-tree
    edge, then back through the tree by the two ends' paths up to the vertex
    where they fork.  These cycles form a basis of the cycle space.
    """
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(vertex_count)]
    for i, (a, b) in enumerate(ends):
        adj[a].append((b, i, 1))
        adj[b].append((a, i, -1))
    link: dict[int, tuple[int, int, int] | None] = {}
    depth = [0] * vertex_count
    for r in (root, *range(vertex_count)):
        if r in link:
            continue
        link[r] = None
        queue = [r]
        for v in queue:  # the queue grows while it is read
            for w, eid, sign in adj[v]:
                if w not in link:
                    link[w] = (v, eid, sign)
                    depth[w] = depth[v] + 1
                    queue.append(w)
    tree = {ln[1] for ln in link.values() if ln is not None}
    cycles = []
    for i, (a, b) in enumerate(ends):
        if i in tree:
            continue
        # a -> b along edge i, b up to the fork, then down to a
        up_a, up_b = [], []
        while a != b:
            if depth[a] >= depth[b]:
                a, eid, sign = link[a]
                up_a.append((eid, sign))
            else:
                b, eid, sign = link[b]
                up_b.append((eid, -sign))
        cycles.append((i, ((i, 1), *up_b, *up_a)))
    return link, tuple(cycles)


def bridges(c: TropicalCurve) -> set[int]:
    """Edge indices whose removal disconnects the finite-edge multigraph.

    They are the edges on no fundamental cycle of the forest rooted at vertex
    0: a tree edge that is not a bridge has a non-tree edge across its cut,
    whose fundamental cycle runs through it.  items(c) refuses a malformed
    item; DisconnectedCurveError an empty or disconnected curve.
    """
    ends = [(it.tail, it.head) for it in items(c)[: len(c.edges)]]
    if not c.vertices:
        raise DisconnectedCurveError("empty curve")
    link, cycles = spanning_forest(len(c.vertices), ends, 0)
    if list(link.values()).count(None) > 1:
        raise DisconnectedCurveError("curve is disconnected")
    on_cycle = {eid for _, cyc in cycles for eid, _ in cyc}
    return set(range(len(c.edges))) - on_cycle


def classify_edges(c: TropicalCurve) -> tuple[str, ...]:
    """'tentacle' or 'cycle' for each finite edge of a connected curve."""
    return _classes(bunch(c), len(c.edges))


def _classes(b: BunchGraph, edge_count: int) -> tuple[str, ...]:
    """'tentacle' or 'cycle' for each of a curve's finite edges, read off its
    bunch: the arcs are the edges on a cycle."""
    on_cycle = {i for i, _, _ in b.arcs}
    return tuple("cycle" if i in on_cycle else "tentacle" for i in range(edge_count))


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
    """Contract every tentacle (bridges(c)) and ray of a connected curve."""
    tentacles = bridges(c)
    n = len(c.vertices)
    uf = _UnionFind(n)
    for i, e in enumerate(c.edges):
        if i in tentacles:
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
        if i not in tentacles
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


def _walk_circle(
    c: TropicalCurve, b: BunchGraph, center: int, first_arc: int,
    used: set[int], node_arcs: dict[int, list[int]],
) -> CurveCycle:
    """Follow the circle of the quotient that leaves the center along
    first_arc, taking the first unused arc at each node it reaches until it
    is back at the center.

    The circle enters and leaves each blob at one vertex, so each arc runs
    from the vertex reached so far to the far end of its edge.
    """
    k = first_arc
    e = c.edges[b.arcs[k][0]]
    vertices = [e.a if b.node_of_vertex[e.a] == center else e.b]
    arcs = []
    while True:
        used.add(k)
        arcs.append(k)
        e = c.edges[b.arcs[k][0]]
        v = e.b if e.a == vertices[-1] else e.a
        vertices.append(v)
        node = b.node_of_vertex[v]
        if node == center:
            break
        k = next(j for j in node_arcs[node] if j not in used)
    return CurveCycle(
        tuple(vertices),
        tuple(b.arcs[k][0] for k in arcs),
        vertices[0],
    )


def bouquet_structure(
    c: TropicalCurve, b: BunchGraph | None = None
):
    """Decide whether the bunch is a wedge of circles at one point.

    Returns a BouquetStructure on success, otherwise NotABouquet naming how
    many quotient nodes have degree >= 3, the one obstruction a connected
    curve can meet: no node has degree 1 (an arc lies on a cycle of the
    curve, so it is no bridge of the quotient), and with at most one node of
    degree >= 3 every arc lies on a circle through that center.  With no
    such node the center is the node holding the lex-min vertex, and a curve
    with no arcs is the genus-0 bouquet of its one node.
    """
    if b is None:
        b = bunch(c)
    # No arc is a loop: the item gate refuses a self-loop edge, and bridges
    # between an arc's two ends would lie on a cycle through it.
    node_arcs: dict[int, list[int]] = {i: [] for i in range(len(b.nodes))}
    for k, (_, na, nb) in enumerate(b.arcs):
        node_arcs[na].append(k)
        node_arcs[nb].append(k)
    heavy = [i for i, arcs in node_arcs.items() if len(arcs) >= 3]
    if len(heavy) >= 2:
        return NotABouquet(
            f"{len(heavy)} quotient nodes have degree >= 3"
        )
    if heavy:
        center = heavy[0]
    else:
        # at most one circle; pick the node holding the lex-min vertex
        def node_key(i: int) -> tuple:
            return min((c.vertices[v].x, c.vertices[v].y) for v in b.nodes[i])

        center = min(range(len(b.nodes)), key=node_key)
    used: set[int] = set()
    cycles = []
    for k in node_arcs[center]:
        if k not in used:
            cycles.append(_walk_circle(c, b, center, k, used, node_arcs))
    return BouquetStructure(b.genus(), center, tuple(cycles))
