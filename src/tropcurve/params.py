"""Parameter space of a curve's combinatorial type.

A curve is determined by its combinatorics (edge directions and weights, ray
data), the lattice lengths of its finite edges, and the position of one
anchor vertex.  The admissible lengths form a relatively open convex cone cut
out by one closure equation per independent cycle; `perturb` walks inside it
with exact rational steps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .geom import GeometryError, IntVector, Point, pt
from .curve import Edge, Ray, TropicalCurve, items, validate
from .newton import newton_complex, newton_polygon


class ClosureError(GeometryError):
    """Lengths violate a cycle-closure equation or positivity."""


@dataclass(frozen=True)
class CurveSkeleton:
    """Combinatorial type: directed primitive edge data plus ray data."""

    vertex_count: int
    edges: tuple[tuple[int, int, IntVector, int], ...]  # (a, b, dir a->b, weight)
    rays: tuple[tuple[int, IntVector, int], ...]  # (vertex, dir, weight)
    anchor: int


@dataclass(frozen=True)
class ParamPoint:
    skeleton: CurveSkeleton
    lengths: tuple[Fraction, ...]  # lattice length per finite edge, > 0
    anchor_pos: Point


def params_from_curve(c: TropicalCurve, anchor: int = 0) -> ParamPoint:
    """Extract (combinatorial type, lattice lengths, anchor position)."""
    if not (0 <= anchor < len(c.vertices)):
        raise GeometryError(f"no vertex {anchor}")
    its = items(c)[: len(c.edges)]
    edges = tuple((it.tail, it.head, it.prim, it.weight) for it in its)
    rays = tuple((r.vertex, r.direction, r.weight) for r in c.rays)
    skel = CurveSkeleton(len(c.vertices), edges, rays, anchor)
    return ParamPoint(skel, tuple(it.length for it in its), c.vertices[anchor])


def _fundamental_cycles(skel: CurveSkeleton) -> list[list[tuple[int, int]]]:
    """Cycle basis as lists of (edge index, sign along the cycle)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(skel.vertex_count)]
    for i, (a, b, _, _) in enumerate(skel.edges):
        adj[a].append((b, i))
        adj[b].append((a, i))
    parent: dict[int, tuple[int, int, int] | None] = {}
    order = []
    tree_edges = set()
    for root in range(skel.vertex_count):
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w, eid in adj[v]:
                if w not in parent:
                    parent[w] = (v, eid, 1 if skel.edges[eid][0] == v else -1)
                    tree_edges.add(eid)
                    queue.append(w)
    cycles = []
    for i, (a, b, _, _) in enumerate(skel.edges):
        if i in tree_edges:
            continue
        # path b -> a through the tree, then close with edge i (a -> b)
        def path_to_root(v):
            out = []
            while parent[v] is not None:
                u, eid, sign = parent[v]
                out.append((v, eid, sign))
                v = u
            return out, v

        pa, ra = path_to_root(a)
        pb, rb = path_to_root(b)
        if ra != rb:
            raise GeometryError("cycle endpoints in different components")
        sa = {eid for _, eid, _ in pa}
        sb = {eid for _, eid, _ in pb}
        cyc = [(i, 1)]
        for _, eid, sign in pb:
            if eid not in sa:
                cyc.append((eid, -sign))  # walking b -> root, against parent dir
        for _, eid, sign in pa:
            if eid not in sb:
                cyc.append((eid, sign))
        cycles.append(cyc)
    return cycles


def curve_from_params(p: ParamPoint) -> TropicalCurve:
    """Rebuild the embedded curve by propagating from the anchor.

    Raises ClosureError when a cycle fails to close or a length is not
    positive; the error names the offending cycle's edges.
    """
    skel = p.skeleton
    if len(p.lengths) != len(skel.edges):
        raise ClosureError("length count does not match the skeleton")
    for i, ll in enumerate(p.lengths):
        if ll <= 0:
            raise ClosureError(f"edge {i} has non-positive lattice length {ll}")
    pos: list[Point | None] = [None] * skel.vertex_count
    pos[skel.anchor] = p.anchor_pos
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(skel.vertex_count)]
    for i, (a, b, u, _) in enumerate(skel.edges):
        adj[a].append((b, i, 1))
        adj[b].append((a, i, -1))
    queue = [skel.anchor]
    tree_parent: dict[int, int] = {}
    while queue:
        v = queue.pop(0)
        for w, eid, sign in adj[v]:
            u = skel.edges[eid][2]
            step = u.to_point() * (p.lengths[eid] * sign)
            target = pos[v] + step
            if pos[w] is None:
                pos[w] = target
                tree_parent[w] = eid
                queue.append(w)
            elif pos[w] != target:
                cyc = _closing_cycle(skel, tree_parent, eid)
                raise ClosureError(
                    f"cycle through edges {cyc} does not close"
                )
    if any(q is None for q in pos):
        raise ClosureError("skeleton is disconnected from the anchor")
    # rays only attach to placed vertices
    es = tuple(Edge(a, b, w) for (a, b, _, w) in skel.edges)
    rs = tuple(Ray(v, d, w) for (v, d, w) in skel.rays)
    return TropicalCurve(tuple(pos), es, rs)


def _closing_cycle(skel, tree_parent, closing_edge) -> list[int]:
    a, b, _, _ = skel.edges[closing_edge]
    seen = [closing_edge]
    for v in (a, b):
        while v in tree_parent:
            eid = tree_parent[v]
            seen.append(eid)
            ea, eb, _, _ = skel.edges[eid]
            v = ea if v == eb else eb
    return sorted(set(seen))


def closure_matrix(skel: CurveSkeleton) -> list[list[Fraction]]:
    """Two rows (x and y) per independent cycle, over the length variables."""
    rows = []
    for cyc in _fundamental_cycles(skel):
        rx = [Fraction(0)] * len(skel.edges)
        ry = [Fraction(0)] * len(skel.edges)
        for eid, sign in cyc:
            u = skel.edges[eid][2]
            rx[eid] += sign * u.x
            ry[eid] += sign * u.y
        rows.append(rx)
        rows.append(ry)
    return rows


def _independent_rows(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    out = []
    reduced: list[list[Fraction]] = []
    for row in rows:
        r = list(row)
        for piv in reduced:
            lead = next((j for j, x in enumerate(piv) if x != 0), None)
            if lead is not None and r[lead] != 0:
                f = r[lead] / piv[lead]
                r = [a - f * b for a, b in zip(r, piv)]
        if any(x != 0 for x in r):
            reduced.append(r)
            out.append(list(row))
    return out


def _solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(matrix)
    aug = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        f = aug[col][col]
        aug[col] = [x / f for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                g = aug[r][col]
                aug[r] = [a - g * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def project_to_closure(
    skel: CurveSkeleton, direction: list[Fraction]
) -> list[Fraction]:
    """Orthogonal projection of a length-space direction onto the closure
    subspace (anchor coordinates are unconstrained and not included here)."""
    rows = _independent_rows(closure_matrix(skel))
    if not rows:
        return list(direction)
    m = len(rows)
    gram = [
        [sum(rows[i][k] * rows[j][k] for k in range(len(direction))) for j in range(m)]
        for i in range(m)
    ]
    rhs = [sum(rows[i][k] * direction[k] for k in range(len(direction))) for i in range(m)]
    y = _solve(gram, rhs)
    out = list(direction)
    for i in range(m):
        for k in range(len(direction)):
            out[k] -= y[i] * rows[i][k]
    return out


def perturb(p: ParamPoint, seed_or_rng) -> ParamPoint:
    """Random step inside the cone: closure-preserving, positivity-preserving,
    and shrunk until the rebuilt curve still validates."""
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, random.Random)
        else random.Random(seed_or_rng)
    )
    n = len(p.lengths)
    raw = [
        Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(n)
    ]
    step = project_to_closure(p.skeleton, raw)
    anchor_step = pt(
        Fraction(rng.randint(-60, 60), rng.randint(1, 12)),
        Fraction(rng.randint(-60, 60), rng.randint(1, 12)),
    )
    # exact scaling to keep every length strictly positive
    scale = Fraction(1)
    for ll, d in zip(p.lengths, step):
        if d < 0:
            scale = min(scale, ll / (-d) / 2)
    for _ in range(60):
        cand = ParamPoint(
            p.skeleton,
            tuple(ll + scale * d for ll, d in zip(p.lengths, step)),
            p.anchor_pos + anchor_step * scale,
        )
        if all(ll > 0 for ll in cand.lengths):
            try:
                c = curve_from_params(cand)
            except ClosureError:
                scale /= 2
                continue
            if validate(c).passed:
                return cand
        scale /= 2
    return p


def is_degeneration(candidate: TropicalCurve, reference: TropicalCurve) -> bool:
    """Same Newton polygon, and the candidate's dual complex is contained in
    the reference's as a set (vertices among vertices, edges covered by
    collinear edges)."""
    if newton_polygon(candidate) != newton_polygon(reference):
        return False
    nc = newton_complex(candidate)
    nr = newton_complex(reference)
    if not nc.vertex_set() <= nr.vertex_set():
        return False
    ref_edges = nr.edge_segments()
    for a, b in nc.edge_segments():
        if not _segment_covered(a, b, ref_edges):
            return False
    return True


def _segment_covered(a, b, segments) -> bool:
    """Is the lattice segment [a, b] a union of collinear segments from the set?"""
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    pieces = []
    for (px, py), (qx, qy) in segments:
        if (qx - px) * dy != (qy - py) * dx:
            continue
        if (px - ax) * dy != (py - ay) * dx:
            continue
        # parameter along [a, b] in units of (dx, dy)
        def param(x, y):
            return (
                Fraction(x - ax, dx) if dx else Fraction(y - ay, dy)
            )
        t0, t1 = sorted((param(px, py), param(qx, qy)))
        pieces.append((t0, t1))
    pieces.sort()
    reach = Fraction(0)
    for t0, t1 in pieces:
        if t0 > reach:
            return False
        reach = max(reach, t1)
        if reach >= 1:
            return True
    return reach >= 1


def same_component(a: TropicalCurve, b: TropicalCurve) -> bool:
    """Curves deform into each other exactly when their polygons agree."""
    return newton_polygon(a) == newton_polygon(b)
