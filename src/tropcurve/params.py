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
from functools import cached_property
from fractions import Fraction
from math import lcm

from .geom import GeometryError, IntVector, Point, pt, show
from .curve import Edge, Ray, TropicalCurve, items, validate
from .newton import newton_complex, newton_polygon
from .bunch import spanning_forest


class ClosureError(GeometryError):
    """Lengths violate a cycle-closure equation or positivity."""


@dataclass(frozen=True)
class CurveSkeleton:
    """Combinatorial type: directed primitive edge data plus ray data.

    Its spanning forest (bunch.spanning_forest, rooted at the anchor) and the
    integer projector onto its closure subspace, cut out by two equations
    per fundamental cycle, are derived once.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, IntVector, int], ...]  # (a, b, dir a->b, weight)
    rays: tuple[tuple[int, IntVector, int], ...]  # (vertex, dir, weight)
    anchor: int

    @cached_property
    def _forest(self):
        ends = [e[:2] for e in self.edges]
        return spanning_forest(self.vertex_count, ends, self.anchor)

    @cached_property
    def _projector(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(L*P as rows of ints, L): P the orthogonal projection of length
        space onto the closure subspace, L the least common denominator of
        its entries.

        P takes away the projection onto the span of the closure rows, whose
        orthogonal basis comes from Gram-Schmidt.  P is symmetric, so its
        rows are its columns: the rejections of the unit vectors.
        """
        basis: list[list[Fraction]] = []
        for row in closure_matrix(self):
            q = _reject(row, basis)
            if any(q):
                basis.append(q)
        n = len(self.edges)
        rows = [_reject([Fraction(i == j) for j in range(n)], basis) for i in range(n)]
        den = lcm(*(x.denominator for row in rows for x in row))
        return tuple(tuple(int(x * den) for x in row) for row in rows), den


@dataclass(frozen=True)
class ParamPoint:
    skeleton: CurveSkeleton
    lengths: tuple[Fraction, ...]  # lattice length per finite edge, > 0
    anchor_pos: Point

    @cached_property
    def _curve(self) -> TropicalCurve:
        """The embedded curve of curve_from_params, built on its first call.
        A point that fails to build caches nothing and raises on every call."""
        skel = self.skeleton
        if len(self.lengths) != len(skel.edges):
            raise ClosureError("length count does not match the skeleton")
        for i, ll in enumerate(self.lengths):
            if ll <= 0:
                raise ClosureError(f"edge {i} has non-positive lattice length {show(ll)}")
        link, cycles = skel._forest
        if list(link.values()).count(None) > 1:
            raise ClosureError("skeleton is disconnected from the anchor")
        pos: list[Point] = [self.anchor_pos] * skel.vertex_count
        for w, ln in link.items():
            if ln is not None:
                v, eid, sign = ln
                pos[w] = pos[v] + skel.edges[eid][2].to_point() * (self.lengths[eid] * sign)
        for eid, cyc in cycles:
            a, b, u, _ = skel.edges[eid]
            if pos[b] - pos[a] != u.to_point() * self.lengths[eid]:
                raise ClosureError(
                    f"cycle through edges {sorted(e for e, _ in cyc)} does not close"
                )
        es = tuple(Edge(a, b, w) for (a, b, _, w) in skel.edges)
        rs = tuple(Ray(v, d, w) for (v, d, w) in skel.rays)
        return TropicalCurve(tuple(pos), es, rs)


def params_from_curve(c: TropicalCurve, anchor: int = 0) -> ParamPoint:
    """Extract (combinatorial type, lattice lengths, anchor position)."""
    if not (0 <= anchor < len(c.vertices)):
        raise GeometryError(f"no vertex {anchor}")
    its = items(c)[: len(c.edges)]
    edges = tuple((it.tail, it.head, it.prim, it.weight) for it in its)
    rays = tuple((r.vertex, r.direction, r.weight) for r in c.rays)
    skel = CurveSkeleton(len(c.vertices), edges, rays, anchor)
    return ParamPoint(skel, tuple(it.length for it in its), c.vertices[anchor])


def curve_from_params(p: ParamPoint) -> TropicalCurve:
    """Rebuild the embedded curve by propagating from the anchor.

    Raises ClosureError when a cycle fails to close or a length is not
    positive; the error names the offending cycle's edges.  The curve is
    built once per ParamPoint: later calls return the same object, whose
    items are built already.
    """
    return p._curve


def closure_matrix(skel: CurveSkeleton) -> list[list[Fraction]]:
    """Two rows (x and y) per independent cycle, over the length variables."""
    rows = []
    for _, cyc in skel._forest[1]:
        rx = [Fraction(0)] * len(skel.edges)
        ry = [Fraction(0)] * len(skel.edges)
        for eid, sign in cyc:
            u = skel.edges[eid][2]
            rx[eid] += sign * u.x
            ry[eid] += sign * u.y
        rows.append(rx)
        rows.append(ry)
    return rows


def _reject(v: list[Fraction], basis) -> list[Fraction]:
    """v minus its orthogonal projection onto the span of an orthogonal basis."""
    out = list(v)
    for q in basis:
        f = sum(x * y for x, y in zip(out, q)) / sum(y * y for y in q)
        out = [x - f * y for x, y in zip(out, q)]
    return out


def project_to_closure(
    skel: CurveSkeleton, direction: list[Fraction]
) -> list[Fraction]:
    """Orthogonal projection of a length-space direction onto the closure
    subspace (anchor coordinates are unconstrained and not included here).

    The direction is brought to a common denominator d; then one product
    with the skeleton's integer projector L*P gives the numerators over L*d.
    """
    rows, den = skel._projector
    d = lcm(*(x.denominator for x in direction))
    u = [x.numerator * (d // x.denominator) for x in direction]
    return [Fraction(sum(a * b for a, b in zip(row, u)), den * d) for row in rows]


def perturb(p: ParamPoint, seed_or_rng) -> ParamPoint:
    """Random step inside the cone: closure-preserving, positivity-preserving,
    and halved until the rebuilt curve still validates (p after 60 halvings).
    Every candidate closes exactly when p does, so a p that does not close,
    or whose skeleton is disconnected, raises ClosureError."""
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
    # exact scaling that keeps every length at least half its value
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
        if validate(curve_from_params(cand)).passed:
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
