"""Parameter space of a curve's combinatorial type.

A curve is determined by its combinatorics (edge directions and weights, ray
data), the lattice lengths of its finite edges, and the position of one
anchor vertex.  The admissible lengths form a relatively open convex cone cut
out by one closure equation per independent cycle; `perturb` walks inside it
with exact rational steps on a dyadic grid, so the denominators stay bounded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm

from .geom import GeometryError, IntVector, Point, show
from .curve import Edge, Ray, StructureError, TropicalCurve, items, validate
from .newton import newton_complex, newton_polygon
from .bunch import spanning_forest


class ClosureError(GeometryError):
    """Lengths violate a cycle-closure equation or positivity."""


#: The finest step of `perturb`: its integer step is scaled by 2^-k with
#: k <= GRID_HALVINGS, so a walk from a point of denominator D0 stays in
#: (1 / lcm(D0, L * 2^GRID_HALVINGS)) * Z, L being the projector's denominator.
GRID_HALVINGS = 60


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
    def _spread(self):
        """(tree steps, closure checks) on ints, from the spanning forest.

        A tree step (w, v, dx, dy, edge) places w at v plus (dx, dy) times
        the edge's length, in BFS order; a closure check (edge, a, b, ux, uy,
        cycle's edges) asks that b - a be (ux, uy) times the edge's length.
        Raises ClosureError when the skeleton is disconnected from the anchor.
        """
        link, cycles = self._forest
        if list(link.values()).count(None) > 1:
            raise ClosureError("skeleton is disconnected from the anchor")
        steps = []
        for w, ln in link.items():
            if ln is not None:
                v, eid, sign = ln
                u = self.edges[eid][2]
                steps.append((w, v, u.x * sign, u.y * sign, eid))
        checks = []
        for eid, cyc in cycles:
            a, b, u, _ = self.edges[eid]
            checks.append((eid, a, b, u.x, u.y, sorted(e for e, _ in cyc)))
        return steps, checks

    @cached_property
    def _parts(self) -> tuple[tuple[Edge, ...], tuple[Ray, ...]]:
        """The Edge and Ray records every curve of this skeleton shares."""
        return (
            tuple(Edge(a, b, w) for (a, b, _, w) in self.edges),
            tuple(Ray(v, d, w) for (v, d, w) in self.rays),
        )

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

    @classmethod
    def _on_grid(cls, skel, den: int, lengths, x: int, y: int) -> ParamPoint:
        """The point with lengths[i] / den and anchor (x, y) / den, for ints
        and a den > 0, whose _ints is (den, lengths, x, y)."""
        p = cls(
            skel,
            tuple(Fraction(m, den) for m in lengths),
            Point(Fraction(x, den), Fraction(y, den)),
        )
        p.__dict__["_ints"] = (den, tuple(lengths), x, y)
        return p

    @cached_property
    def _ints(self) -> tuple[int, tuple[int, ...], int, int]:
        """(D, the lengths times D, the anchor's x and y times D), D a common
        denominator of them all; _on_grid sets it for perturb's candidates."""
        a = self.anchor_pos
        den = lcm(a.x.denominator, a.y.denominator, *(ll.denominator for ll in self.lengths))
        return (
            den,
            tuple(ll.numerator * (den // ll.denominator) for ll in self.lengths),
            a.x.numerator * (den // a.x.denominator),
            a.y.numerator * (den // a.y.denominator),
        )

    @cached_property
    def _curve(self) -> TropicalCurve:
        """The embedded curve of curve_from_params, built on its first call.
        A point that fails to build caches nothing and raises on every call.

        The vertices are propagated from the anchor as integer numerators
        over one denominator, cycle closure is checked on them, and each
        vertex Point is built once, with the curve's scale and grid.
        """
        skel = self.skeleton
        if len(self.lengths) != len(skel.edges):
            raise ClosureError("length count does not match the skeleton")
        den, lengths, ax, ay = self._ints
        for i, m in enumerate(lengths):
            if m <= 0:
                raise ClosureError(f"edge {i} has non-positive lattice length {show(self.lengths[i])}")
        steps, checks = skel._spread
        xs, ys = [ax] * skel.vertex_count, [ay] * skel.vertex_count
        for w, v, dx, dy, eid in steps:
            m = lengths[eid]
            xs[w] = xs[v] + dx * m
            ys[w] = ys[v] + dy * m
        for eid, a, b, ux, uy, cycle in checks:
            m = lengths[eid]
            if xs[b] - xs[a] != ux * m or ys[b] - ys[a] != uy * m:
                raise ClosureError(f"cycle through edges {cycle} does not close")
        return TropicalCurve._on_grid(den, xs, ys, *skel._parts)


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
    """Random step inside the cone on a dyadic grid: closure-preserving,
    positivity-preserving, and halved until the rebuilt curve still
    validates (p when no step of 2^-GRID_HALVINGS or more does).

    The raw step is an integer vector, one draw in [-60, 60] per edge and
    two for the anchor; the lengths move by its projection (the skeleton's
    integer projector), the anchor by the anchor draws, both times 2^-k.
    The first k is the least whose step keeps every length at least half
    its value, and a candidate that crosses itself or has two vertices at
    one point is refused.  p's curve is built first, so a p that does not
    close, whose skeleton is disconnected, or whose items are malformed
    raises as curve_from_params and items(c) do.
    """
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, random.Random)
        else random.Random(seed_or_rng)
    )
    skel = p.skeleton
    # Every candidate has p's skeleton, so once p's items are admitted a
    # candidate can raise StructureError only for two vertices at one point.
    # The cached properties are read directly: perfbench counts each
    # curve_from_params call inside perturb as a candidate.
    p._curve._items
    rows, L = skel._projector
    raw = [rng.randint(-60, 60) for _ in p.lengths]
    ax, ay = rng.randint(-60, 60), rng.randint(-60, 60)
    step = [sum(a * b for a, b in zip(row, raw)) for row in rows]  # L times the move
    den, lengths, x0, y0 = p._ints
    # 2^-k is at or below ll / (-d) / 2 for ll = m / den and d = s / L < 0
    # when 2^k m L >= -2 s den: the least k >= 0 for the least such power
    k = 0
    for m, s in zip(lengths, step):
        if s < 0:
            need = -(2 * s * den // (m * L))  # ceil(-2 s den / (m L))
            k = max(k, (need - 1).bit_length())
    for k in range(k, GRID_HALVINGS + 1):
        unit = L << k
        new = lcm(den, unit)
        f, g = new // den, new // unit
        ls = tuple(m * f + s * g for m, s in zip(lengths, step))
        x, y = x0 * f + ax * g * L, y0 * f + ay * g * L
        cand = ParamPoint._on_grid(skel, new, ls, x, y)
        try:
            passed = validate(curve_from_params(cand)).passed
        except StructureError:  # two vertices at one point
            passed = False
        if passed:
            return cand
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
