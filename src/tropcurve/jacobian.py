"""Lattice-length coordinates on the cycles of a curve.

Each bouquet cycle is parametrized by lattice length, counterclockwise,
starting at its attachment to the bouquet center.  A divisor then gets one
residue per cycle (sum of the parameters of its points, weighted by
multiplicity, modulo the cycle's total lattice length).  Two divisors of a
reduced bouquet curve are linearly equivalent exactly when their degrees and
all residues agree.

The Abel map has one route, on integers: each point is placed from a host
item through it on the cycle data of `CycleSystem._on_ints` (`_place`) and
the residues are summed over one running denominator (`_abel`).  `sigma`
places the entries of the intersection record; `abel_coordinate` and
`project_point` place points given from outside, looked up with items_at.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .geom import GeometryError, Point, RefusalError, _over_lcd, area2
from .curve import Item, TropicalCurve, items, items_at, require_valid
from .bunch import (
    BouquetStructure,
    BunchGraph,
    NotABouquet,
    bouquet_structure,
    bunch,
)
from .intersect import (
    Divisor,
    _entries,
    stable_intersection,  # noqa: F401  perfbench's tracer and its tests patch this binding
)


class UnsupportedCurveError(RefusalError):
    """The equivalence decision requires a reduced curve with a bouquet bunch."""


@dataclass(frozen=True)
class CycleParametrization:
    """Lattice-length parametrization of one cycle.

    breakpoints[i] is the parameter of vertex_path[i]; the path starts and
    ends at the base vertex, runs counterclockwise, and the total length is
    breakpoints[-1].
    """

    index: int
    vertex_path: tuple[int, ...]
    edge_indices: tuple[int, ...]
    base_vertex: int
    breakpoints: tuple[Fraction, ...]
    total_length: Fraction

    def point_at(self, curve: TropicalCurve, t: Fraction) -> Point:
        t = t % self.total_length
        # the first breakpoint at or past t; t < total_length, the last one
        j = bisect_left(self.breakpoints, t, 1)
        lo, hi = self.breakpoints[j - 1], self.breakpoints[j]
        a = curve.vertices[self.vertex_path[j - 1]]
        b = curve.vertices[self.vertex_path[j]]
        return a + (b - a) * ((t - lo) / (hi - lo))


def parametrize_cycles(
    curve: TropicalCurve, bq: BouquetStructure
) -> tuple[CycleParametrization, ...]:
    """Counterclockwise lattice-length parametrizations, one per cycle."""
    out = []
    for k, cyc in enumerate(bq.cycles):
        path = list(cyc.vertex_path)
        edges = list(cyc.edge_indices)
        if area2([curve.vertices[v] for v in path]) < 0:
            path.reverse()
            edges.reverse()
        breaks = [Fraction(0)]
        for e in edges:
            breaks.append(breaks[-1] + items(curve)[e].length)
        out.append(
            CycleParametrization(
                k,
                tuple(path),
                tuple(edges),
                cyc.base_vertex,
                tuple(breaks),
                breaks[-1],
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class CycleSystem:
    """A curve together with its bunch, bouquet and cycle parametrizations."""

    curve: TropicalCurve
    graph: BunchGraph
    bouquet: BouquetStructure
    cycles: tuple[CycleParametrization, ...]

    @property
    def genus(self) -> int:
        return self.bouquet.genus

    def moduli(self) -> tuple[Fraction, ...]:
        """Total lattice length of each cycle (the torus circumferences)."""
        return tuple(c.total_length for c in self.cycles)

    @cached_property
    def _on_ints(self):
        """The cycle data as integer numerators over the curve's scale D:
        (D, each cycle's total length, each vertex's image (cycle or None,
        parameter), and for each edge on a cycle (cycle, parameter of its
        tail, +1 when the path runs along the edge and -1 against it, its
        tail's grid point, prim)).  Every breakpoint is a sum of item
        lengths, each gcd(v)/D, so D is a common denominator of them all.

        A vertex's image is that of its bunch node: (None, 0) at the
        bouquet center, else the node's first breakpoint in cycle order,
        then path order.  `_place` reads these."""
        c = self.curve
        D = c._scale

        def on(t: Fraction) -> int:
            return t.numerator * (D // t.denominator)

        node_of = self.graph.node_of_vertex
        images: dict[int, tuple[int | None, int]] = {self.bouquet.center_node: (None, 0)}
        edges = {}
        for cp in self.cycles:
            for i, (v, e) in enumerate(zip(cp.vertex_path, cp.edge_indices)):
                images.setdefault(node_of[v], (cp.index, on(cp.breakpoints[i])))
                it = c._items[e]
                along = it.tail == v
                ox, oy, _, _ = it.lattice
                edges[e] = (
                    cp.index, on(cp.breakpoints[i if along else i + 1]), 1 if along else -1,
                    ox, oy, it.prim.x, it.prim.y,
                )
        vertex = [images[node_of[v]] for v in range(len(c._grid))]
        return D, [on(cp.total_length) for cp in self.cycles], vertex, edges


def cycle_system(curve: TropicalCurve) -> CycleSystem:
    """Build the cycle coordinates of a curve admitted by require_valid;
    refuses non-bouquet topologies."""
    g = bunch(require_valid(curve))
    bq = bouquet_structure(curve, g)
    if isinstance(bq, NotABouquet):
        raise UnsupportedCurveError(f"bunch is not a bouquet: {bq.reason}")
    return CycleSystem(curve, g, bq, parametrize_cycles(curve, bq))


def project_point(system: CycleSystem, p: Point) -> tuple[int | None, Fraction]:
    """Quotient image of a curve point as (cycle index, residue).

    The point is a vertex or an interior point of the first item of items_at.
    Points on a cycle keep their parameter; a vertex, or a point on a
    tentacle or ray, maps to the image of its contracted blob: the cycle
    point where that blob attaches, or (None, 0) at the bouquet center.
    The point is placed as sigma places its entries (`_place`).
    """
    ints = system._on_ints
    k, t, D = _place(ints, *_on_curve(system.curve, p))
    if k is None:
        return None, Fraction(0)
    return k, Fraction(t % (ints[1][k] * D), ints[0] * D)


def _on_curve(c: TropicalCurve, p: Point) -> tuple[Item, int | None, tuple[int, int, int]]:
    """(the first item of items_at, the end of it that p is, p's grid key
    (X, Y, D) with D the lcm of its denominators); refuses a point off the
    curve."""
    hit = items_at(c, p)
    if not hit:
        raise GeometryError(f"point ({p.x}, {p.y}) is not on the curve")
    D, (X, Y) = _over_lcd((p.x, p.y))
    return (*hit[0], (X, Y, D))


def _place(ints, it: Item, end: int | None, key: tuple[int, int, int]):
    """The point (X/D, Y/D) of key, at `end` of the host item it (0 its
    tail, 1 an edge's head, None inside), placed on the cycle data `ints`
    (`CycleSystem._on_ints`): (cycle or None, parameter, D'), the parameter
    a numerator over ints' denominator times D'.

    A vertex, or a point inside a tentacle or ray, takes the vertex's or the
    item's tail's image, over D' = 1.  A point inside a cycle edge takes the
    tail's parameter plus the lattice run from the tail to it when the path
    runs along the edge, minus it when against, over D' = D: the inverse of
    CycleParametrization.point_at, found without scanning the cycle."""
    den, _, vertex, edges = ints
    place = edges.get(it.index) if end is None and it.head is not None else None
    if place is None:
        return (*vertex[it.tail if end != 1 else it.head], 1)
    k, t, sign, ox, oy, ux, uy = place
    X, Y, D = key
    # the run from the tail, over D * den; exact, as prim is primitive
    run = (X * den - ox * D) // ux if ux else (Y * den - oy * D) // uy
    return k, t * D + sign * run, D


@dataclass(frozen=True)
class AbelCoordinate:
    """Divisor degree plus one lattice-length residue per cycle."""

    degree: int
    residues: tuple[Fraction, ...]

    def __sub__(self, other: "AbelCoordinate") -> "AbelCoordinate":
        if len(self.residues) != len(other.residues):
            raise GeometryError("coordinates of different genus")
        return AbelCoordinate(
            self.degree - other.degree,
            tuple(a - b for a, b in zip(self.residues, other.residues)),
        )


def abel_coordinate(system: CycleSystem, d: Divisor) -> AbelCoordinate:
    """Residues of a divisor under the cycle parametrizations: each point
    placed from the first item of items_at through it, as in sigma."""
    c = system.curve
    return _abel(system, ((*_on_curve(c, p), m) for p, m in d.entries))


def _abel(system: CycleSystem, placed) -> AbelCoordinate:
    """The Abel coordinate of the points (item, end, key, multiplicity) of
    `_place`.  The residues are summed per cycle as numerators over a
    running lcm of the placements' denominators and reduced modulo the
    cycle's length; one Fraction is built per cycle."""
    ints = system._on_ints
    den, totals = ints[0], ints[1]
    res = [0] * len(totals)
    M = 1  # the residues are numerators over den * M
    degree = 0
    for it, end, key, mu in placed:
        degree += mu
        k, t, D = _place(ints, it, end, key)
        if k is None:
            continue
        if M % D:
            g = D // gcd(M, D)
            res = [r * g for r in res]
            M *= g
        res[k] += mu * t * (M // D)
    return AbelCoordinate(
        degree, tuple(Fraction(r % (T * M), den * M) for r, T in zip(res, totals))
    )


def require_reduced(curve: TropicalCurve) -> TropicalCurve:
    """Return the curve if every edge and ray has weight 1, else refuse it."""
    if not curve.is_reduced():
        raise UnsupportedCurveError(
            "curve is not reduced: an edge or ray has weight above 1"
        )
    return curve


def linearly_equivalent(system: CycleSystem, d1: Divisor, d2: Divisor) -> bool:
    """Equivalence decision: equal degree and componentwise equal residues.

    Only valid for reduced curves whose bunch is a bouquet; refused otherwise.
    """
    require_reduced(system.curve)
    return abel_coordinate(system, d1) == abel_coordinate(system, d2)


def linearly_equivalent_on(
    curve: TropicalCurve, d1: Divisor, d2: Divisor
) -> bool:
    return linearly_equivalent(cycle_system(curve), d1, d2)


def sigma(system: CycleSystem, mobile: TropicalCurve) -> AbelCoordinate:
    """Abel coordinate of the stable intersection with a mobile curve.

    Each entry of the intersection record (`intersect._entries`: its grid
    key (X, Y, D), its multiplicity and the host items through it) is placed
    from the first host item through it (`_place`) and summed as in
    abel_coordinate.  No Divisor or Point is built, and no point is looked
    up on the host.
    """
    return _abel(system, (
        (*at.its1[0], key, mu) for key, mu, at in _entries(system.curve, mobile)
    ))
