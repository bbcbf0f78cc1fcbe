"""Lattice-length coordinates on the cycles of a curve.

Each bouquet cycle is parametrized by lattice length, counterclockwise,
starting at its attachment to the bouquet center.  A divisor then gets one
residue per cycle (sum of the parameters of its points, weighted by
multiplicity, modulo the cycle's total lattice length).  Two divisors of a
reduced bouquet curve are linearly equivalent exactly when their degrees and
all residues agree.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .geom import GeometryError, Point, RefusalError, area2
from .curve import Item, TropicalCurve, _end_at, items, items_at
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
    def _node_images(self) -> dict[int, tuple[int | None, Fraction]]:
        """Quotient image of each bunch node: (None, 0) at the center, else
        its first (cycle, breakpoint) in cycle order, then path order."""
        node_of = self.graph.node_of_vertex
        images: dict[int, tuple[int | None, Fraction]] = {}
        for cp in self.cycles:
            for v, t in zip(cp.vertex_path[:-1], cp.breakpoints):
                images.setdefault(node_of[v], (cp.index, t))
        images[self.bouquet.center_node] = (None, Fraction(0))
        return images

    @cached_property
    def _cycle_edges(self) -> dict[int, tuple[CycleParametrization, int]]:
        """Each edge on a cycle to (its cycle, its position i on the path),
        the edge running from vertex_path[i] to vertex_path[i + 1]."""
        return {e: (cp, i) for cp in self.cycles for i, e in enumerate(cp.edge_indices)}

    @cached_property
    def _on_ints(self):
        """The cycle data as integer numerators over one common denominator
        D, a multiple of the curve's scale: (D, each cycle's total length,
        each vertex's image (cycle or None, parameter), and for each edge on
        a cycle (cycle, parameter of its tail, +1 when the path runs along
        the edge and -1 against it, its tail's grid point, prim)).

        A point inside a cycle edge takes the tail's parameter plus or
        minus the lattice run to it, as in _project_on; a point inside any
        other item takes the image of the item's tail."""
        c = self.curve
        D = lcm(c._scale, *(t.denominator for cp in self.cycles for t in cp.breakpoints))

        def on(t: Fraction) -> int:
            return t.numerator * (D // t.denominator)

        node_of, images = self.graph.node_of_vertex, self._node_images
        vertex = []
        for v in range(len(c.vertices)):
            k, t = images[node_of[v]]
            vertex.append((k, on(t)))
        f = D // c._scale
        edges = {}
        for e, (cp, i) in self._cycle_edges.items():
            it = c._items[e]
            along = it.tail == cp.vertex_path[i]
            ox, oy = c._grid[it.tail]
            edges[e] = (
                cp.index, on(cp.breakpoints[i if along else i + 1]), 1 if along else -1,
                ox * f, oy * f, it.prim.x, it.prim.y,
            )
        return D, [on(cp.total_length) for cp in self.cycles], vertex, edges


def cycle_system(curve: TropicalCurve) -> CycleSystem:
    """Build the cycle coordinates; refuses non-bouquet topologies."""
    g = bunch(curve)
    bq = bouquet_structure(curve, g)
    if isinstance(bq, NotABouquet):
        raise UnsupportedCurveError(f"bunch is not a bouquet: {bq.reason}")
    return CycleSystem(curve, g, bq, parametrize_cycles(curve, bq))


def project_point(system: CycleSystem, p: Point) -> tuple[int | None, Fraction]:
    """Quotient image of a curve point as (cycle index, residue).

    The point is a vertex or an interior point of the first item of items_at.
    Points on a cycle keep their parameter; a vertex, or a point on a
    tentacle or ray, maps to the image of its contracted blob (the system's
    node images): the cycle point where that blob attaches, or (None, 0) at
    the bouquet center.
    """
    hit = items_at(system.curve, p)
    if not hit:
        raise GeometryError(f"point ({p.x}, {p.y}) is not on the curve")
    it = hit[0]
    end = _end_at(it, p)
    if end is not None:
        return _vertex_image(system, it.tail if end == 0 else it.head)
    return _project_on(system, it, p)


def _vertex_image(system: CycleSystem, v: int) -> tuple[int | None, Fraction]:
    """project_point for vertex v."""
    return system._node_images[system.graph.node_of_vertex[v]]


def _project_on(
    system: CycleSystem, it: Item, p: Point
) -> tuple[int | None, Fraction]:
    """project_point for a point p inside item it, it being the first item
    of the curve that holds p.

    A point interior to a cycle edge takes the breakpoint of the edge's
    tail on the path, plus the lattice run from the tail to p when the path
    runs along the edge, minus it when the path runs against it: the
    inverse of CycleParametrization.point_at on the cycle, found without
    scanning it."""
    on_cycle = system._cycle_edges.get(it.index) if it.bounded else None
    if on_cycle is None:
        return _vertex_image(system, it.tail)
    cp, i = on_cycle
    o, u = system.curve.vertices[it.tail], it.prim
    run = (p.x - o.x) / u.x if u.x else (p.y - o.y) / u.y
    if it.tail == cp.vertex_path[i]:
        t = cp.breakpoints[i] + run
    else:
        t = cp.breakpoints[i + 1] - run
    return (cp.index, t % cp.total_length)


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
    """Residues of a divisor under the cycle parametrizations."""
    return _coordinate(system, d, [project_point(system, p) for p, _ in d.entries])


def _coordinate(system: CycleSystem, d: Divisor, images) -> AbelCoordinate:
    """abel_coordinate with the quotient image of each point of d, in order."""
    res = [Fraction(0)] * system.genus
    for (k, t), (_, m) in zip(images, d.entries, strict=True):
        if k is not None:
            res[k] += m * t
    res = [
        r % cp.total_length for r, cp in zip(res, system.cycles)
    ]
    return AbelCoordinate(d.degree, tuple(res))


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
    from the first host item through it: the image of its tail or head
    vertex, or, inside an edge of a cycle, the run from the edge's tail on
    the cycle's integer data (`CycleSystem._on_ints`).  The residues are
    summed per cycle as numerators over a running lcm of the keys' D and
    reduced modulo the cycle's length; one Fraction is built per cycle.  No
    Divisor or Point is built, and no point is looked up on the host.
    """
    den, totals, vertex, edges = system._on_ints
    res = [0] * len(totals)
    M = 1  # the residues are numerators over den * M
    degree = 0
    for (X, Y, D), mu, at in _entries(system.curve, mobile):
        degree += mu
        it, end = at.its1[0]
        place = edges.get(it.index) if end is None and it.head is not None else None
        if place is None:
            k, t = vertex[it.tail if end != 1 else it.head]
            D = 1
        else:
            k, t, sign, ox, oy, ux, uy = place
            # the run from the tail, over D * den; exact, as prim is primitive
            run = (X * den - ox * D) // ux if ux else (Y * den - oy * D) // uy
            t = t * D + sign * run
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
