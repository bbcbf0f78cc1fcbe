"""Tropical curve data model: balancing validation, loops, overlay, translation.

A curve is a weighted rational-slope 1-complex: vertices at rational points,
finite edges between vertex indices, and rays (one vertex plus a primitive
integer direction).  Weights are positive integers.

Every construction reads the edges and rays as items (`Item`), each its
own integer view on the curve's grid.  The pair predicates are the two
products u.v and u x v on those integers (`_meet`), and each pair scan
reads the items from the curve's index (`ItemIndex`), built once per
curve.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, NamedTuple, Sequence

from .geom import (
    GeometryError,
    IntVector,
    Point,
    RefusalError,
    _over_lcd,
    area2,
    cross,
    moment,
    pt,
    show,
)


class StructureError(GeometryError):
    """Malformed curve data: bad indices, zero weights, coincident vertices."""


class InvalidCurveError(RefusalError):
    """Well-formed curve data that is unbalanced or crosses itself."""


class LoopError(GeometryError):
    """A probe loop violates its preconditions (hits a vertex, runs along an edge)."""


@dataclass(frozen=True)
class Edge:
    a: int
    b: int
    weight: int = 1


@dataclass(frozen=True)
class Ray:
    vertex: int
    direction: IntVector
    weight: int = 1


@dataclass(frozen=True)
class TropicalCurve:
    vertices: tuple[Point, ...]
    edges: tuple[Edge, ...]
    rays: tuple[Ray, ...]

    def is_reduced(self) -> bool:
        return all(it.weight == 1 for it in self._items)

    @classmethod
    def _on_grid(cls, den: int, xs, ys, edges, rays) -> TropicalCurve:
        """The curve whose vertex i is (xs[i], ys[i]) / den, for ints and a
        den > 0, holding the scale and grid that _scale and _grid compute.

        Its vertex Points are built on the first read of `vertices`
        (`__getattr__`); equality, hash and repr read them, so they behave
        as for the curve built from those Points."""
        g = gcd(den, *xs, *ys)
        scale = den // g
        c = object.__new__(cls)
        c.__dict__.update(
            edges=edges,
            rays=rays,
            _scale=scale,
            _grid=tuple((x // g, y // g) for x, y in zip(xs, ys)),
        )
        return c

    def __getattr__(self, name: str):
        # Called only for a missing attribute: the vertices of a curve of
        # _on_grid before their first read, built once from its grid.
        d = self.__dict__
        if name != "vertices" or "_grid" not in d:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        L = d["_scale"]
        vs = d["vertices"] = tuple(
            Point(Fraction(x, L), Fraction(y, L)) for x, y in d["_grid"]
        )
        return vs

    @cached_property
    def _scale(self) -> int:
        """The least common denominator of the vertex coordinates."""
        return lcm(*(q.denominator for v in self.vertices for q in (v.x, v.y)))

    @cached_property
    def _grid(self) -> tuple[tuple[int, int], ...]:
        """The vertices multiplied by the scale, as integer pairs."""
        _, ns = _over_lcd(q for v in self.vertices for q in (v.x, v.y))
        return tuple(zip(ns[::2], ns[1::2]))

    @cached_property
    def _items(self) -> tuple[Item, ...]:
        """The edges, then the rays, as items: the one gate every item
        passes.  A malformed item raises validate's StructureError."""
        grid, L = self._grid, self._scale
        n = len(grid)
        edges = []
        for i, e in enumerate(self.edges):
            a, b = e.a, e.b
            if not (0 <= a < n and 0 <= b < n):
                raise StructureError(f"edge {i} references vertex out of range")
            if a == b:
                raise StructureError(f"edge {i} has identical endpoints")
            if not isinstance(e.weight, int) or e.weight < 1:
                raise StructureError(f"edge {i} has non-positive weight")
            (tx, ty), (hx, hy) = grid[a], grid[b]
            vx, vy = hx - tx, hy - ty
            g = gcd(vx, vy)
            if not g:
                raise StructureError(
                    f"vertices {min(a, b)} and {max(a, b)} coincide at {show(self.vertices[a])}"
                )
            edges.append(Item(
                i, a, b, e.weight, IntVector(vx // g, vy // g), L, (tx, ty, vx, vy),
            ))
        rays = []
        for i, r in enumerate(self.rays):
            d = r.direction
            if not 0 <= r.vertex < n:
                raise StructureError(f"ray {i} references vertex out of range")
            if not isinstance(r.weight, int) or r.weight < 1:
                raise StructureError(f"ray {i} has non-positive weight")
            if not d:
                raise StructureError(f"ray {i} has zero direction")
            if gcd(d.x, d.y) != 1:
                raise StructureError(f"ray {i} direction is not primitive")
            rays.append(Item(i, r.vertex, None, r.weight, d, L, (*grid[r.vertex], d.x, d.y)))
        return tuple(edges + rays)

    @cached_property
    def _index(self) -> ItemIndex:
        """The integer index of the items that every pair scan reads, built
        on first use: never by the constructor or corner_locus."""
        return _index_of(self._items, self._scale)

    @cached_property
    def _keys(self) -> tuple[tuple[int, int, int], ...]:
        """Each vertex as (X, Y, D) with gcd 1, the point (X/D, Y/D): the
        intersection record's key of a meeting on the vertex, built on the
        first such meeting."""
        L = self._scale
        return tuple((x // g, y // g, L // g) for x, y in self._grid for g in (gcd(x, y, L),))


def curve(
    vertices: Iterable[tuple],
    edges: Iterable[tuple] = (),
    rays: Iterable[tuple] = (),
) -> TropicalCurve:
    """Convenience builder from plain tuples.

    vertices: (x, y) pairs; edges: (a, b[, weight]); rays: (v, (dx, dy)[, weight]).
    """
    vs = tuple(pt(x, y) for x, y in vertices)
    es = tuple(Edge(e[0], e[1], e[2] if len(e) > 2 else 1) for e in edges)
    rs = tuple(
        Ray(r[0], IntVector(r[1][0], r[1][1]), r[2] if len(r) > 2 else 1)
        for r in rays
    )
    return TropicalCurve(vs, es, rs)


class Item:
    """One edge or ray, as every construction reads it: ints only.

    The item leaves its tail vertex along the primitive direction prim.  An
    edge reaches its head vertex after `length` lattice steps, read from the
    integer view; a ray has no head and no length.

    The item is its own integer view, on the grid of `scale`: `lattice`
    holds the origin times `scale`, then the displacement times `scale` for
    an edge, or prim for a ray.  A curve's items are on its grid, `scale`
    its least common denominator, and its index holds them (`_index`); a
    pair scan reads an item of a smaller scale as a copy raised to the
    pair's grid (`_raise`), equal to it.  The pair predicates read the
    coordinates and the scale from the item.  An item holds no Point and no
    reference to its curve: a reader that needs an end as a Point takes the
    curve's vertex by the item's tail or head.  Items are read-only by
    convention.

    Two items are equal when they have the same index, tail, head, weight
    and direction and the same ends, compared on the integer views across
    their scales.
    """

    __slots__ = ("index", "tail", "head", "weight", "prim", "scale", "lattice")

    def __init__(
        self,
        index: int,  # position among the curve's edges, or among its rays
        tail: int,
        head: int | None,
        weight: int,
        prim: IntVector,
        scale: int,
        lattice: tuple[int, int, int, int],
    ):
        self.index = index
        self.tail = tail
        self.head = head
        self.weight = weight
        self.prim = prim
        self.scale = scale
        self.lattice = lattice

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Item):
            return NotImplemented
        s, t = self.scale, other.scale
        (ox, oy, vx, vy), (px, py, wx, wy) = self.lattice, other.lattice
        return (
            self.index == other.index
            and self.tail == other.tail
            and self.head == other.head
            and self.weight == other.weight
            and self.prim == other.prim
            and ox * t == px * s
            and oy * t == py * s
            and (self.head is None or (vx * t == wx * s and vy * t == wy * s))
        )

    def __hash__(self) -> int:
        return hash((self.index, self.tail, self.head, self.weight, self.prim))

    def __repr__(self) -> str:
        return (
            f"Item(index={self.index}, tail={self.tail}, head={self.head}, "
            f"weight={self.weight}, prim={self.prim})"
        )

    @property
    def bounded(self) -> bool:
        return self.head is not None

    @property
    def length(self) -> Fraction | None:
        """The lattice length of an edge, gcd of its grid displacement over
        the scale; None for a ray."""
        if self.head is None:
            return None
        return Fraction(gcd(self.lattice[2], self.lattice[3]), self.scale)

    @property
    def kind(self) -> str:
        """'edge' or 'ray', for messages and JSON."""
        return "edge" if self.bounded else "ray"


def items(c: TropicalCurve) -> tuple[Item, ...]:
    """The curve's edges, then its rays, as items; built once per curve."""
    return c._items


class Shared(NamedTuple):
    """The part two collinear items share: its two ends, or one for a ray,
    each as one of `_meet`'s (s, t, den) reports."""

    ends: tuple


def _raise(it: Item, f: int) -> Item:
    """The item on the grid of f times its scale: the item itself for
    f == 1, else a copy, equal to it.  A ray keeps its primitive direction;
    only its parameter unit changes."""
    if f == 1:
        return it
    ox, oy, vx, vy = it.lattice
    if it.head is not None:
        vx, vy = vx * f, vy * f
    return Item(
        it.index, it.tail, it.head, it.weight, it.prim, it.scale * f, (ox * f, oy * f, vx, vy)
    )


class ItemIndex(NamedTuple):
    """The integer index of a curve, or of a sequence of items, that the one
    pair sweep (`_sweep`) reads: built once, on the grid of `scale`.

    `views` holds the items on that grid: a curve's own items, or copies of
    items of a smaller scale raised to it (`_raise`).  `boxes` holds each
    item's finite box (x low, x high, y low, y high), for a ray its origin;
    `extent` the box of them all (None without items).  `order` lists the
    positions by x low once each ray's open sides are fitted to any extent:
    rays running toward -x first, then by the finite x low, an order that no
    raise to a larger scale changes.  `raised` keeps the items and finite
    boxes raised by a factor f > 1 for the sweep (`_raised_by`), at most
    RAISED_KEPT factors.
    """

    scale: int
    views: tuple[Item, ...]
    boxes: tuple[tuple[int, int, int, int], ...]
    extent: tuple[int, int, int, int] | None
    rays: tuple[int, ...]  # positions of the rays among the items
    order: tuple[int, ...]
    raised: dict[int, tuple[Sequence[Item], Sequence[tuple[int, int, int, int]]]]


def _index_of(its: Sequence[Item], scale: int) -> ItemIndex:
    """The index of items on the grid of `scale`, a multiple of each item's
    scale."""
    views = tuple(_raise(it, scale // it.scale) for it in its)
    boxes, rays = [], []
    for k, it in enumerate(views):
        ox, oy, vx, vy = it.lattice
        if it.head is None:
            rays.append(k)
            boxes.append((ox, ox, oy, oy))
        else:
            ex, ey = ox + vx, oy + vy
            boxes.append((min(ox, ex), max(ox, ex), min(oy, ey), max(oy, ey)))
    extent = None
    if boxes:
        extent = (
            min(b[0] for b in boxes), max(b[1] for b in boxes),
            min(b[2] for b in boxes), max(b[3] for b in boxes),
        )
    west = {k for k in rays if views[k].prim.x < 0}
    order = sorted(range(len(views)), key=lambda k: (k not in west, boxes[k][0]))
    return ItemIndex(scale, views, tuple(boxes), extent, tuple(rays), tuple(order), {})


def _raised(ix: ItemIndex, scale: int) -> Sequence[Item]:
    """The index's items on the grid of `scale`, a proper multiple of its
    own, as new copies."""
    f = scale // ix.scale
    return [_raise(it, f) for it in ix.views]


# The most raised copies an index keeps.  A walk's host meets a new mobile
# curve every step, on 13 to 20 distinct factors over 800 steps, and keeping
# the 8 last used serves about 95% of its raises.
RAISED_KEPT = 8


def _raised_by(ix: ItemIndex, f: int):
    """(items, finite boxes) of the index raised by f: its own for f == 1,
    else kept in `ix.raised`, the least recently used factor dropped once
    RAISED_KEPT are kept."""
    if f == 1:
        return ix.views, ix.boxes
    kept = ix.raised
    got = kept.pop(f, None)
    if got is None:
        got = (
            _raised(ix, ix.scale * f),
            [(x0 * f, x1 * f, y0 * f, y1 * f) for x0, x1, y0, y1 in ix.boxes],
        )
        if len(kept) >= RAISED_KEPT:
            del kept[next(iter(kept))]
    kept[f] = got
    return got


def _boxes(ix: ItemIndex, f: int, extent) -> Sequence[tuple[int, int, int, int]]:
    """The index's boxes raised by f, each ray's open sides ending one unit
    past `extent` (x low, x high, y low, y high), the finite extent of all
    the items scanned, where no other box ends: so the boxes of two items
    that meet overlap, and no unbounded value enters."""
    boxes = _raised_by(ix, f)[1]
    if ix.rays:
        boxes = list(boxes)
        ex0, ex1, ey0, ey1 = extent
        for k in ix.rays:
            _, _, vx, vy = ix.views[k].lattice
            x0, x1, y0, y1 = boxes[k]
            boxes[k] = (
                ex0 - 1 if vx < 0 else x0, ex1 + 1 if vx > 0 else x1,
                ey0 - 1 if vy < 0 else y0, ey1 + 1 if vy > 0 else y1,
            )
    return boxes


def _point_on(it: Item, t: int, den: int) -> Point:
    """The point at parameter t/den along the item, with den > 0, built
    from its integer view."""
    ox, oy, vx, vy = it.lattice
    n = it.scale * den
    return Point(Fraction(ox * den + vx * t, n), Fraction(oy * den + vy * t, n))


def _meet(a: Item, b: Item):
    """Where two closed items of one scale meet: None, a point, or the
    Shared part with its one or two ends as points.

    A point is (s, t, den), den > 0: it lies s/den along a and t/den along
    b, so s == 0 is a's tail, s == den a's head for an edge, and t marks
    b's ends alike.  Every test is a sign test on integers; no Point is
    built.
    """
    aox, aoy, avx, avy = a.lattice
    box, boy, bvx, bvy = b.lattice
    dx, dy = box - aox, boy - aoy
    den = avx * bvy - bvx * avy
    if den:
        # a meets b at a + s*va = b + t*vb, s = sn/den and t = tn/den
        sn = dx * bvy - bvx * dy
        tn = dx * avy - avx * dy
        if den < 0:
            den, sn, tn = -den, -sn, -tn
        if sn < 0 or tn < 0:
            return None
        if (a.head is not None and sn > den) or (b.head is not None and tn > den):
            return None
        return sn, tn, den
    if avx * dy - dx * avy:
        return None
    # same line: the low and high ends of b, then of the shared part, as
    # points over q = |va|^2, first entry the parameter along a; None where
    # open.  An end of a is over |vb|^2 instead.
    q, c0 = avx * avx + avy * avy, dx * avx + dy * avy
    lo, hi = (c0, 0, q), None
    if b.head is not None:
        hi = (c0 + bvx * avx + bvy * avy, q, q)
        lo, hi = (lo, hi) if lo[0] < hi[0] else (hi, lo)
    elif bvx * avx + bvy * avy < 0:
        lo, hi = None, lo
    # the parameters along a of the shared part's ends, over q
    s_lo, s_hi = (lo[0] if lo else 0), (hi[0] if hi else None)
    if lo is None or s_lo < 0:
        s_lo, lo = 0, (0, -(dx * bvx + dy * bvy), bvx * bvx + bvy * bvy)
    if a.head is not None and (hi is None or s_hi > q):
        qb = bvx * bvx + bvy * bvy
        s_hi, hi = q, (qb, (avx - dx) * bvx + (avy - dy) * bvy, qb)
    if hi is None:
        return Shared((lo,))
    if s_lo < s_hi:
        return Shared((lo, hi))
    return lo if s_lo == s_hi else None


def _end(it: Item, s: int, den: int) -> int | None:
    """Which end of the item the parameter s/den of a report marks: 0 its
    tail, 1 an edge's head, None a point inside."""
    if s == 0:
        return 0
    if s == den and it.head is not None:
        return 1
    return None


def _sweep(x: ItemIndex, y: ItemIndex | None, test: Callable[[Item, Item], object]) -> list:
    """(a, b, report) for each pair of items whose boxes overlap and whose
    report test(a, b) is not None, on the grid of the two indexes' common
    scale, in the order of the scan of all pairs: with one index, positions
    i < j in lexicographic order; with two, x-major.

    Sweep and prune: the boxes are visited by x low, each against the boxes
    still open at that x (of the other index, when there are two), and a
    pair is tested the moment its y intervals overlap too; only the pairs
    it reports on are kept, then put in order.  A side whose scale is below
    the pair's is read raised (`_raised_by`), and only the rays' open sides
    are fitted to the pair's extent (`_boxes`).
    """
    if y is None:
        views, boxes, order, n = x.views, _boxes(x, 1, x.extent), x.order, len(x.views)
    else:
        scale = lcm(x.scale, y.scale)
        f1, f2 = scale // x.scale, scale // y.scale
        sides = [(e, f) for e, f in ((x.extent, f1), (y.extent, f2)) if e is not None]
        if not sides:
            return []
        extent = (
            min(e[0] * f for e, f in sides), max(e[1] * f for e, f in sides),
            min(e[2] * f for e, f in sides), max(e[3] * f for e, f in sides),
        )
        n = len(x.views)
        views = [*_raised_by(x, f1)[0], *_raised_by(y, f2)[0]]
        boxes = [*_boxes(x, f1, extent), *_boxes(y, f2, extent)]
        # two runs already in order: the sort merges them
        order = [*x.order, *(n + k for k in y.order)]
        order.sort(key=[b[0] for b in boxes].__getitem__)
    # Each box is tested against the open boxes of side `side ^ two`: with
    # one index every box is on side 0 and meets side 0; with two, the
    # boxes of y are on side 1 and each side meets the other.
    two = y is not None
    open_: tuple[list, list] = ([], [])  # per side, by x high: (x high, y low, y high, k, item)
    kept = []
    for k in order:
        x0, x1, y0, y1 = boxes[k]
        side = k >= n
        other = open_[side ^ two]
        if other and other[0][0] < x0:
            del other[:bisect_left(other, (x0,))]
        it = views[k]
        for _, b0, b1, j, jt in other:
            if b0 <= y1 and y0 <= b1:
                m = test(jt, it) if j < k else test(it, jt)
                if m is not None:
                    kept.append((j, k, m) if j < k else (k, j, m))
        insort(open_[side], (x1, y0, y1, k, it))
    kept.sort()  # by positions: no two pairs share them, so no report is compared
    return [(views[i], views[j], m) for i, j, m in kept]


def _scan(x: ItemIndex, y: ItemIndex | None = None) -> list[tuple[Item, Item, tuple]]:
    """The pair scan: _sweep's (a, b, report) for each pair that _meet finds meeting."""
    return _sweep(x, y, _meet)


def _star(its: Iterable[tuple[Item, int | None]]) -> list[tuple[int, int]]:
    """The weighted primitive vectors (x, y) leaving a point along items
    through it, each item given with the end of it the point is (0 its
    tail, 1 an edge's head, None inside).

    An item leaves the point forward unless it is the item's head, and
    backward unless it is its tail, so an interior point gives both
    directions.
    """
    star = []
    for it, end in its:
        wx, wy = it.prim.x * it.weight, it.prim.y * it.weight
        if end != 1:
            star.append((wx, wy))
        if end != 0:
            star.append((-wx, -wy))
    return star


@dataclass(frozen=True)
class BalanceReport:
    """Per-vertex balancing residuals plus embedding diagnostics."""

    residuals: tuple[IntVector, ...]
    embedding_violations: tuple[str, ...]

    @property
    def balanced(self) -> bool:
        return all(not r for r in self.residuals)

    @property
    def passed(self) -> bool:
        return self.balanced and not self.embedding_violations


def validate(c: TropicalCurve) -> BalanceReport:
    """Check balancing at every vertex and the embedding invariants.

    Coincident vertices, a malformed item (items(c)) and an isolated vertex
    raise StructureError, in that order; imbalance and embedding violations
    are reported, not raised.
    """
    first: dict[tuple[int, int], int] = {}
    for i, g in enumerate(c._grid):
        j = first.setdefault(g, i)
        if j != i:
            raise StructureError(f"vertices {j} and {i} coincide at {show(c.vertices[i])}")
    ends = {v for it in items(c) for v in (it.tail, it.head)}
    for i in range(len(c._grid)):
        if i not in ends:
            raise StructureError(f"vertex {i} is isolated")
    violations = []
    for a, b, m in _scan(c._index):
        if type(m) is Shared:
            violations.append(
                f"{a.kind} {a.index} and {b.kind} {b.index} overlap "
                "along a segment"
            )
            continue
        # Vertices are distinct by now, so a meeting is a shared vertex
        # exactly when it is an end of both items.
        s, t, den = m
        if _end(a, s, den) is None or _end(b, t, den) is None:
            violations.append(
                f"{a.kind} {a.index} and {b.kind} {b.index} meet at "
                f"{show(_point_on(a, s, den))} which is not a shared vertex"
            )
    residuals = tuple(IntVector(x, y) for x, y in _residuals(c))
    return BalanceReport(residuals, tuple(violations))


def _residuals(c: TropicalCurve) -> list[tuple[int, int]]:
    """Each vertex's balancing residual (x, y), in one pass over the items."""
    rx, ry = [0] * len(c._grid), [0] * len(c._grid)
    for it in items(c):
        wx, wy = it.prim.x * it.weight, it.prim.y * it.weight
        rx[it.tail] += wx
        ry[it.tail] += wy
        if it.head is not None:
            rx[it.head] -= wx
            ry[it.head] -= wy
    return list(zip(rx, ry))


def _require_balanced(residuals: Iterable[tuple[int, int]]) -> None:
    """Refuse the first vertex whose residual (x, y) is not zero."""
    for v, (x, y) in enumerate(residuals):
        if x or y:
            raise InvalidCurveError(
                f"curve is not balanced: vertex {v} has residual ({x}, {y})"
            )


def require_valid(c: TropicalCurve) -> TropicalCurve:
    """Return c if it is a balanced embedded curve, else refuse it: the one
    admission gate of every analysis.

    Malformed data raises StructureError; imbalance or a crossing raises
    InvalidCurveError naming the first defect found by validate.  A pass
    is kept in the curve's __dict__ as `_valid`, so validate runs once per
    curve; a curve valid by construction (corner_locus, translate of a
    valid curve, a point of a certified skeleton) is born with it.  A curve
    that fails keeps nothing and is refused on every call.
    """
    if "_valid" not in c.__dict__:
        report = validate(c)
        _require_balanced((r.x, r.y) for r in report.residuals)
        if report.embedding_violations:
            raise InvalidCurveError(
                f"curve crosses itself: {report.embedding_violations[0]}"
            )
        c.__dict__["_valid"] = True
    return c


def translate(c: TropicalCurve, t: Point) -> TropicalCurve:
    """c moved by t; the copy of a curve that passed require_valid is born
    valid."""
    moved = TropicalCurve(
        tuple(v + t for v in c.vertices), c.edges, c.rays
    )
    if "_valid" in c.__dict__:
        moved.__dict__["_valid"] = True
    return moved


def items_at(c: TropicalCurve, p: Point) -> list[tuple[Item, int | None]]:
    """Every item that contains p, ends included, in item order, each as
    (item, end): end 0 where p is the item's tail, 1 an edge's head, None
    inside.  The test cross-multiplies p and the items on the curve's own
    grid: p lies t / (|v|^2 e) along an item of integer view v."""
    d, (xn, yn) = _over_lcd((p.x, p.y))
    g = gcd(d, c._scale)
    # on the grid of lcm(scale, d) = scale * e: p is (px, py), an item e times
    e, s = d // g, c._scale // g
    px, py = xn * s, yn * s
    out = []
    for it in c._items:
        ox, oy, vx, vy = it.lattice
        dx, dy = px - ox * e, py - oy * e
        if vx * dy - dx * vy:
            continue
        t, q = dx * vx + dy * vy, (vx * vx + vy * vy) * e
        if 0 <= t and (it.head is None or t <= q):
            out.append((it, _end(it, t, q)))
    return out


def locate(c: TropicalCurve, p: Point):
    """Where a point sits on the curve: ('vertex', i), else the first item of
    items_at as ('edge', i) or ('ray', i) (interior, since its ends are
    vertices), else None."""
    for i, v in enumerate(c.vertices):
        if v == p:
            return ("vertex", i)
    hit = items_at(c, p)
    return (hit[0][0].kind, hit[0][0].index) if hit else None


def local_star(c: TropicalCurve, p: Point) -> list[IntVector]:
    """Weighted primitive vectors leaving p along every item of items_at: a
    vertex's full star, both directions of an item through an interior
    point, nothing off the curve."""
    return [IntVector(x, y) for x, y in _star(items_at(c, p))]


# ---------------------------------------------------------------------------
# Loops: global balancing and moment sums around simple closed polygons.
# ---------------------------------------------------------------------------


def _loop_sides(loop: Sequence[Point]) -> ItemIndex:
    """The index of the sides of a simple closed polygon, side k from corner
    k to k + 1."""
    n = len(loop)
    if n < 3:
        raise LoopError("loop needs at least 3 points")
    if any(loop[k] == loop[(k + 1) % n] for k in range(n)):
        raise LoopError("loop has a zero-length side")
    polygon = TropicalCurve(
        tuple(loop), tuple(Edge(k, (k + 1) % n) for k in range(n)), ()
    )
    sides = polygon._index
    # Adjacent sides that do not overlap meet only at their shared corner.
    for a, b, m in _scan(sides):
        i, j = a.index, b.index
        if type(m) is Shared or not (j == i + 1 or (i == 0 and j == n - 1)):
            raise LoopError("loop is not a simple polygon")
    return sides


def _loop_crossings(c: TropicalCurve, loop: Sequence[Point]):
    """Transversal crossings of curve items with the loop boundary.

    A list of (item, signed weighted primitive vector pointing out of the
    loop, crossing point).  Raises LoopError on any non-transversal contact.
    Once every contact is transversal, the outward sign comes from the side
    crossed: the interior lies left of a counterclockwise side, right of a
    clockwise one.  The sides' ends are the loop's corners, since the loop
    is simple.
    """
    sides = _loop_sides(loop)
    ccw = area2(loop) > 0
    out = []
    for it, side, m in _scan(c._index, sides):
        if type(m) is Shared:
            raise LoopError(f"loop runs along {it.kind} {it.index}")
        s, t, den = m
        if _end(side, t, den) is not None:
            raise LoopError("loop corner touches the curve")
        if _end(it, s, den) is not None:
            raise LoopError("loop passes through a curve vertex")
        w = it.prim * it.weight
        w = w if (cross(w, side.prim) > 0) == ccw else -w
        out.append((it, w, _point_on(it, s, den)))
    return out


def global_balance_sum(c: TropicalCurve, loop: Sequence[Point]) -> IntVector:
    """Sum of weighted primitive vectors of crossed edges, taken outward.

    Zero for every valid curve and admissible loop.
    """
    total = IntVector(0, 0)
    for _, w, _ in _loop_crossings(c, loop):
        total = total + w
    return total


def moment_sum(
    c: TropicalCurve, loop: Sequence[Point], base: Point
) -> Fraction:
    """Sum of moments of outward crossing vectors about a base point."""
    total = Fraction(0)
    for _, w, p in _loop_crossings(c, loop):
        total += moment(w, p, base)
    return total


# ---------------------------------------------------------------------------
# Overlay (union) of two curves.
# ---------------------------------------------------------------------------


def union(c1: TropicalCurve, c2: TropicalCurve) -> TropicalCurve:
    """Overlay of two curves as one simplicial complex.

    Edges split at all crossings and at vertices of the other curve;
    collinear overlapping portions merge with weights added.

    Each item is cut at the meetings inside it, a cut being u/den along the
    item on the grid of both curves: a fraction of an edge, steps of prim /
    scale along a ray.  Its ends are its curve's vertex Points.
    """
    n1 = len(items(c1))
    all_items = items(c1) + items(c2)
    ix = _index_of(all_items, lcm(c1._scale, c2._scale))
    # Keyed by value: an item that occurs twice, as in union(c, c), is one
    # segment and is cut at the same points both times.
    splits: dict[Item, set[Fraction]] = {it: set() for it in ix.views}
    for a, b, m in _scan(ix):
        for s, t, den in m.ends if type(m) is Shared else (m,):
            for it, u in ((a, s), (b, t)):
                if _end(it, u, den) is None:
                    splits[it].add(Fraction(u, den))

    seg_weight: dict[tuple, int] = {}
    tail_weight: dict[tuple, int] = {}

    for k, it in enumerate(ix.views):
        vs = c1.vertices if k < n1 else c2.vertices
        cuts = [_point_on(it, u.numerator, u.denominator) for u in sorted(splits[it])]
        pts = [vs[it.tail], *cuts]
        if it.head is not None:
            pts.append(vs[it.head])
        for a, b in zip(pts, pts[1:]):
            ka, kb = (a.x, a.y), (b.x, b.y)
            key = (ka, kb) if ka <= kb else (kb, ka)
            seg_weight[key] = seg_weight.get(key, 0) + it.weight
        if not it.bounded:
            tk = ((pts[-1].x, pts[-1].y), (it.prim.x, it.prim.y))
            tail_weight[tk] = tail_weight.get(tk, 0) + it.weight

    vertex_keys = sorted(
        {k for key in seg_weight for k in key}
        | {origin for origin, _ in tail_weight}
    )
    index = {k: i for i, k in enumerate(vertex_keys)}
    vs = tuple(Point(x, y) for x, y in vertex_keys)
    es = tuple(
        Edge(index[a], index[b], w)
        for (a, b), w in sorted(seg_weight.items())
    )
    rs = tuple(
        Ray(index[origin], IntVector(dx, dy), w)
        for (origin, (dx, dy)), w in sorted(tail_weight.items())
    )
    return TropicalCurve(vs, es, rs)


def normalize(c: TropicalCurve) -> TropicalCurve:
    """Fuse 2-valent vertices whose two collinear items carry equal weight.

    Opposite rays at a vertex are kept (a vertex-free line is not
    representable).  Explicit pass; construction never normalizes implicitly.
    """
    while True:
        star: list[list[Item]] = [[] for _ in c.vertices]
        for it in items(c):
            star[it.tail].append(it)
            if it.bounded:
                star[it.head].append(it)
        for v, pair in enumerate(star):
            if len(pair) != 2:
                continue
            a, b = pair
            (ax, ay), (bx, by) = _star((it, 0 if it.tail == v else 1) for it in pair)
            if (a.bounded or b.bounded) and (ax, ay) == (-bx, -by):
                c = _fuse_vertex(c, v, a, b)
                break
        else:
            return c


def _fuse_vertex(c: TropicalCurve, v: int, a: Item, b: Item) -> TropicalCurve:
    """Replace the two items at vertex v by one, then drop v."""
    def far(it: Item) -> int | None:
        return it.head if it.tail == v else it.tail

    gone_edges = {it.index for it in (a, b) if it.bounded}
    gone_rays = {it.index for it in (a, b) if not it.bounded}
    keep_edges = [e for i, e in enumerate(c.edges) if i not in gone_edges]
    keep_rays = [r for i, r in enumerate(c.rays) if i not in gone_rays]
    if a.bounded and b.bounded:
        keep_edges.append(Edge(far(a), far(b), a.weight))
    else:
        edge, ray = (a, b) if a.bounded else (b, a)
        keep_rays.append(Ray(far(edge), ray.prim, a.weight))
    # drop vertex v, reindex
    def new(i: int) -> int:
        return i - (i > v)

    es = tuple(Edge(new(e.a), new(e.b), e.weight) for e in keep_edges)
    rs = tuple(Ray(new(r.vertex), r.direction, r.weight) for r in keep_rays)
    return TropicalCurve(c.vertices[:v] + c.vertices[v + 1:], es, rs)


def canonical_form(c: TropicalCurve) -> tuple:
    """Relabeling-invariant description, for equality up to vertex order."""
    order = sorted(range(len(c.vertices)), key=lambda i: (c.vertices[i].x, c.vertices[i].y))
    rank = {old: new for new, old in enumerate(order)}
    vs = tuple((c.vertices[i].x, c.vertices[i].y) for i in order)
    es = tuple(sorted(
        (min(rank[it.tail], rank[it.head]), max(rank[it.tail], rank[it.head]), it.weight)
        for it in items(c) if it.bounded
    ))
    rs = tuple(sorted(
        (rank[it.tail], it.prim.x, it.prim.y, it.weight)
        for it in items(c) if not it.bounded
    ))
    return (vs, es, rs)
