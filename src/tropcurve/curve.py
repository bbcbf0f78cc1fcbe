"""Tropical curve data model: balancing validation, loops, overlay, translation.

A curve is a weighted rational-slope 1-complex: vertices at rational points,
finite edges between vertex indices, and rays (one vertex plus a primitive
integer direction).  Weights are positive integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

from .geom import (
    GeometryError,
    IntVector,
    Point,
    RefusalError,
    area2,
    cross,
    dot,
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
        den > 0, with the scale and grid that _scale and _grid compute."""
        g = gcd(den, *xs, *ys)
        scale = den // g
        grid = tuple((x // g, y // g) for x, y in zip(xs, ys))
        c = cls(
            tuple(Point(Fraction(x, scale), Fraction(y, scale)) for x, y in grid),
            edges,
            rays,
        )
        c.__dict__.update(_scale=scale, _grid=grid)
        return c

    @cached_property
    def _scale(self) -> int:
        """The least common denominator of the vertex coordinates."""
        return lcm(*(q.denominator for v in self.vertices for q in (v.x, v.y)))

    @cached_property
    def _grid(self) -> tuple[tuple[int, int], ...]:
        """The vertices multiplied by the scale, as integer pairs."""
        L = self._scale
        return tuple(
            (v.x.numerator * (L // v.x.denominator),
             v.y.numerator * (L // v.y.denominator))
            for v in self.vertices
        )

    @cached_property
    def _items(self) -> tuple[Item, ...]:
        """The edges, then the rays, as items: the one gate every item
        passes.  A malformed item raises validate's StructureError."""
        vs, grid, L = self.vertices, self._grid, self._scale
        n = len(vs)
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
                    f"vertices {min(a, b)} and {max(a, b)} coincide at {show(vs[a])}"
                )
            edges.append(Item(
                i, a, b, (vs[a], vs[b]), e.weight,
                IntVector(vx // g, vy // g), Fraction(g, L), L, (tx, ty, vx, vy),
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
            rays.append(Item(
                i, r.vertex, None, (vs[r.vertex],), r.weight, d,
                None, L, (*grid[r.vertex], d.x, d.y),
            ))
        return tuple(edges + rays)


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


@dataclass(frozen=True)
class Item:
    """One edge or ray, as every construction reads it.

    The item leaves its tail vertex along the primitive direction prim.  An
    edge reaches its head vertex after `length` lattice steps; a ray has no
    head and no length.

    The integer view is the item on the curve's grid: `lattice` holds the
    origin times `scale` (the curve's least common denominator), then the
    displacement times `scale` for an edge, or prim for a ray.  The pair
    predicates run on it; it takes no part in equality.
    """

    index: int  # position among the curve's edges, or among its rays
    tail: int
    head: int | None
    ends: tuple[Point, ...]  # position of the tail vertex, then of the head
    weight: int
    prim: IntVector
    length: Fraction | None
    scale: int = field(compare=False, repr=False)
    lattice: tuple[int, int, int, int] = field(compare=False, repr=False)

    @property
    def bounded(self) -> bool:
        return self.head is not None

    @property
    def kind(self) -> str:
        """'edge' or 'ray', for messages and JSON."""
        return "edge" if self.bounded else "ray"

    @property
    def origin(self) -> Point:
        """Position of the tail vertex."""
        return self.ends[0]

    @cached_property
    def vec(self) -> Point:
        """Full displacement for an edge, primitive direction for a ray."""
        if self.bounded:
            return self.ends[1] - self.ends[0]
        return self.prim.to_point()

    def param_of(self, p: Point) -> Fraction:
        """Coordinate of a point on the item's line, in units of vec."""
        return Fraction(dot(p - self.origin, self.vec)) / dot(self.vec, self.vec)

    def point_at(self, t: Fraction) -> Point:
        return self.origin + self.vec * t


def items(c: TropicalCurve) -> tuple[Item, ...]:
    """The curve's edges, then its rays, as items; built once per curve."""
    return c._items


class Shared(NamedTuple):
    """The part two collinear items share: its two ends, or one for a ray."""

    ends: tuple[Point, ...]


def _common_scale(its: Iterable[Item]) -> int:
    """The least common multiple of the items' scales."""
    return lcm(*{it.scale for it in its})


class View(NamedTuple):
    """An item's integer view on a grid shared with other items."""

    item: Item
    ox: int
    oy: int
    vx: int
    vy: int


def _lattice(its: Iterable[Item], scale: int) -> list[View]:
    """Each item's integer view raised to a common scale.

    A ray keeps its primitive direction; only its parameter unit changes.
    """
    out = []
    for it in its:
        ox, oy, vx, vy = it.lattice
        f = scale // it.scale
        if f != 1:
            ox, oy = ox * f, oy * f
            if it.head is not None:
                vx, vy = vx * f, vy * f
        out.append(View(it, ox, oy, vx, vy))
    return out


def _point_on(v: View, t: int, den: int, scale: int) -> Point:
    """The point at parameter t/den along view v, with den > 0.

    An end of the item is returned as the item's own Point; any other point
    is the one Fraction built, from the grid of the given scale.
    """
    if t == 0:
        return v.item.origin
    if t == den and v.item.head is not None:
        return v.item.ends[1]
    n = scale * den
    return Point(Fraction(v.ox * den + v.vx * t, n), Fraction(v.oy * den + v.vy * t, n))


def _meet(a: View, b: View, scale: int) -> Point | Shared | None:
    """Intersection of two closed items given as views of one scale.

    Every test is a sign test on integers.  A Point is built only for a
    meeting interior to both items; any other is an item's own end.
    """
    ia, aox, aoy, avx, avy = a
    ib, box, boy, bvx, bvy = b
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
        if (ia.head is not None and sn > den) or (ib.head is not None and tn > den):
            return None
        if tn == 0 or (tn == den and ib.head is not None):
            return _point_on(b, tn, den, scale)
        return _point_on(a, sn, den, scale)
    if avx * dy - dx * avy:
        return None
    # same line: the low and high ends of b, then of the shared part, as
    # (parameter along a in units of 1/|va|^2, Point); None where open
    q, c0 = avx * avx + avy * avy, dx * avx + dy * avy
    lo, hi = (c0, ib.origin), None
    if ib.head is not None:
        hi = (c0 + bvx * avx + bvy * avy, ib.ends[1])
        lo, hi = (lo, hi) if lo[0] < hi[0] else (hi, lo)
    elif bvx * avx + bvy * avy < 0:
        lo, hi = None, lo
    if lo is None or lo[0] < 0:
        lo = (0, ia.origin)
    if ia.head is not None and (hi is None or hi[0] > q):
        hi = (q, ia.ends[1])
    if hi is None:
        return Shared((lo[1],))
    if lo[0] < hi[0]:
        return Shared((lo[1], hi[1]))
    return lo[1] if lo[0] == hi[0] else None


def _pair_grid(c1: TropicalCurve, c2: TropicalCurve):
    """(scale, views of c1, views of c2, vertices of c1, vertices of c2), all
    on the two curves' common scale."""
    scale = lcm(c1._scale, c2._scale)
    f1, f2 = scale // c1._scale, scale // c2._scale
    return (
        scale,
        _lattice(items(c1), scale),
        _lattice(items(c2), scale),
        [(x * f1, y * f1) for x, y in c1._grid],
        [(x * f2, y * f2) for x, y in c2._grid],
    )


def _boxes(views: Sequence[View]) -> list[list[int]]:
    """Each view's closed bounding box [x low, x high, y low, y high] on its
    grid.  A ray's open side ends one unit past the finite extent of all the
    views, where no other box ends, so the boxes of two items that meet
    overlap."""
    boxes = []
    for it, ox, oy, vx, vy in views:
        ex, ey = (ox + vx, oy + vy) if it.head is not None else (ox, oy)
        boxes.append([min(ox, ex), max(ox, ex), min(oy, ey), max(oy, ey)])
    x0, y0 = min(b[0] for b in boxes) - 1, min(b[2] for b in boxes) - 1
    x1, y1 = max(b[1] for b in boxes) + 1, max(b[3] for b in boxes) + 1
    for b, (it, _, _, vx, vy) in zip(boxes, views):
        if it.head is None:
            if vx > 0:
                b[1] = x1
            elif vx < 0:
                b[0] = x0
            if vy > 0:
                b[3] = y1
            elif vy < 0:
                b[2] = y0
    return boxes


def _candidates(
    xv: Sequence[View], yv: Sequence[View] | None = None
) -> list[tuple[View, View]]:
    """The pairs of views whose boxes overlap, in the order of the scan of
    all pairs: with one sequence, positions i < j in lexicographic order;
    with two, xv-major.

    Sweep and prune: the boxes are visited by x low, each against the boxes
    still open at that x (of the other sequence, when there are two), and a
    pair is kept when its y intervals overlap too.
    """
    views = [*xv, *(yv or ())]
    if not views:
        return []
    # Each box is tested against the open boxes of side `side ^ two`: with
    # one sequence every box is on side 0 and meets side 0; with two, the
    # boxes of yv are on side 1 and each side meets the other.
    n = len(xv) if yv is not None else len(views)
    two = int(yv is not None)
    boxes = _boxes(views)
    open_: tuple[list, list] = ([], [])  # per side: (x high, y low, y high, k)
    pairs = []
    for k in sorted(range(len(views)), key=lambda k: boxes[k][0]):
        x0, x1, y0, y1 = boxes[k]
        side = int(k >= n)
        other = open_[side ^ two]
        other[:] = [o for o in other if o[0] >= x0]
        for _, b0, b1, j in other:
            if b0 <= y1 and y0 <= b1:
                pairs.append((j, k) if j < k else (k, j))
        open_[side].append((x1, y0, y1, k))
    pairs.sort()
    return [(views[i], views[j]) for i, j in pairs]


def meetings(
    xs: Sequence[Item], ys: Sequence[Item] | None = None
) -> Iterator[tuple[Item, Item, Point | Shared]]:
    """Every pair of items that meet, with the meeting Point, or with the
    Shared part when they share a segment or a ray.

    With one sequence, each pair of distinct positions once, earlier item
    first; with two, every item of xs against every item of ys, xs-major.
    Both run on the integer views raised to the scale of all the items, and
    only pairs whose bounding boxes overlap (`_candidates`) reach `_meet`;
    they are tested in the order above, so the output is that of the scan
    of all pairs.
    """
    scale = _common_scale(chain(xs, ys or ()))
    xv = _lattice(xs, scale)
    yv = None if ys is None else _lattice(ys, scale)
    for a, b in _candidates(xv, yv):
        p = _meet(a, b, scale)
        if p is not None:
            yield a.item, b.item, p


def star_at(p: Point, its: Iterable[Item]) -> list[tuple[int, int]]:
    """The weighted primitive vectors (x, y) leaving p along items holding it.

    An item leaves p forward unless p is its head, and backward unless p is
    its tail, so an interior point gives both directions.  An end is often
    the item's own Point, so identity is tested before equality.
    """
    star = []
    for it in its:
        wx, wy = it.prim.x * it.weight, it.prim.y * it.weight
        if it.head is None or (p is not it.ends[1] and p != it.ends[1]):
            star.append((wx, wy))
        if p is not it.origin and p != it.origin:
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
    for i in range(len(c.vertices)):
        if i not in ends:
            raise StructureError(f"vertex {i} is isolated")
    violations = []
    for a, b, p in meetings(items(c)):
        if isinstance(p, Shared):
            violations.append(
                f"{a.kind} {a.index} and {b.kind} {b.index} overlap "
                "along a segment"
            )
            continue
        # Identity suffices: vertices are distinct by now, and a meeting is
        # an item's own end Point or a new Point inside both items.
        ea, eb = a.ends, b.ends
        if not (p is ea[0] or p is ea[-1]) or not (p is eb[0] or p is eb[-1]):
            violations.append(
                f"{a.kind} {a.index} and {b.kind} {b.index} meet at "
                f"{show(p)} which is not a shared vertex"
            )
    residuals = tuple(IntVector(x, y) for x, y in _residuals(c))
    return BalanceReport(residuals, tuple(violations))


def _residuals(c: TropicalCurve) -> list[tuple[int, int]]:
    """Each vertex's balancing residual (x, y), in one pass over the items."""
    rx, ry = [0] * len(c.vertices), [0] * len(c.vertices)
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
    """Return c if it is a balanced embedded curve, else refuse it.

    Malformed data raises StructureError; imbalance or a crossing raises
    InvalidCurveError naming the first defect found by validate.
    """
    report = validate(c)
    _require_balanced((r.x, r.y) for r in report.residuals)
    if report.embedding_violations:
        raise InvalidCurveError(
            f"curve crosses itself: {report.embedding_violations[0]}"
        )
    return c


def translate(c: TropicalCurve, t: Point) -> TropicalCurve:
    return TropicalCurve(
        tuple(v + t for v in c.vertices), c.edges, c.rays
    )


def items_at(c: TropicalCurve, p: Point) -> list[Item]:
    """Every item that contains p, ends included, in item order; the test
    runs on the curve's grid raised to p's denominators."""
    qx, qy = p.x.denominator, p.y.denominator
    scale = lcm(c._scale, qx, qy)
    px, py = p.x.numerator * (scale // qx), p.y.numerator * (scale // qy)
    out = []
    for it, ox, oy, vx, vy in _lattice(items(c), scale):
        dx, dy = px - ox, py - oy
        if vx * dy - dx * vy:
            continue
        t = dx * vx + dy * vy
        if 0 <= t and (it.head is None or t <= vx * vx + vy * vy):
            out.append(it)
    return out


def locate(c: TropicalCurve, p: Point):
    """Where a point sits on the curve: ('vertex', i), else the first item of
    items_at as ('edge', i) or ('ray', i) (interior, since its ends are
    vertices), else None."""
    for i, v in enumerate(c.vertices):
        if v == p:
            return ("vertex", i)
    hit = items_at(c, p)
    return (hit[0].kind, hit[0].index) if hit else None


def local_star(c: TropicalCurve, p: Point) -> list[IntVector]:
    """Weighted primitive vectors leaving p along every item of items_at: a
    vertex's full star, both directions of an item through an interior
    point, nothing off the curve."""
    return [IntVector(x, y) for x, y in star_at(p, items_at(c, p))]


# ---------------------------------------------------------------------------
# Loops: global balancing and moment sums around simple closed polygons.
# ---------------------------------------------------------------------------


def _loop_sides(loop: Sequence[Point]) -> tuple[Item, ...]:
    """The sides of a simple closed polygon, side k from corner k to k + 1."""
    n = len(loop)
    if n < 3:
        raise LoopError("loop needs at least 3 points")
    if any(loop[k] == loop[(k + 1) % n] for k in range(n)):
        raise LoopError("loop has a zero-length side")
    polygon = TropicalCurve(
        tuple(loop), tuple(Edge(k, (k + 1) % n) for k in range(n)), ()
    )
    sides = items(polygon)
    # Adjacent sides that do not overlap meet only at their shared corner.
    for a, b, p in meetings(sides):
        i, j = a.index, b.index
        if isinstance(p, Shared) or not (j == i + 1 or (i == 0 and j == n - 1)):
            raise LoopError("loop is not a simple polygon")
    return sides


def _loop_crossings(c: TropicalCurve, loop: Sequence[Point]):
    """Transversal crossings of curve items with the loop boundary.

    A list of (item, signed weighted primitive vector pointing out of the
    loop, crossing point).  Raises LoopError on any non-transversal contact.
    Once every contact is transversal, the outward sign comes from the side
    crossed: the interior lies left of a counterclockwise side, right of a
    clockwise one.
    """
    sides = _loop_sides(loop)
    ccw = area2(loop) > 0
    corners = set(loop)
    out = []
    for it, side, p in meetings(items(c), sides):
        if isinstance(p, Shared):
            raise LoopError(f"loop runs along {it.kind} {it.index}")
        if p in corners:
            raise LoopError("loop corner touches the curve")
        if p in it.ends:
            raise LoopError("loop passes through a curve vertex")
        w = it.prim * it.weight
        out.append((it, w if (cross(w, side.prim) > 0) == ccw else -w, p))
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
    """
    all_items = items(c1) + items(c2)
    # Keyed by value: an item that occurs twice, as in union(c, c), is one
    # segment and is cut at the same points both times.
    splits: dict[Item, set[Fraction]] = {it: set() for it in all_items}

    def add_split(it: Item, p: Point) -> None:
        t = it.param_of(p)
        if t > 0 and (not it.bounded or t < 1):
            splits[it].add(t)

    for a, b, p in meetings(all_items):
        for q in p.ends if isinstance(p, Shared) else (p,):
            add_split(a, q)
            add_split(b, q)

    seg_weight: dict[tuple, int] = {}
    tail_weight: dict[tuple, int] = {}

    for it in all_items:
        cuts = [it.point_at(t) for t in sorted(splits[it])]
        pts = [it.origin, *cuts, *it.ends[1:]]
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
            (ax, ay), (bx, by) = star_at(c.vertices[v], pair)
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
