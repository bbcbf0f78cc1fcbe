"""Shared hand-built curves used across the test suite."""

import functools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd, lcm
from pathlib import Path

from tropcurve import intersect as intersect_mod
from tropcurve import jacobian as jacobian_mod
from tropcurve import jsonio
from tropcurve.bunch import BouquetStructure, BunchGraph, CurveCycle, NotABouquet, bunch
from tropcurve.curve import (
    Edge,
    Item,
    ItemIndex,
    LoopError,
    Ray,
    Shared,
    StructureError,
    TropicalCurve,
    _index_of,
    _meet,
    _point_on,
    _raise,
    _scan,
    _star,
    curve,
    items,
    items_at,
    translate,
    validate,
)
from tropcurve.geom import (
    GeometryError,
    IntVector,
    Point,
    area2,
    cross,
    dot,
    primitive_decompose,
    primitive_direction,
    pseudo_angle,
    pt,
)
from tropcurve.intersect import (
    Divisor,
    NonGenericDirection,
    generic_direction,
    perturbation_oracle,
)
from tropcurve.jacobian import (
    AbelCoordinate,
    CycleParametrization,
    CycleSystem,
    sigma,
)
from tropcurve.newton import (
    DualityError,
    FaceStructure,
    LatticePolygon,
    NewtonComplex,
    _UnionFind,
    convex_hull,
    newton_complex,
    star_multiplicity,
)
from tropcurve.params import GRID_HALVINGS, CurveSkeleton, ParamPoint, closure_matrix
from tropcurve.polyfront import (
    DualSubdivision,
    EmptyCurveError,
    SubdivisionCell,
    TropicalPolynomial,
    corner_locus,
    evaluate,
    polynomial,
)


# ---------------------------------------------------------------------------
# Routes with no caller in the library: references for the tests.
# ---------------------------------------------------------------------------


def curve_to_dict(c: TropicalCurve) -> dict:
    """The curve schema as json objects, for tests that edit a curve file."""
    return {
        "vertices": [[str(v.x), str(v.y)] for v in c.vertices],
        "edges": [{"v": [e.a, e.b], "w": e.weight} for e in c.edges],
        "rays": [
            {"v": r.vertex, "dir": [r.direction.x, r.direction.y], "w": r.weight}
            for r in c.rays
        ],
    }


def reference_curve_to_json(c: TropicalCurve) -> str:
    """The curve file through the stdlib encoder: the oracle for the direct
    writer jsonio.curve_to_json."""
    return json.dumps(curve_to_dict(c), indent=2) + "\n"


def divisor_to_json(d: Divisor) -> str:
    """A divisor file's text, as jsonio.load_divisor reads it."""
    return jsonio.dumps(jsonio.divisor_to_list(d))


def dominant_terms(f: TropicalPolynomial, p: Point) -> tuple[tuple[int, int], ...]:
    """The exponents of the terms attaining the extremum of f at p."""
    best = evaluate(f, p)
    return tuple(
        e for e, c in f.terms if e[0] * p.x + e[1] * p.y + c == best
    )


def dual_cell_from_faces(
    c: TropicalCurve, vertex: int, nc: NewtonComplex
) -> LatticePolygon:
    """Dual cell as the hull of the dual points of the faces at a vertex."""
    faces = nc.faces.vertex_faces[vertex]
    pts = [nc.dual_vertices[f] for f in faces]
    return convex_hull(pts).normalized()


def reference_outgoing(c: TropicalCurve, vertex: int) -> list[IntVector]:
    """Weighted primitive vectors leaving a vertex, from raw edges and rays."""
    out = []
    for e in c.edges:
        if e.a == vertex or e.b == vertex:
            other = e.b if e.a == vertex else e.a
            u, _ = primitive_direction(c.vertices[other] - c.vertices[vertex])
            out.append(u * e.weight)
    for r in c.rays:
        if r.vertex == vertex:
            out.append(r.direction * r.weight)
    return out


def reference_convex_hull(points: list[IntVector]) -> LatticePolygon:
    """convex_hull on IntVectors, rotated to its lex-min vertex: the oracle
    for the shared (x, y) hull ring."""
    pts = sorted(set((p.x, p.y) for p in points))
    if not pts:
        raise GeometryError("hull of empty point set")
    if len(pts) == 1:
        return LatticePolygon((IntVector(*pts[0]),))

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (p[0] - out[-2][0]) * (out[-1][1] - out[-2][1])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    ring = lower[:-1] + upper[:-1]
    if len(ring) == 1:  # all points collinear -> keep both ends
        ring = [lower[0], lower[-1]]
    if len(ring) == 2 and ring[0] == ring[1]:
        ring = ring[:1]
    verts = [IntVector(x, y) for x, y in ring]
    start = min(range(len(verts)), key=lambda i: (verts[i].x, verts[i].y))
    return LatticePolygon(tuple(verts[start:] + verts[:start]))


def reference_face_structure(c: TropicalCurve) -> FaceStructure:
    """newton.face_structure with an angle key per comparison and parallel
    rays ordered by a Fraction offset taken on the rational points."""
    its = items(c)
    if not its:
        raise GeometryError("empty curve has no face structure")
    uf = _UnionFind(2 * len(its))
    ends: list[list[tuple]] = [[] for _ in c.vertices]
    for k, it in enumerate(its):
        ends[it.tail].append((it.prim, 2 * k, 2 * k + 1))
        if it.bounded:
            ends[it.head].append((-it.prim, 2 * k + 1, 2 * k))
    for v, lst in enumerate(ends):
        lst.sort(key=lambda t: pseudo_angle(t[0]))
        for i in range(len(lst) - 1):
            if pseudo_angle(lst[i][0]) == pseudo_angle(lst[i + 1][0]):
                raise GeometryError(
                    f"two items leave vertex {v} in the same direction"
                )
        for i in range(len(lst)):
            uf.merge(lst[i][1], lst[(i + 1) % len(lst)][2])
    ray_sides = []
    for k, it in enumerate(its):
        if not it.bounded:
            offset = Fraction(cross(it.prim, item_ends(it)[0]))
            ray_sides.append((pseudo_angle(it.prim), offset, 2 * k, 2 * k + 1))
    ray_sides.sort(key=lambda t: (t[0], t[1]))
    for i in range(len(ray_sides)):
        uf.merge(ray_sides[i][2], ray_sides[(i + 1) % len(ray_sides)][3])
    face_of: dict[int, int] = {}
    side_face = []
    for s in range(2 * len(its)):
        root = uf.find(s)
        if root not in face_of:
            face_of[root] = len(face_of)
        side_face.append(face_of[root])
    count = len(face_of)
    bounded = [True] * count
    for _, _, ls, rs in ray_sides:
        bounded[side_face[ls]] = False
        bounded[side_face[rs]] = False
    vertex_faces = tuple(tuple(side_face[t[1]] for t in lst) for lst in ends)
    return FaceStructure(
        count, tuple(side_face), tuple(bounded), vertex_faces, its
    )


def reference_propagate(fs: FaceStructure, order: str) -> NewtonComplex:
    """newton._propagate on IntVector sums, the frontier a list popped at
    its front ("bfs") or its end ("dfs")."""
    edges = []
    adj: list[list[tuple[int, IntVector]]] = [[] for _ in range(fs.count)]
    for k, it in enumerate(fs.items):
        fl, fr = fs.side_face[2 * k], fs.side_face[2 * k + 1]
        step = it.prim.rot_cw() * it.weight
        edges.append((fl, fr, it.kind, it.index))
        adj[fl].append((fr, step))
        adj[fr].append((fl, -step))
    w: list[IntVector | None] = [None] * fs.count
    w[0] = IntVector(0, 0)
    frontier = [0]
    while frontier:
        f = frontier.pop(0 if order == "bfs" else -1)
        for g, step in adj[f]:
            cand = w[f] + step
            if w[g] is None:
                w[g] = cand
                frontier.append(g)
            elif w[g] != cand:
                raise DualityError(
                    "dual propagation is inconsistent; "
                    "curve is unbalanced or crosses itself"
                )
    if any(x is None for x in w):
        raise DualityError("face adjacency graph is not connected")
    m = min(w, key=lambda v: (v.x, v.y))
    return NewtonComplex(tuple(v - m for v in w), tuple(edges), fs)


def _max_form(f: TropicalPolynomial) -> TropicalPolynomial:
    """f in the max convention: the min form's coefficients negated."""
    if f.convention == "max":
        return f
    return polynomial({e: -c for e, c in f.terms}, "max")


def reference_collinear_subdivision(g: TropicalPolynomial) -> DualSubdivision:
    """dual_subdivision of a support on one line, on Fractions, with its
    own upper-envelope chain in (line parameter, coefficient); g is in the
    max convention."""
    pts = [IntVector(i, j) for (i, j), _ in g.terms]
    base = min(pts, key=lambda v: (v.x, v.y))
    far = max(pts, key=lambda v: (v.x, v.y))
    direction, _ = primitive_decompose(far - base)

    def coord(v: IntVector) -> int:
        d = v - base
        return d.x // direction.x if direction.x else d.y // direction.y

    lifted = sorted(
        (coord(IntVector(i, j)), Fraction(c), IntVector(i, j))
        for (i, j), c in g.terms
    )
    chain: list[tuple] = []
    for k, c, v in lifted:
        while len(chain) >= 2:
            (k1, c1, _), (k2, c2, _) = chain[-2], chain[-1]
            if (c2 - c1) * (k - k1) <= (c - c1) * (k2 - k1):
                chain.pop()
            else:
                break
        chain.append((k, c, v))
    cells = []
    for (k1, c1, v1), (k2, c2, v2) in zip(chain, chain[1:]):
        d = v2 - v1
        rhs = c1 - c2
        norm = Fraction(d.x * d.x + d.y * d.y)
        vertex = Point(rhs * d.x / norm, rhs * d.y / norm)
        slope_x, slope_y = -vertex.x, -vertex.y
        cells.append(SubdivisionCell(
            (slope_x, slope_y),
            c1 - slope_x * v1.x - slope_y * v1.y,
            (v1, v2),
            LatticePolygon((v1, v2) if (v1.x, v1.y) <= (v2.x, v2.y) else (v2, v1)),
            vertex,
        ))
    return DualSubdivision(tuple(cells))


def _plane_through(pts) -> tuple[Fraction, Fraction, Fraction] | None:
    (i1, j1, c1), (i2, j2, c2), (i3, j3, c3) = pts
    det = (i2 - i1) * (j3 - j1) - (i3 - i1) * (j2 - j1)
    if det == 0:
        return None
    sx = Fraction((c2 - c1) * (j3 - j1) - (c3 - c1) * (j2 - j1), det)
    sy = Fraction((i2 - i1) * (c3 - c1) - (i3 - i1) * (c2 - c1), det)
    t = c1 - sx * i1 - sy * j1
    return (sx, sy, t)


def reference_dual_subdivision(f: TropicalPolynomial) -> DualSubdivision:
    """The regular subdivision by brute force: every plane through three
    lifted terms that no term lies above is a cell.  O(n^4) in Fraction
    arithmetic; the oracle for polyfront.dual_subdivision."""
    g = _max_form(f)
    lifted = [(i, j, c) for (i, j), c in g.terms]
    if len(lifted) < 2:
        raise EmptyCurveError("single-term polynomial has no corner locus")
    hull2d = reference_convex_hull([IntVector(i, j) for i, j, _ in lifted])
    if hull2d.area2() == 0:
        return reference_collinear_subdivision(g)
    cells: dict[tuple, SubdivisionCell] = {}
    n = len(lifted)
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                plane = _plane_through((lifted[a], lifted[b], lifted[c]))
                if plane is None or plane[:2] in cells:
                    continue
                sx, sy, t = plane
                if all(ci <= sx * i + sy * j + t for i, j, ci in lifted):
                    members = tuple(
                        IntVector(i, j)
                        for i, j, ci in lifted
                        if ci == sx * i + sy * j + t
                    )
                    poly = reference_convex_hull(list(members))
                    cells[(sx, sy)] = SubdivisionCell(
                        (sx, sy), t, members, poly, Point(-sx, -sy)
                    )
    ordered = tuple(
        cells[k] for k in sorted(cells, key=lambda s: (s[0], s[1]))
    )
    return DualSubdivision(ordered)


def _collinear_corner_locus(sub: DualSubdivision) -> TropicalCurve:
    """The corner locus of a support on one line, in the max convention:
    each cell's dual vertex with the two rays normal to its segment, the
    segment rotated by +90 degrees first."""
    vertices = []
    rays = []
    for idx, cell in enumerate(sub.cells):
        v1, v2 = cell.members
        direction, w = primitive_decompose((v2 - v1).rot_ccw())
        vertices.append(cell.dual_vertex)
        rays.append(Ray(idx, direction, w))
        rays.append(Ray(idx, -direction, w))
    return TropicalCurve(tuple(vertices), (), tuple(rays))


def reference_corner_locus(
    f: TropicalPolynomial, sub: DualSubdivision | None = None
) -> TropicalCurve:
    """The corner locus assembled on Points from the brute-force cells of
    reference_dual_subdivision (sub, when the caller has it already): each
    cell's dual vertex, an edge between the two owners of a cell side, a ray
    (the side rotated by -90 degrees) from its one owner; negated for the
    min convention.  The oracle for polyfront.corner_locus."""
    if sub is None:
        sub = reference_dual_subdivision(f)
    cells = sub.cells
    if len(cells[0].polygon.vertices) == 2:
        c = _collinear_corner_locus(sub)  # support on one lattice line
    else:
        # Each owner of a boundary edge, with the edge as an int difference
        # (x, y) oriented along the owner's polygon.
        edge_owner: dict[tuple, list[tuple[int, int, int]]] = {}
        for idx, cell in enumerate(cells):
            vs = [(v.x, v.y) for v in cell.polygon.vertices]
            for a, b in zip(vs, vs[1:] + vs[:1]):
                key = (a, b) if a <= b else (b, a)
                edge_owner.setdefault(key, []).append((idx, b[0] - a[0], b[1] - a[1]))
        edges = []
        rays = []
        for _, owners in sorted(edge_owner.items()):
            assert len(owners) <= 2, "a subdivision edge borders more than two cells"
            if len(owners) == 2:
                (i, dx, dy), (j, _, _) = owners
                edges.append(Edge(i, j, gcd(dx, dy)))
            else:
                (i, dx, dy), = owners
                w = gcd(dx, dy)
                rays.append(Ray(i, IntVector(dy // w, -dx // w), w))
        c = TropicalCurve(
            tuple(cell.dual_vertex for cell in cells), tuple(edges), tuple(rays)
        )
    if f.convention == "min":
        return TropicalCurve(
            tuple(Point(-v.x, -v.y) for v in c.vertices),
            c.edges,
            tuple(Ray(r.vertex, -r.direction, r.weight) for r in c.rays),
        )
    return c


# ---------------------------------------------------------------------------
# The meetings as Points: curve._scan's integer reports read back on the
# rational points, the level the Fraction references below compare at.
# ---------------------------------------------------------------------------


def item_ends(it: Item) -> tuple[Point, ...]:
    """The item's tail Point, then an edge's head Point, read off its
    integer view: an item holds no Point."""
    ox, oy, vx, vy = it.lattice
    L = it.scale
    tail = Point(Fraction(ox, L), Fraction(oy, L))
    if it.head is None:
        return (tail,)
    return tail, Point(Fraction(ox + vx, L), Fraction(oy + vy, L))


def _vec(it: Item) -> Point:
    """Full displacement for an edge, primitive direction for a ray."""
    if it.bounded:
        _, _, vx, vy = it.lattice
        return Point(Fraction(vx, it.scale), Fraction(vy, it.scale))
    return it.prim.to_point()


def _param_of(it: Item, p: Point) -> Fraction:
    """Coordinate of a point on the item's line, in units of _vec."""
    v = _vec(it)
    return Fraction(dot(p - item_ends(it)[0], v)) / dot(v, v)


def _point_at(it: Item, t) -> Point:
    return item_ends(it)[0] + _vec(it) * t


def reference_ends(its, p: Point) -> list[tuple[Item, int | None]]:
    """Each item with the end of it that p is, found by Point equality with
    item_ends: 0 its tail, 1 an edge's head, None neither."""
    return [(it, item_ends(it).index(p) if p in item_ends(it) else None) for it in its]


def _as_points(a: Item, m) -> Point | Shared:
    """_meet's report m of item a and another with its points as Points,
    read along a on its grid."""
    if type(m) is Shared:
        return Shared(tuple(_as_points(a, e) for e in m.ends))
    s, _, den = m
    return _point_on(a, s, den)


def meetings(xs, ys=None):
    """Every pair of items that meet, with the meeting Point, or with the
    Shared part (its ends as Points) when they share a segment or a ray.

    With one sequence, each pair of distinct positions once, earlier item
    first; with two, every item of xs against every item of ys, xs-major.
    Each side is a curve's index or a sequence of items, indexed for this
    call; the pairs are curve._scan's, in its order, an item of a side
    raised to the pair's grid given as its raised copy (equal to it)."""
    x = xs if isinstance(xs, ItemIndex) else _index_of(xs, _common_scale(xs))
    y = ys
    if ys is not None and not isinstance(ys, ItemIndex):
        y = _index_of(ys, _common_scale(ys))
    for a, b, m in _scan(x, y):
        yield a, b, _as_points(a, m)


# ---------------------------------------------------------------------------
# Fraction references for the integer kernel of curve._scan and the
# perturbation oracle: the predicates as they read on rational points.
# ---------------------------------------------------------------------------


def _contains_param(it: Item, t: Fraction) -> bool:
    if t < 0:
        return False
    return t <= 1 if it.bounded else True


def reference_item_intersection(a: Item, b: Item):
    """Intersection of two closed items in Fraction arithmetic: None, the
    meeting Point, or the Shared part with its ends, lowest along a first."""
    if cross(_vec(a), _vec(b)) != 0:
        den = cross(_vec(a), _vec(b))
        s = Fraction(cross(item_ends(b)[0] - item_ends(a)[0], _vec(b))) / den
        t = Fraction(cross(item_ends(b)[0] - item_ends(a)[0], _vec(a))) / den
        if _contains_param(a, s) and _contains_param(b, t):
            return _point_at(a, s)
        return None
    if cross(_vec(a), item_ends(b)[0] - item_ends(a)[0]) != 0:
        return None
    c0 = _param_of(a, item_ends(b)[0])
    if b.bounded:
        c1 = _param_of(a, item_ends(b)[0] + _vec(b))
        lo_b, hi_b = (c0, c1) if c0 <= c1 else (c1, c0)
    elif dot(_vec(b), _vec(a)) > 0:
        lo_b, hi_b = c0, None
    else:
        lo_b, hi_b = None, c0
    lo_a, hi_a = Fraction(0), Fraction(1) if a.bounded else None
    lo = lo_a if lo_b is None else max(lo_a, lo_b)
    if hi_a is None:
        hi = hi_b
    elif hi_b is None:
        hi = hi_a
    else:
        hi = min(hi_a, hi_b)
    if hi is not None and lo > hi:
        return None
    if hi is None:
        return Shared((_point_at(a, lo),))
    if lo == hi:
        return _point_at(a, lo)
    return Shared((_point_at(a, lo), _point_at(a, hi)))


def reference_meetings(xs, ys=None) -> list:
    """meetings as a list, each pair decided in Fraction arithmetic."""
    pairs = combinations(xs, 2) if ys is None else product(xs, ys)
    out = []
    for a, b in pairs:
        p = reference_item_intersection(a, b)
        if p is not None:
            out.append((a, b, p))
    return out


# ---------------------------------------------------------------------------
# The scans of every pair that the box-pruned sweep (curve._sweep)
# replaced, on the same integer kernel: the sweep must give their output, in
# their order.
# ---------------------------------------------------------------------------


def _common_scale(its) -> int:
    """The least common multiple of the items' scales."""
    return lcm(*{it.scale for it in its})


def _on_grid(its, scale: int) -> list[Item]:
    """Each item raised to the grid of `scale`, a multiple of its own."""
    return [_raise(it, scale // it.scale) for it in its]


def item_intersection(a: Item, b: Item):
    """Intersection of two closed items on their common grid: None, the
    meeting Point, or the Shared part for a collinear overlap of more than
    one point."""
    va, vb = _on_grid((a, b), _common_scale((a, b)))
    m = _meet(va, vb)
    return None if m is None else _as_points(va, m)


def all_pairs_meetings(xs, ys=None) -> list:
    """meetings as a list, by testing every pair of items on their common
    grid."""
    scale = _common_scale(chain(xs, ys or ()))
    xv = _on_grid(xs, scale)
    pairs = combinations(xv, 2) if ys is None else product(xv, _on_grid(ys, scale))
    out = []
    for a, b in pairs:
        m = _meet(a, b)
        if m is not None:
            out.append((a, b, _as_points(a, m)))
    return out


def all_pairs_crossings(c1: TropicalCurve, c2: TropicalCurve, direction: Point) -> Divisor:
    """The crossing loop of intersect.perturbation_oracle over every pair of
    items on the curves' common grid, none pruned."""
    scale = lcm(c1._scale, c2._scale)
    its1, its2 = _on_grid(items(c1), scale), _on_grid(items(c2), scale)
    k = lcm(direction.x.denominator, direction.y.denominator)
    tx, ty = int(direction.x * k), int(direction.y * k)
    acc: dict[Point, int] = {}
    for a in its1:
        aox, aoy, avx, avy = a.lattice
        for b in its2:
            box, boy, bvx, bvy = b.lattice
            den = avx * bvy - bvx * avy
            if den == 0:
                continue
            dx, dy = box - aox, boy - aoy
            s0, s1 = dx * bvy - bvx * dy, tx * bvy - bvx * ty
            r0, r1 = dx * avy - avx * dy, tx * avy - avx * ty
            if den < 0:
                den, s0, s1, r0, r1 = -den, -s0, -s1, -r0, -r1
            if (s0, s1) < (0, 0) or (a.head is not None and (s0, s1) > (den, 0)):
                continue
            if (r0, r1) < (0, 0) or (b.head is not None and (r0, r1) > (den, 0)):
                continue
            limit = _point_on(a, s0, den)
            mu = abs(cross(a.prim * a.weight, b.prim * b.weight))
            acc[limit] = acc.get(limit, 0) + mu
    return Divisor.of(acc, c1)


def _reject(v, basis) -> list[Fraction]:
    """v minus its orthogonal projection onto the span of an orthogonal basis."""
    out = list(v)
    for q in basis:
        f = sum(x * y for x, y in zip(out, q)) / sum(y * y for y in q)
        out = [x - f * y for x, y in zip(out, q)]
    return out


def reference_project_to_closure(skel: CurveSkeleton, direction) -> list[Fraction]:
    """params.project_to_closure by Gram-Schmidt in Fractions: an orthogonal
    basis of the closure rows, then the direction's rejection from it."""
    basis: list[list[Fraction]] = []
    for row in closure_matrix(skel):
        q = _reject(row, basis)
        if any(q):
            basis.append(q)
    return _reject(direction, basis)


def reference_perturb(
    p: ParamPoint, seed_or_rng, check=lambda c: validate(c).passed
) -> ParamPoint:
    """params.perturb with a check per candidate: from the least k that keeps
    every length at least half its value, the step is halved until
    `check(curve)` passes, a StructureError counting as a refusal; p when no
    k <= GRID_HALVINGS passes."""
    rng = seed_or_rng if isinstance(seed_or_rng, random.Random) else random.Random(seed_or_rng)
    skel = p.skeleton
    p._curve._items
    rows, L = skel._projector
    raw = [rng.randint(-60, 60) for _ in skel.edges]
    ax, ay = rng.randint(-60, 60), rng.randint(-60, 60)
    step = [sum(a * b for a, b in zip(row, raw)) for row in rows]  # L times the move
    den, lengths, x0, y0 = p._ints
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
        cand = ParamPoint._on_grid(skel, new, ls, x0 * f + ax * g * L, y0 * f + ay * g * L)
        try:
            passed = check(cand._curve)
        except StructureError:  # two vertices at one point
            passed = False
        if passed:
            return cand
    return p


def reference_items_at(c: TropicalCurve, p: Point) -> list[tuple[Item, int | None]]:
    """curve.items_at with every item raised to the lcm of the curve's scale
    and p's denominators, each hit's end found by reference_ends."""
    qx, qy = p.x.denominator, p.y.denominator
    scale = lcm(c._scale, qx, qy)
    px, py = p.x.numerator * (scale // qx), p.y.numerator * (scale // qy)
    out = []
    for it in _on_grid(items(c), scale):
        ox, oy, vx, vy = it.lattice
        dx, dy = px - ox, py - oy
        if vx * dy - dx * vy:
            continue
        t = dx * vx + dy * vy
        if 0 <= t and (it.head is None or t <= vx * vx + vy * vy):
            out.append(it)
    return reference_ends(out, p)


def all_pairs_pins(c1: TropicalCurve, c2: TropicalCurve, keep) -> list:
    """intersect._pins as a list, by testing every item against every item
    and every vertex of the other curve, all on the curves' common grid."""
    scale = lcm(c1._scale, c2._scale)
    its1, its2 = _on_grid(items(c1), scale), _on_grid(items(c2), scale)

    def on_line(b, x, y):
        ox, oy, vx, vy = b.lattice
        return vx * (y - oy) == (x - ox) * vy

    kept1 = [a for a in its1 if keep(a)]
    kept2 = [b for b in its2 if keep(b)]
    out = []
    for a in kept1:
        for b in its2:
            if cross(a.prim, b.prim) == 0 and on_line(a, *b.lattice[:2]):
                out.append((a, b, True))
                break
    for c, kept, first in ((c1, kept2, False), (c2, kept1, True)):
        f = scale // c._scale
        for q, (x, y) in zip(c.vertices, c._grid):
            out += [(b, q, first) for b in kept if on_line(b, x * f, y * f)]
    return out


@dataclass(frozen=True)
class Eps:
    """Value a + b*eps for an infinitesimal eps > 0, compared lexicographically."""

    const: Fraction
    slope: Fraction = Fraction(0)

    def scaled(self, k: Fraction) -> "Eps":
        return Eps(self.const * k, self.slope * k)

    def key(self) -> tuple[Fraction, Fraction]:
        return (self.const, self.slope)

    def __le__(self, other: "Eps") -> bool:
        return self.key() <= other.key()


def reference_violations(c1: TropicalCurve, c2: TropicalCurve, t: Point):
    """Why direction t fails to separate the curves, or None (Fraction)."""
    its1, its2 = items(c1), items(c2)
    for a in its1:
        for b in its2:
            if cross(_vec(a), _vec(b)) == 0:
                if (
                    cross(_vec(a), item_ends(b)[0] - item_ends(a)[0]) == 0
                    and cross(_vec(a), t) == 0
                ):
                    return (
                        f"{a.kind} {a.index} of the first curve stays collinear "
                        f"with {b.kind} {b.index} of the second"
                    )
    for v in c1.vertices:
        for b in its2:
            if cross(_vec(b), t) == 0 and cross(_vec(b), v - item_ends(b)[0]) == 0:
                return (
                    f"vertex ({v.x}, {v.y}) of the first curve rides the line "
                    f"of {b.kind} {b.index} of the second"
                )
    for v in c2.vertices:
        for a in its1:
            if cross(_vec(a), t) == 0 and cross(_vec(a), v - item_ends(a)[0]) == 0:
                return (
                    f"vertex ({v.x}, {v.y}) of the second curve rides the line "
                    f"of {a.kind} {a.index} of the first"
                )
    return None


def reference_generic_direction(c1: TropicalCurve, c2: TropicalCurve) -> Point:
    """The first (1, k) that passes reference_violations, tried one by one."""
    for k in range(1, 2000):
        t = pt(1, k)
        if reference_violations(c1, c2, t) is None:
            return t
    raise GeometryError("no generic direction found")


def reference_perturbation_oracle(
    c1: TropicalCurve, c2: TropicalCurve, direction: Point
) -> Divisor:
    """The perturbation oracle with first-order Eps values in Fraction
    arithmetic."""
    if not direction:
        raise NonGenericDirection("zero direction")
    why = reference_violations(c1, c2, direction)
    if why is not None:
        raise NonGenericDirection(why)
    zero = Eps(Fraction(0))
    one = Eps(Fraction(1))
    acc: dict[Point, int] = {}
    for a in items(c1):
        for b in items(c2):
            den = cross(_vec(a), _vec(b))
            if den == 0:
                continue
            s = Eps(
                Fraction(cross(item_ends(b)[0] - item_ends(a)[0], _vec(b))),
                Fraction(cross(direction, _vec(b))),
            ).scaled(Fraction(1, den))
            r = Eps(
                Fraction(cross(item_ends(a)[0] - item_ends(b)[0], _vec(a))),
                Fraction(-cross(direction, _vec(a))),
            ).scaled(Fraction(1, -den))
            if not (zero <= s and (not a.bounded or s <= one)):
                continue
            if not (zero <= r and (not b.bounded or r <= one)):
                continue
            limit = item_ends(a)[0] + _vec(a) * s.const
            mu = abs(cross(a.prim * a.weight, b.prim * b.weight))
            acc[limit] = acc.get(limit, 0) + mu
    return Divisor.of(acc, c1)


# ---------------------------------------------------------------------------
# The intersection routes that read no intersection record: a star at every
# common point, a second pair scan for transversality, and each divisor
# point looked up on the host.
# ---------------------------------------------------------------------------


def reference_star_intersection(c1: TropicalCurve, c2: TropicalCurve) -> Divisor:
    """stable_intersection from its own pair scan, with the dual-cell
    formula on the overlay star at every common point; an overlap goes to
    the checked perturbation_oracle."""
    met: dict[Point, tuple[list[Item], list[Item]]] = {}
    for a, b, p in meetings(items(c1), items(c2)):
        if isinstance(p, Shared):
            return perturbation_oracle(c1, c2, generic_direction(c1, c2))
        for it, through in zip((a, b), met.setdefault(p, ([], []))):
            if it not in through:
                through.append(it)
    acc = {}
    for p, (its1, its2) in met.items():
        s1, s2 = (
            [IntVector(x, y) for x, y in _star(reference_ends(its, p))] for its in (its1, its2)
        )
        m = star_multiplicity(s1 + s2) - star_multiplicity(s1) - star_multiplicity(s2)
        if m % 2 != 0 or m < 0:
            raise GeometryError("inconsistent multiplicity")
        if m:
            acc[p] = m // 2
    return Divisor.of(acc, c1)


def reference_is_transversal(c1: TropicalCurve, c2: TropicalCurve) -> bool:
    """is_transversal from its own pair scan."""
    return all(
        not isinstance(p, Shared) and p not in item_ends(a) and p not in item_ends(b)
        for a, b, p in meetings(items(c1), items(c2))
    )


# ---------------------------------------------------------------------------
# validate's embedding check, the loop crossings and union on the meeting
# Points, as they read before the curve checks took curve._scan's reports.
# ---------------------------------------------------------------------------


def reference_embedding_violations(c: TropicalCurve) -> tuple[str, ...]:
    """validate's embedding_violations: an overlap, or a meeting Point that
    is not an end of both items."""
    out = []
    for a, b, p in meetings(items(c)):
        if isinstance(p, Shared):
            out.append(f"{a.kind} {a.index} and {b.kind} {b.index} overlap along a segment")
        elif p not in item_ends(a) or p not in item_ends(b):
            out.append(
                f"{a.kind} {a.index} and {b.kind} {b.index} meet at "
                f"({p.x}, {p.y}) which is not a shared vertex"
            )
    return tuple(out)


def reference_loop_crossings(c: TropicalCurve, loop) -> list:
    """curve._loop_crossings on Points: the loop's sides as items, each
    crossing tested against the corner set and the item's end Points."""
    n = len(loop)
    if n < 3:
        raise LoopError("loop needs at least 3 points")
    if any(loop[k] == loop[(k + 1) % n] for k in range(n)):
        raise LoopError("loop has a zero-length side")
    sides = items(TropicalCurve(tuple(loop), tuple(Edge(k, (k + 1) % n) for k in range(n)), ()))
    for a, b, p in meetings(sides):
        i, j = a.index, b.index
        if isinstance(p, Shared) or not (j == i + 1 or (i == 0 and j == n - 1)):
            raise LoopError("loop is not a simple polygon")
    ccw = area2(loop) > 0
    corners = set(loop)
    out = []
    for it, side, p in meetings(items(c), sides):
        if isinstance(p, Shared):
            raise LoopError(f"loop runs along {it.kind} {it.index}")
        if p in corners:
            raise LoopError("loop corner touches the curve")
        if p in item_ends(it):
            raise LoopError("loop passes through a curve vertex")
        w = it.prim * it.weight
        out.append((it, w if (cross(w, side.prim) > 0) == ccw else -w, p))
    return out


def reference_union(c1: TropicalCurve, c2: TropicalCurve) -> TropicalCurve:
    """curve.union with each item split at the parameters of the meeting
    Points (_param_of) and cut at their Points (_point_at)."""
    all_items = items(c1) + items(c2)
    splits: dict[Item, set[Fraction]] = {it: set() for it in all_items}
    for a, b, p in meetings(all_items):
        for q in p.ends if isinstance(p, Shared) else (p,):
            for it in (a, b):
                t = _param_of(it, q)
                if t > 0 and (not it.bounded or t < 1):
                    splits[it].add(t)
    seg_weight: dict[tuple, int] = {}
    tail_weight: dict[tuple, int] = {}
    for it in all_items:
        pts = [item_ends(it)[0], *(_point_at(it, t) for t in sorted(splits[it])), *item_ends(it)[1:]]
        for a, b in zip(pts, pts[1:]):
            key = tuple(sorted(((a.x, a.y), (b.x, b.y))))
            seg_weight[key] = seg_weight.get(key, 0) + it.weight
        if not it.bounded:
            tk = ((pts[-1].x, pts[-1].y), (it.prim.x, it.prim.y))
            tail_weight[tk] = tail_weight.get(tk, 0) + it.weight
    keys = sorted({k for key in seg_weight for k in key} | {o for o, _ in tail_weight})
    index = {k: i for i, k in enumerate(keys)}
    return TropicalCurve(
        tuple(Point(x, y) for x, y in keys),
        tuple(Edge(index[a], index[b], w) for (a, b), w in sorted(seg_weight.items())),
        tuple(
            Ray(index[o], IntVector(dx, dy), w)
            for (o, (dx, dy)), w in sorted(tail_weight.items())
        ),
    )


def _reference_node_image(system: CycleSystem, node: int):
    """The node image by a scan of every cycle path for a blob member."""
    if node == system.bouquet.center_node:
        return (None, Fraction(0))
    members = set(system.graph.nodes[node])
    for cp in system.cycles:
        for v, t in zip(cp.vertex_path[:-1], cp.breakpoints):
            if v in members:
                return (cp.index, t)
    raise GeometryError("quotient node attaches to no cycle")


def reference_project_point(system: CycleSystem, p: Point):
    """project_point on Points: a vertex's node image found by
    _reference_node_image, a cycle point's parameter by a scan of its
    cycle's sides (reference_param_of)."""
    c = system.curve
    it, _ = items_at(c, p)[0]
    if p in item_ends(it):
        v = it.tail if p == item_ends(it)[0] else it.head
        return _reference_node_image(system, system.graph.node_of_vertex[v])
    for cp in system.cycles:
        if it.bounded and it.index in cp.edge_indices:
            return (cp.index, reference_param_of(cp, c, p))
    return _reference_node_image(system, system.graph.node_of_vertex[it.tail])


def reference_abel_coordinate(system: CycleSystem, d: Divisor) -> AbelCoordinate:
    """abel_coordinate as a Fraction sum of reference_project_point."""
    res = [Fraction(0)] * system.genus
    for p, m in d.entries:
        k, t = reference_project_point(system, p)
        if k is not None:
            res[k] += m * t
    return AbelCoordinate(
        d.degree, tuple(r % cp.total_length for r, cp in zip(res, system.cycles))
    )


def reference_sigma(system: CycleSystem, mobile: TropicalCurve) -> AbelCoordinate:
    """sigma through the reference intersection and the reference Abel
    coordinate: no intersection record and no integer placement."""
    return reference_abel_coordinate(
        system, reference_star_intersection(system.curve, mobile)
    )


def sigma_on_the_record(system: CycleSystem, mobile: TropicalCurve) -> AbelCoordinate:
    """sigma of a pair, checked to have read the record's integer entries
    (`intersect._entries`) once and to have built no Point in `intersect`,
    as stable_intersection does for every entry that is no vertex."""
    read, built = [], []
    entries, point = jacobian_mod._entries, intersect_mod.Point
    jacobian_mod._entries = lambda c1, c2: read.append((c1, c2)) or entries(c1, c2)
    intersect_mod.Point = lambda *a: built.append(a) or point(*a)
    try:
        coord = sigma(system, mobile)
    finally:
        jacobian_mod._entries, intersect_mod.Point = entries, point
    assert len(read) == 1 and read[0][0] is system.curve and read[0][1] is mobile
    assert not built
    return coord


def reference_param_of(cp: CycleParametrization, c: TropicalCurve, p: Point) -> Fraction:
    """The inverse of cp.point_at for a point of the cycle, by a scan of its
    sides."""
    for i in range(len(cp.breakpoints) - 1):
        a = c.vertices[cp.vertex_path[i]]
        d = c.vertices[cp.vertex_path[i + 1]] - a
        if cross(d, p - a) != 0:
            continue
        s = (p.x - a.x) / d.x if d.x else (p.y - a.y) / d.y
        if 0 <= s <= 1:
            lo, hi = cp.breakpoints[i], cp.breakpoints[i + 1]
            return (lo + s * (hi - lo)) % cp.total_length
    raise GeometryError("point is not on this cycle")


def reference_newton_polygon(c: TropicalCurve) -> LatticePolygon:
    """newton_polygon as the hull of the dual complex: propagated across the
    complement faces, independent of the ray construction."""
    return convex_hull(list(newton_complex(c).dual_vertices)).normalized()


def reference_locate(c: TropicalCurve, p: Point):
    """curve.locate by linear scans in Fraction arithmetic."""
    for i, v in enumerate(c.vertices):
        if v == p:
            return ("vertex", i)
    for it in items(c):
        if cross(_vec(it), p - item_ends(it)[0]) != 0:
            continue
        t = _param_of(it, p)
        if 0 < t and (t < 1 or not it.bounded):
            return (it.kind, it.index)
    return None


def _reference_arc_endpoints(c: TropicalCurve, edge_index: int) -> tuple[int, int]:
    e = c.edges[edge_index]
    return e.a, e.b


def _reference_walk_circle(
    c: TropicalCurve, b: BunchGraph, start_node: int, first_arc: int,
    used: set[int], node_arcs: dict[int, list[int]],
) -> CurveCycle:
    """Follow a circle of the quotient starting along first_arc, checking
    that it never gets stuck, crosses each blob at one vertex and closes."""
    path_edges = [first_arc]
    used.add(first_arc)
    eidx, na, nb = b.arcs[first_arc]
    node = nb if na == start_node else na
    # entry vertex into `node` along this arc
    ea, eb = _reference_arc_endpoints(c, eidx)
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
        ea, eb = _reference_arc_endpoints(c, eidx)
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


def reference_bouquet_structure(c: TropicalCurve, b: BunchGraph | None = None):
    """bunch.bouquet_structure with every refusal it once checked: no arcs
    but several nodes, a node of degree 1, arcs outside every circle through
    the center, and a circle count other than the first Betti number."""
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
        cycles.append(_reference_walk_circle(c, b, center, k, used, node_arcs))
    if len(used) != len(b.arcs):
        return NotABouquet("arcs remain outside every circle through the center")
    g = b.genus()
    if len(cycles) != g:
        return NotABouquet(
            f"{len(cycles)} circles at the center but first Betti number {g}"
        )
    return BouquetStructure(g, center, tuple(cycles))


def _support(d: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]


def concave_lift(rng: random.Random, d: int) -> dict:
    """Coefficients of a smooth degree-d curve: the honeycomb lift
    -6(i^2 + ij + j^2) plus a random linear term and jitters below 1, which
    keep the subdivision unimodular."""
    a, b = rng.randint(-6, 6), rng.randint(-6, 6)
    return {
        (i, j): -6 * (i * i + i * j + j * j) + a * i + b * j
        + Fraction(rng.randint(-15, 15), rng.randint(16, 24))
        for i, j in _support(d)
    }


def slid_pool(rng: random.Random, degrees, slid) -> list[TropicalCurve]:
    """Smooth corner loci of the given degrees, then a copy of each locus
    in slid translated by 1/4, 2/4 or 3/4 of one of its own edges, as in
    the benchmark's intersect pool: each copy shares segments with its
    original."""
    pool = [corner_locus(polynomial(concave_lift(rng, d))) for d in degrees]
    for i in slid:
        c = pool[i]
        e = c.edges[rng.randrange(len(c.edges))]
        shift = (c.vertices[e.b] - c.vertices[e.a]) * Fraction(rng.randint(1, 3), 4)
        pool.append(translate(c, shift))
    return pool


@functools.cache
def benchmark_pool(seed: int) -> tuple[TropicalCurve, ...]:
    """The intersect workload's pool for a seed, built by the benchmark's
    own setup (perfbench/tcbench/workloads.py)."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    from tcbench import lib
    from tcbench.workloads import Intersect

    return Intersect.setup(lib.load(), seed).pool


def sparse_lift(rng: random.Random, d: int) -> dict:
    """A concave lift without a third of its non-corner terms: cells that
    are not triangles and edges of weight above 1."""
    full = concave_lift(rng, d)
    inner = [e for e in sorted(full) if e not in {(0, 0), (d, 0), (0, d)}]
    for e in rng.sample(inner, len(inner) // 3):
        del full[e]
    return full


def tied_lift(rng: random.Random, d: int) -> dict:
    """A lift depending on i + j only, up to a linear term: strip cells whose
    shared sides carry weights 1, ..., d - 1."""
    a, b = rng.randint(-6, 6), rng.randint(-6, 6)
    g = [-6 * k * k + Fraction(rng.randint(-15, 15), 16) for k in range(d + 1)]
    return {(i, j): g[i + j] + a * i + b * j for i, j in _support(d)}


# coprime denominators: the common denominator D = scale * lcm(nz) of the
# dual vertices differs from the lift's scale, or from the curve's
COPRIME_DENOMINATORS = [
    {(0, 0): Fraction(1, 3), (1, 0): Fraction(1, 7)},
    {(0, 0): 0, (1, 0): Fraction(1, 3), (0, 1): Fraction(1, 7)},
    {(0, 0): 0, (2, 0): Fraction(1, 3), (0, 2): Fraction(1, 7), (1, 1): Fraction(-1, 3)},
    {(0, 0): Fraction(1, 3), (3, 0): Fraction(1, 7), (0, 2): 0, (1, 1): Fraction(2, 21)},
    {(0, 1): Fraction(4, 7), (1, 3): Fraction(4, 3), (2, 3): 0, (0, 3): 4},
]


def poly_text(coeffs: dict) -> str:
    """The polynomial in the CLI's expression syntax, e.g. '(-3/7)*x^2*y'."""
    terms = []
    for (i, j), c in sorted(coeffs.items()):
        factors = [f"({c})"]
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if j:
            factors.append("y" if j == 1 else f"y^{j}")
        terms.append("*".join(factors))
    return " + ".join(terms)


def tropical_line(at=(0, 0)) -> TropicalCurve:
    """One vertex, rays west, south and northeast."""
    return curve([at], rays=[(0, (-1, 0)), (0, (0, -1)), (0, (1, 1))])


def anti_line(at=(0, 0)) -> TropicalCurve:
    """Mirror of the tropical line: rays east, north and southwest."""
    return curve([at], rays=[(0, (1, 0)), (0, (0, 1)), (0, (-1, -1))])


def coordinate_cross(at=(0, 0)) -> TropicalCurve:
    return curve(
        [at],
        rays=[(0, (1, 0)), (0, (-1, 0)), (0, (0, 1)), (0, (0, -1))],
    )


def diagonal_cross(at=(0, 0)) -> TropicalCurve:
    return curve(
        [at],
        rays=[(0, (1, 1)), (0, (-1, -1)), (0, (1, -1)), (0, (-1, 1))],
    )


def vertical_line(at=(0, 0)) -> TropicalCurve:
    return curve([at], rays=[(0, (0, 1)), (0, (0, -1))])


def wedge_l(at=(0, 0)) -> TropicalCurve:
    """Vertex with rays south, east and up-left; hull of exponents (0,0),(1,0),(1,1)."""
    return curve([at], rays=[(0, (0, -1)), (0, (1, 0)), (0, (-1, 1))])


def wedge_m(at=(0, 0)) -> TropicalCurve:
    """Vertex with rays down-right, north and west; hull (0,0),(0,1),(1,1)."""
    return curve([at], rays=[(0, (1, -1)), (0, (0, 1)), (0, (-1, 0))])


def triangle_cycle_host() -> TropicalCurve:
    """Genus-1 curve: triangle cycle with one ray per vertex.

    Vertices (5/2,-1), (5/2,-1/2), (2,-1/2); rays (1,-2), (1,1), (-2,1).
    """
    return curve(
        [("5/2", -1), ("5/2", "-1/2"), (2, "-1/2")],
        edges=[(0, 1), (1, 2), (2, 0)],
        rays=[(0, (1, -2)), (1, (1, 1)), (2, (-2, 1))],
    )


def unit_triangle_cycle() -> TropicalCurve:
    """Genus-1 curve whose cycle is the unit triangle (total lattice length 3)."""
    return curve(
        [(0, 0), (1, 0), (0, 1)],
        edges=[(0, 1), (1, 2), (2, 0)],
        rays=[(0, (-1, -1)), (1, (2, -1)), (2, (-1, 2))],
    )


def figure_eight() -> TropicalCurve:
    """Two triangle cycles sharing one vertex: a genus-2 bouquet, no tentacles."""
    return curve(
        [(0, 0), (1, 0), (1, 1), (-1, 0), (-1, -1)],
        edges=[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)],
        rays=[
            (1, (1, -1)), (2, (1, 2)),
            (3, (-1, 1)), (4, (-1, -2)),
        ],
    )


def two_triangles_bridged() -> TropicalCurve:
    """Two triangle cycles joined by a bridge: genus-2 bouquet whose center
    blob has a distinct attachment vertex per cycle."""
    return curve(
        [(0, 0), (1, 0), (1, 1), (-2, -1), (-3, -1), (-3, -2)],
        edges=[
            (0, 1), (1, 2), (2, 0),
            (3, 4), (4, 5), (5, 3),
            (0, 3),
        ],
        rays=[
            (1, (1, -1)), (2, (1, 2)),
            (4, (-1, 1)), (5, (-1, -2)),
        ],
    )


def theta_curve() -> TropicalCurve:
    """Reduced curve whose bunch is a theta graph (not a bouquet)."""
    return curve(
        [(0, 0), (3, 0), (1, 1), (2, 1), (1, -1), (2, -1)],
        edges=[
            (0, 1),
            (0, 2), (2, 3), (3, 1),
            (0, 4), (4, 5), (5, 1),
        ],
        rays=[
            (0, (-1, 0)), (0, (-1, 1)), (0, (-1, -1)),
            (1, (1, 0)), (1, (1, 1)), (1, (1, -1)),
            (2, (0, 1)), (3, (0, 1)),
            (4, (0, -1)), (5, (0, -1)),
        ],
    )


def weight_two_edge_curve() -> TropicalCurve:
    """Balanced but non-reduced: a single weight-2 finite edge."""
    return curve(
        [(0, 0), (1, 0)],
        edges=[(0, 1, 2)],
        rays=[
            (0, (-1, 1)), (0, (-1, -1)),
            (1, (1, 1)), (1, (1, -1)),
        ],
    )


def tail_cycle_curve() -> TropicalCurve:
    """Triangle cycle with a two-edge tail: tail edges are tentacles.

    Triangle (0,0),(1,0),(0,1); tail (0,1)->(0,2)->(0,3) ending in two rays.
    The tail's middle vertex is 2-valent collinear (a subdivided tentacle).
    """
    return curve(
        [(0, 0), (1, 0), (0, 1), (0, 2), (0, 3)],
        edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)],
        rays=[
            (0, (-1, -1)),
            (1, (2, -1)),
            (2, (-1, 1)),
            (4, (-1, 1)), (4, (1, 0)),
        ],
    )


def square_loop(cx=0, cy=0, r=1):
    """Axis-aligned square loop around (cx, cy)."""
    from tropcurve.geom import pt

    return (
        pt(cx - r, cy - r),
        pt(cx + r, cy - r),
        pt(cx + r, cy + r),
        pt(cx - r, cy + r),
    )


def rect_loop(cx, cy, rx, ry):
    """Axis-aligned rectangle loop; unequal radii dodge diagonal rays."""
    from tropcurve.geom import pt

    return (
        pt(cx - rx, cy - ry),
        pt(cx + rx, cy - ry),
        pt(cx + rx, cy + ry),
        pt(cx - rx, cy + ry),
    )
