import random
from fractions import Fraction
from itertools import combinations

import pytest

from fixtures_lib import (
    concave_lift,
    coordinate_cross,
    item_ends,
    rect_loop,
    reference_embedding_violations,
    reference_item_intersection,
    reference_loop_crossings,
    reference_outgoing,
    reference_union,
    sparse_lift,
    tied_lift,
    figure_eight,
    square_loop,
    tail_cycle_curve,
    theta_curve,
    triangle_cycle_host,
    tropical_line,
    two_triangles_bridged,
    vertical_line,
    weight_two_edge_curve,
    wedge_l,
    wedge_m,
)
from tropcurve.curve import (
    Edge,
    LoopError,
    Ray,
    Shared,
    StructureError,
    TropicalCurve,
    _loop_crossings,
    _loop_sides,
    canonical_form,
    curve,
    global_balance_sum,
    items,
    local_star,
    locate,
    moment_sum,
    normalize,
    translate,
    union,
    validate,
)
from tropcurve.geom import IntVector, cross, dot, moment, pt, vec
from tropcurve.polyfront import corner_locus, polynomial


ALL_FIXTURES = [
    tropical_line(),
    coordinate_cross(),
    vertical_line(),
    wedge_l(),
    wedge_m(),
    triangle_cycle_host(),
    figure_eight(),
    two_triangles_bridged(),
    theta_curve(),
    weight_two_edge_curve(),
    tail_cycle_curve(),
]


@pytest.mark.parametrize("c", ALL_FIXTURES)
def test_fixtures_all_valid(c):
    report = validate(c)
    assert report.balanced, report.residuals
    assert not report.embedding_violations, report.embedding_violations
    assert report.passed


def test_validate_unbalanced():
    c = curve([(0, 0)], rays=[(0, (1, 0)), (0, (0, 1))])
    report = validate(c)
    assert not report.balanced
    assert report.residuals[0] == vec(1, 1)


def test_validate_structural_errors():
    with pytest.raises(StructureError):
        validate(curve([(0, 0), (0, 0)], edges=[(0, 1)]))
    with pytest.raises(StructureError):
        validate(curve([(0, 0)], rays=[(0, (2, 4))]))
    with pytest.raises(StructureError):
        validate(curve([(0, 0), (1, 0)], edges=[(0, 2)]))
    with pytest.raises(StructureError):
        validate(curve([(0, 0), (5, 5)], rays=[(0, (1, 0)), (0, (-1, 0))]))
    with pytest.raises(StructureError):
        validate(curve([(0, 0), (1, 0)], edges=[(0, 1, 0)]))


def test_coincident_vertices_named_at_large_denominators():
    big = Fraction(3 ** 200 + 1, 7 ** 150 + 2)
    x, y = big, -big / 5
    c = curve([(0, 0), (x, y), (1, 1), (f"{x.numerator * 3}/{x.denominator * 3}", y)],
              edges=[(0, 1), (2, 3)])
    with pytest.raises(StructureError) as err:
        validate(c)
    assert str(err.value) == f"vertices 1 and 3 coincide at ({x}, {y})"
    # a vertex 10^-40 away is another vertex
    near = curve([(x, y), (x + Fraction(1, 10 ** 40), y)], edges=[(0, 1)])
    assert validate(near).residuals == (vec(1, 0), vec(-1, 0))


def test_validate_embedding_violation():
    # two crossing full lines without a common vertex
    c = curve(
        [(0, 0), (1, -1)],
        rays=[
            (0, (1, 0)), (0, (-1, 0)),
            (1, (0, 1)), (1, (0, -1)),
        ],
    )
    report = validate(c)
    assert report.balanced
    assert report.embedding_violations
    assert not report.passed
    # T-junctions: a vertex (edge 1's head) inside edge 0, and ray 1's
    # origin on ray 0
    for c, message in [
        (
            curve([(0, 0), (2, 0), (1, 0), (1, 1)], edges=[(0, 1), (3, 2)]),
            "edge 0 and edge 1 meet at (1, 0) which is not a shared vertex",
        ),
        (
            curve([(0, 0), (1, 0)], rays=[(0, (1, 0)), (1, (0, 1))]),
            "ray 0 and ray 1 meet at (1, 0) which is not a shared vertex",
        ),
    ]:
        assert validate(c).embedding_violations == (message,)
    # items meeting at edge 0's head vertex (1, 1) share it
    c = curve(
        [(0, 0), (1, 1)],
        edges=[(0, 1)],
        rays=[(0, (-1, 0)), (0, (0, -1)), (1, (1, 0)), (1, (0, 1))],
    )
    assert validate(c).passed


def test_locate_and_star():
    c = triangle_cycle_host()
    assert locate(c, pt("5/2", -1)) == ("vertex", 0)
    assert locate(c, pt("5/2", "-3/4")) == ("edge", 0)
    assert locate(c, pt(3, 0)) == ("ray", 1)
    assert locate(c, pt(100, 100)) is None
    assert sorted(local_star(c, pt(3, 0)), key=lambda v: (v.x, v.y)) == [
        vec(-1, -1),
        vec(1, 1),
    ]
    assert local_star(c, pt(7, 7)) == []


def test_locate_coincident_vertices_gives_first_index():
    # validate refuses coincident vertices, so the curve is built directly
    line = tropical_line()
    c = TropicalCurve(line.vertices * 2, (), line.rays + tuple(
        Ray(1, r.direction, r.weight) for r in line.rays
    ))
    assert locate(c, pt(0, 0)) == ("vertex", 0)
    assert locate(c, pt(-1, 0)) == ("ray", 0)


def test_translate():
    line = tropical_line()
    assert translate(line, pt(0, 0)) == line
    moved = translate(line, pt(1, 2))
    assert moved.vertices[0] == pt(1, 2)
    assert moved.rays == line.rays


def test_global_balance_sum_line():
    line = tropical_line()
    assert global_balance_sum(line, rect_loop(0, 0, 1, Fraction(1, 2))) == vec(0, 0)


def test_global_balance_sum_double_crossing():
    # loop straddles the west ray but encloses no vertex
    line = tropical_line()
    loop = square_loop(-5, 0, 1)
    assert global_balance_sum(line, loop) == vec(0, 0)


def test_global_balance_sum_every_fixture():
    for c in ALL_FIXTURES:
        for v in c.vertices:
            loop = tuple(
                v + d for d in rect_loop(0, 0, Fraction(1, 7), Fraction(1, 11))
            )
            try:
                s = global_balance_sum(c, loop)
            except LoopError:
                continue  # loop grazes another feature; skip that vertex
            assert s == vec(0, 0)


def test_loop_errors():
    line = tropical_line()
    with pytest.raises(LoopError):
        # corner exactly on the vertex
        global_balance_sum(line, (pt(0, 0), pt(2, 0), pt(2, 2)))
    with pytest.raises(LoopError):
        # side runs along the west ray
        global_balance_sum(
            line, (pt(-2, 0), pt(-1, 0), pt(-1, 1), pt(-2, 1))
        )
    with pytest.raises(LoopError):
        # passes through the vertex
        global_balance_sum(line, square_loop(0, 1, 1))


@pytest.mark.parametrize(
    "loop, message",
    [
        ([(5, 5), (6, 5)], "loop needs at least 3 points"),
        ([(5, 5), (6, 5), (5, 5)], "loop has a zero-length side"),
        ([(5, 5), (7, 5), (6, 5)], "loop is not a simple polygon"),  # sides overlap
        ([(5, 5), (7, 7), (7, 5), (5, 7)], "loop is not a simple polygon"),  # bow tie
        ([(-1, 1), (1, -1), (1, 2)], "loop passes through a curve vertex"),
    ],
    ids=["two-points", "zero-side", "overlap", "bow-tie", "through-vertex"],
)
def test_loop_error_messages(loop, message):
    with pytest.raises(LoopError) as err:
        global_balance_sum(tropical_line(), tuple(pt(x, y) for x, y in loop))
    assert str(err.value) == message


def _reference_is_simple(loop) -> bool:
    """Whether a closed polygon without zero-length sides is simple: sides
    that are not adjacent are disjoint, adjacent ones share only their
    corner.  Each pair is decided in Fraction arithmetic."""
    n = len(loop)
    polygon = TropicalCurve(tuple(loop), tuple(Edge(k, (k + 1) % n) for k in range(n)), ())
    sides = items(polygon)
    for i, j in combinations(range(n), 2):
        corner = loop[j] if j == i + 1 else loop[0] if (i, j) == (0, n - 1) else None
        p = reference_item_intersection(sides[i], sides[j])
        if p is not None and (isinstance(p, Shared) or p != corner):
            return False
    return True


def test_loop_sides_refuses_exactly_the_non_simple_loops():
    """The meeting scan's one raise catches every non-simple loop: random
    integer loops of 3 to 6 corners in [-2, 2]^2."""
    rng = random.Random(29)
    seen = {True: 0, False: 0}
    for _ in range(3000):
        n = rng.randint(3, 6)
        loop = [pt(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
        if any(loop[k] == loop[(k + 1) % n] for k in range(n)):
            continue
        simple = _reference_is_simple(loop)
        seen[simple] += 1
        if simple:
            assert [it.index for it in _loop_sides(loop).views] == list(range(n))
        else:
            with pytest.raises(LoopError, match="loop is not a simple polygon"):
                _loop_sides(loop)
    assert min(seen.values()) > 300


def test_moment_sum_line():
    line = tropical_line()
    loop = rect_loop(0, 0, 1, Fraction(1, 2))
    assert moment_sum(line, loop, pt(0, 0)) == 0
    assert moment_sum(line, loop, pt(5, 7)) == 0


def test_moment_sum_cycle_loop():
    c = triangle_cycle_host()
    loop = rect_loop(Fraction(18, 7), 0, Fraction(17, 7), 3)
    assert moment_sum(c, loop, pt(5, 7)) == 0
    assert moment_sum(c, loop, pt("-3/7", "22/5")) == 0


# Sixteen lattice directions in counterclockwise order.
_STAR = [
    (1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1),
    (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1), (1, -2), (1, -1), (2, -1),
]


def _random_unbalanced_curve(rng: random.Random) -> TropicalCurve:
    """Distinct lattice vertices joined by random weighted edges and rays;
    nothing balances, and edges may cross."""
    pool = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
    vs = tuple(pt(x, y) for x, y in rng.sample(pool, rng.randint(2, 6)))
    n = len(vs)
    es = []
    for _ in range(rng.randint(1, 6)):
        a, b = rng.sample(range(n), 2)
        es.append(Edge(a, b, rng.randint(1, 3)))
    rs = tuple(
        Ray(rng.randrange(n), IntVector(*rng.choice(_STAR)), rng.randint(1, 2))
        for _ in range(rng.randint(0, 4))
    )
    return TropicalCurve(vs, tuple(es), rs)


def _random_star_loop(rng: random.Random) -> tuple:
    """A simple polygon, star-shaped about a rational centre, in either
    orientation: corners along some of the sixteen directions, no two
    consecutive ones half a turn or more apart."""
    while True:
        keep = [k for k in range(16) if rng.random() < 0.6]
        gaps = [(keep[(i + 1) % len(keep)] - keep[i]) % 16 for i in range(len(keep))]
        if len(keep) >= 3 and max(gaps) < 8:
            break
    centre = pt(Fraction(rng.randint(-40, 40), 7), Fraction(rng.randint(-40, 40), 11))
    loop = [
        centre + pt(*_STAR[k]) * Fraction(rng.randint(3, 60), rng.choice([7, 13]))
        for k in keep
    ]
    return tuple(loop if rng.random() < 0.5 else loop[::-1])


def _on_boundary(p, loop) -> bool:
    n = len(loop)
    for k in range(n):
        a, b = loop[k], loop[(k + 1) % n]
        if cross(b - a, p - a) == 0 and 0 <= dot(p - a, b - a) <= dot(b - a, b - a):
            return True
    return False


def _inside(p, loop) -> bool:
    """Even-odd test for a point off the boundary."""
    inside = False
    n = len(loop)
    for k in range(n):
        a, b = loop[k], loop[(k + 1) % n]
        if (a.y > p.y) != (b.y > p.y):
            if a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y) > p.x:
                inside = not inside
    return inside


def test_loop_sums_equal_enclosed_residuals():
    """Outward crossing vectors add up to the residuals of the vertices the
    loop encloses, and their moments to those residuals' moments."""
    rng = random.Random(20061)
    crossed = 0
    for _ in range(300):
        c = _random_unbalanced_curve(rng)
        loop = _random_star_loop(rng)
        if any(_on_boundary(v, loop) for v in c.vertices):
            continue
        try:
            total = global_balance_sum(c, loop)
        except LoopError:
            continue
        base = pt(Fraction(rng.randint(-30, 30), 4), Fraction(rng.randint(-30, 30), 3))
        residuals = [
            sum(reference_outgoing(c, v), IntVector(0, 0)) for v in range(len(c.vertices))
        ]
        enclosed = [v for v, p in enumerate(c.vertices) if _inside(p, loop)]
        expect = IntVector(0, 0)
        for v in enclosed:
            expect = expect + residuals[v]
        assert total == expect
        assert moment_sum(c, loop, base) == sum(
            cross(c.vertices[v] - base, residuals[v]) for v in enclosed
        )
        crossed += total != vec(0, 0)
    assert crossed > 50


def test_union_translated_lines():
    a = tropical_line()
    b = translate(a, pt(3, 0))
    u = union(a, b)
    report = validate(u)
    assert report.passed
    assert len(u.vertices) == 2
    assert len(u.edges) == 1 and u.edges[0].weight == 1
    # one doubled west ray, two south, two northeast
    by_dir = {}
    for r in u.rays:
        by_dir[(r.direction.x, r.direction.y)] = by_dir.get(
            (r.direction.x, r.direction.y), 0
        ) + r.weight
    assert by_dir == {(-1, 0): 2, (0, -1): 2, (1, 1): 2}


def test_union_self_doubles_weights():
    a = tropical_line()
    u = union(a, a)
    assert validate(u).passed
    assert len(u.vertices) == 1 and not u.edges
    assert sorted(r.weight for r in u.rays) == [2, 2, 2]


def test_union_transversal_crossing_makes_vertex():
    a = tropical_line()
    b = vertical_line((-2, -5))
    u = union(a, b)
    assert validate(u).passed
    # the vertical line crosses the west ray at (-2, 0)
    assert pt(-2, 0) in u.vertices


def test_union_commutative():
    a = triangle_cycle_host()
    b = wedge_l((0, 0))
    assert canonical_form(union(a, b)) == canonical_form(union(b, a))


def test_union_ray_weight_multiset():
    a = tropical_line()
    b = translate(tropical_line(), pt(1, 3))
    u = union(a, b)

    def ray_data(c):
        out = {}
        for r in c.rays:
            k = (r.direction.x, r.direction.y)
            out[k] = out.get(k, 0) + r.weight
        return out

    expected = ray_data(a)
    for k, w in ray_data(b).items():
        expected[k] = expected.get(k, 0) + w
    assert ray_data(u) == expected


def test_normalize_fuses_collinear():
    c = curve(
        [(0, 0), (1, 0), (2, 0)],
        edges=[(0, 1), (1, 2)],
        rays=[
            (0, (-1, 0)), (0, (0, 1)), (0, (0, -1)),
            (2, (1, 0)), (2, (0, 1)), (2, (0, -1)),
        ],
    )
    n = normalize(c)
    assert validate(n).passed
    assert len(n.vertices) == 2 and len(n.edges) == 1


def test_normalize_keeps_opposite_rays():
    c = vertical_line()
    assert normalize(c) == c


# -- the curve checks on the scan's integer reports, against the Points --


def _seeded_loci(seed: int) -> list[TropicalCurve]:
    """Corner loci of degrees 2 to 4 from concave, sparse and tied lifts."""
    rng = random.Random(seed)
    return [
        corner_locus(polynomial(lift(rng, d)))
        for lift in (concave_lift, sparse_lift, tied_lift)
        for d in (2, 3, 4)
    ]


def _slid(rng: random.Random, c: TropicalCurve, q: int) -> TropicalCurve:
    """c translated by k/q, 0 < k < q, of one of its edges, or of a ray's
    direction when it has no edge."""
    if c.edges:
        e = c.edges[rng.randrange(len(c.edges))]
        step = c.vertices[e.b] - c.vertices[e.a]
    else:
        step = c.rays[rng.randrange(len(c.rays))].direction.to_point()
    return translate(c, step * Fraction(rng.randint(1, q - 1), q))


def _overlay(c1: TropicalCurve, c2: TropicalCurve) -> TropicalCurve:
    """Both curves' items as one curve, none split where they meet."""
    n = len(c1.vertices)
    return TropicalCurve(
        c1.vertices + c2.vertices,
        c1.edges + tuple(Edge(e.a + n, e.b + n, e.weight) for e in c2.edges),
        c1.rays + tuple(Ray(r.vertex + n, r.direction, r.weight) for r in c2.rays),
    )


def test_union_matches_point_reference():
    """union against reference_union on the meeting Points: each seeded
    locus with itself and with copies slid by thirds, fifths and sevenths
    of an edge, so that both sides' rays are cut on a raised scale."""
    rng = random.Random(22)
    raised = 0
    for c in _seeded_loci(22):
        for d in (c, *(_slid(rng, c, q) for q in (3, 5, 7))):
            raised += d._scale != c._scale
            for a, b in ((c, d), (d, c)):
                assert union(a, b) == reference_union(a, b)
    assert raised >= 15


def test_validate_and_loops_match_point_references():
    """validate's violations on self-overlays, and the loop crossings, sums
    and refusals on random loops, against the references on the meeting
    Points."""
    rng = random.Random(23)
    overlays = crossings = 0
    refusals = set()
    for c in _seeded_loci(23):
        for q in (3, 5, 7):
            o = _overlay(c, _slid(rng, c, q))
            try:
                got = validate(o).embedding_violations
            except StructureError:
                continue  # a vertex of the copy fell on a vertex of c
            assert got == reference_embedding_violations(o)
            overlays += bool(got)
        v = c.vertices[rng.randrange(len(c.vertices))]
        loops = [
            rect_loop(
                Fraction(rng.randint(-40, 40), rng.choice([1, 3, 5])),
                Fraction(rng.randint(-40, 40), rng.choice([1, 2, 7])),
                Fraction(rng.randint(1, 30), rng.choice([1, 3])),
                Fraction(rng.randint(1, 30), rng.choice([1, 5])),
            )
            for _ in range(8)
        ]
        loops.append([pt(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 5))])
        loops.append((v, v + pt(1, 0), v + pt(1, 1)))  # a corner on a vertex
        loops.append((v - pt(1, 0), v + pt(1, 0), v + pt(0, 1)))  # a side through it
        e = items(c)[0]
        o, h = item_ends(e)
        a, b = (o + (h - o) * Fraction(k, 3) for k in (1, 2))
        loops.append((a, b, a + pt(-e.prim.y, e.prim.x) * Fraction(1, 97)))  # along edge 0
        for loop in loops:
            loop = loop if rng.random() < 0.5 else loop[::-1]
            base = pt(Fraction(rng.randint(-9, 9), 7), Fraction(rng.randint(-9, 9), 5))
            try:
                want = reference_loop_crossings(c, loop)
            except LoopError as err:
                for run in (lambda: global_balance_sum(c, loop), lambda: moment_sum(c, loop, base)):
                    with pytest.raises(LoopError) as got:
                        run()
                    assert str(got.value) == str(err)
                refusals.add(str(err).split(" along ")[0])
                continue
            assert _loop_crossings(c, loop) == want
            assert global_balance_sum(c, loop) == sum((w for _, w, _ in want), vec(0, 0))
            assert moment_sum(c, loop, base) == sum(moment(w, p, base) for _, w, p in want)
            crossings += bool(want)
    assert overlays >= 15 and crossings >= 30
    assert {
        "loop is not a simple polygon", "loop corner touches the curve",
        "loop passes through a curve vertex", "loop runs",
    } <= refusals
