import dataclasses
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures_lib import (
    _point_at,
    anti_line,
    concave_lift,
    coordinate_cross,
    diagonal_cross,
    figure_eight,
    item_ends,
    reference_abel_coordinate,
    reference_items_at,
    reference_param_of,
    reference_project_point,
    reference_sigma,
    sigma_on_the_record,
    slid_pool,
    tail_cycle_curve,
    theta_curve,
    triangle_cycle_host,
    tropical_line,
    two_triangles_bridged,
    unit_triangle_cycle,
    vertical_line,
    weight_two_edge_curve,
    wedge_l,
    wedge_m,
)
from tropcurve.curve import items, items_at, translate
from tropcurve.geom import cross, pt
from tropcurve.intersect import Divisor, _entries, has_shared_segment, stable_intersection
from tropcurve import jacobian as jacobian_mod
from tropcurve.jacobian import (
    CycleSystem,
    UnsupportedCurveError,
    abel_coordinate,
    cycle_system,
    linearly_equivalent,
    linearly_equivalent_on,
    parametrize_cycles,
    project_point,
    sigma,
)
from tropcurve.params import curve_from_params, params_from_curve, perturb
from tropcurve.polyfront import corner_locus, polynomial

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def test_moduli_triangle_host():
    s = cycle_system(triangle_cycle_host())
    assert s.genus == 1
    assert s.moduli() == (Fraction(3, 2),)


def test_moduli_unit_triangle():
    s = cycle_system(unit_triangle_cycle())
    assert s.moduli() == (Fraction(3),)


def test_moduli_genus_two():
    for host in (figure_eight(), two_triangles_bridged()):
        s = cycle_system(host)
        assert s.genus == 2
        assert s.moduli() == (Fraction(3), Fraction(3))


def test_square_cycle_length():
    from tropcurve.curve import curve

    square = curve(
        [(0, 0), (2, 0), (2, 2), (0, 2)],
        edges=[(0, 1), (1, 2), (2, 3), (3, 0)],
        rays=[(0, (-1, -1)), (1, (1, -1)), (2, (1, 1)), (3, (-1, 1))],
    )
    from tropcurve.curve import validate

    assert validate(square).passed
    s = cycle_system(square)
    assert s.moduli() == (Fraction(8),)


def test_parametrization_midpoint():
    c = unit_triangle_cycle()
    s = cycle_system(c)
    (cp,) = s.cycles
    assert cp.base_vertex == 0
    mid = cp.point_at(c, Fraction(3, 2))
    assert mid == pt("1/2", "1/2")
    assert reference_param_of(cp, c, mid) == Fraction(3, 2)
    assert cp.point_at(c, Fraction(0)) == c.vertices[0]
    assert cp.point_at(c, cp.total_length + Fraction(1, 2)) == cp.point_at(
        c, Fraction(1, 2)
    )


def test_project_points():
    c = triangle_cycle_host()
    s = cycle_system(c)
    base = s.cycles[0].base_vertex
    assert project_point(s, c.vertices[base]) == (None, 0)
    # vertex above the base along the cycle
    assert project_point(s, pt("5/2", -1)) == (0, Fraction(1, 2))
    assert project_point(s, pt("5/2", "-1/2")) == (0, Fraction(1))
    # ray points inherit their attachment: the (-2,1) ray hangs off the
    # center vertex, the (1,1) ray off the cycle point at parameter 1
    assert project_point(s, pt(1, 0)) == (None, Fraction(0))
    assert project_point(s, pt(3, 0)) == (0, Fraction(1))
    with pytest.raises(Exception):
        project_point(s, pt(50, 50))


def test_project_tentacle_points():
    c = tail_cycle_curve()
    s = cycle_system(c)
    # every point of the tail maps to the residue of the attachment vertex (0,1)
    target = project_point(s, pt(0, 1))
    assert target == (0, Fraction(2))
    for p in [pt(0, "3/2"), pt(0, 2), pt(0, "5/2"), pt(0, 3), pt("-1/2", "7/2"), pt(2, 3)]:
        assert project_point(s, p) == target


def test_abel_examples():
    c = triangle_cycle_host()
    s = cycle_system(c)
    o_i = c.vertices[s.cycles[0].base_vertex]
    d = Divisor.of({o_i: 1, pt(1, 0): -1})  # O_i minus a base-residue ray point
    coord = abel_coordinate(s, d)
    assert coord.degree == 0 and coord.residues == (Fraction(0),)
    p = s.cycles[0].point_at(c, Fraction(5, 4))
    coord2 = abel_coordinate(s, Divisor.of({p: 1, o_i: -1}))
    assert coord2.residues == (Fraction(5, 4),)
    q = s.cycles[0].point_at(c, Fraction(1, 3))
    coord3 = abel_coordinate(s, Divisor.of({p: 2, q: -1}))
    assert coord3.residues == ((2 * Fraction(5, 4) - Fraction(1, 3)) % Fraction(3, 2),)


def test_equivalence_same_ray():
    c = triangle_cycle_host()
    s = cycle_system(c)
    # two points on the northeast ray from (5/2, -1/2)
    d1 = Divisor.of({pt(4, 1): 1})
    d2 = Divisor.of({pt(6, 3): 1})
    assert linearly_equivalent(s, d1, d2)


def test_equivalence_rejects_distinct_cycle_points():
    c = triangle_cycle_host()
    s = cycle_system(c)
    d1 = Divisor.of({pt(1, 0): 1})   # residue 0
    d2 = Divisor.of({pt(3, 0): 1})   # residue 1
    assert not linearly_equivalent(s, d1, d2)


def test_equivalence_requires_equal_degree():
    c = triangle_cycle_host()
    s = cycle_system(c)
    o_i = c.vertices[s.cycles[0].base_vertex]
    assert not linearly_equivalent(
        s, Divisor.of({o_i: 2}), Divisor.of({o_i: 1})
    )


def test_equivalence_is_equivalence_relation():
    c = triangle_cycle_host()
    s = cycle_system(c)
    ds = [
        Divisor.of({pt(1, 0): 1}),
        Divisor.of({pt("1/2", "1/4"): 1}),  # also on the (-2,1) ray
        Divisor.of({pt(3, 0): 1}),
    ]
    for a in ds:
        assert linearly_equivalent(s, a, a)
    assert linearly_equivalent(s, ds[0], ds[1])
    assert linearly_equivalent(s, ds[1], ds[0])
    assert not linearly_equivalent(s, ds[0], ds[2])


def test_linearly_equivalent_on():
    c = unit_triangle_cycle()
    (cp,) = cycle_system(c).cycles
    a, b = Fraction(1, 3), Fraction(5, 4)
    shift = Divisor.of({cp.point_at(c, a + 1): 1}) - Divisor.of({cp.point_at(c, a): 1})
    same = Divisor.of({cp.point_at(c, b + 1): 1}) - Divisor.of({cp.point_at(c, b): 1})
    other = Divisor.of({cp.point_at(c, b + 2): 1}) - Divisor.of({cp.point_at(c, b): 1})
    assert linearly_equivalent_on(c, shift, same)
    assert not linearly_equivalent_on(c, shift, other)
    with pytest.raises(UnsupportedCurveError) as err:
        linearly_equivalent_on(theta_curve(), shift, shift)
    assert str(err.value) == (
        "bunch is not a bouquet: 2 quotient nodes have degree >= 3"
    )


def test_refusals():
    with pytest.raises(UnsupportedCurveError):
        cycle_system(theta_curve())
    s = cycle_system(weight_two_edge_curve())  # bouquet of genus 0, but not reduced
    d = Divisor.of({pt(0, 0): 1})
    with pytest.raises(UnsupportedCurveError):
        linearly_equivalent(s, d, d)


@given(rationals, rationals, rationals)
def test_cycle_shift_pairs_equivalent(a, b, delta):
    c = unit_triangle_cycle()
    s = cycle_system(c)
    (cp,) = s.cycles
    pa, pa2 = cp.point_at(c, a), cp.point_at(c, a + delta)
    pb, pb2 = cp.point_at(c, b), cp.point_at(c, b + delta)
    d1 = Divisor.of({pa2: 1}) - Divisor.of({pa: 1})
    d2 = Divisor.of({pb2: 1}) - Divisor.of({pb: 1})
    assert linearly_equivalent(s, d1, d2)


def _reversed_system(s: CycleSystem, which: int = 0) -> CycleSystem:
    cp = s.cycles[which]
    path = tuple(reversed(cp.vertex_path))
    edges = tuple(reversed(cp.edge_indices))
    breaks = [Fraction(0)]
    for i in range(len(path) - 1):
        seg = (
            cp.breakpoints[len(path) - 1 - i]
            - cp.breakpoints[len(path) - 2 - i]
        )
        breaks.append(breaks[-1] + seg)
    rev = dataclasses.replace(
        cp,
        vertex_path=path,
        edge_indices=edges,
        breakpoints=tuple(breaks),
    )
    cycles = list(s.cycles)
    cycles[which] = rev
    return dataclasses.replace(s, cycles=tuple(cycles))


def _rebased_system(s: CycleSystem, offset: int) -> CycleSystem:
    """Coherent genus-1 variant: base moved along the cycle, center follows."""
    (cp,) = s.cycles
    path = cp.vertex_path[:-1]
    path = path[offset:] + path[:offset]
    edges = cp.edge_indices[offset:] + cp.edge_indices[:offset]
    c = s.curve
    from tropcurve.geom import primitive_direction

    breaks = [Fraction(0)]
    for i in range(len(path)):
        a = c.vertices[path[i]]
        b = c.vertices[path[(i + 1) % len(path)]]
        _, ll = primitive_direction(b - a)
        breaks.append(breaks[-1] + ll)
    new = dataclasses.replace(
        cp,
        vertex_path=path + (path[0],),
        edge_indices=edges,
        breakpoints=tuple(breaks),
        base_vertex=path[0],
    )
    new_center = s.graph.node_of_vertex[path[0]]
    bq = dataclasses.replace(
        s.bouquet,
        center_node=new_center,
        cycles=(
            dataclasses.replace(s.bouquet.cycles[0], base_vertex=path[0]),
        ),
    )
    return dataclasses.replace(s, cycles=(new,), bouquet=bq)


def _bouquet_hosts():
    """Cycle systems of the genus >= 1 bouquet fixtures, plus reoriented
    and rebased variants of the triangle host."""
    out = [
        cycle_system(make())
        for make in (
            triangle_cycle_host, unit_triangle_cycle, figure_eight,
            two_triangles_bridged, tail_cycle_curve,
        )
    ]
    s = out[0]
    out += [
        _reversed_system(s),
        _rebased_system(s, 1),
        _rebased_system(s, 2),
        _reversed_system(_rebased_system(s, 1)),
        _reversed_system(out[2], 1),
    ]
    return out


def test_cycle_data_sit_on_the_host_scale():
    # every breakpoint is a sum of item lengths, each gcd(v) over the
    # host's scale, so the cycle data need no larger denominator
    systems = _bouquet_hosts() + [
        cycle_system(corner_locus(polynomial(concave_lift(random.Random(seed), 3))))
        for seed in range(12)
    ]
    for s in systems:
        ints = s._on_ints
        assert ints[0] == s.curve._scale
        assert ints[1] == [cp.total_length * s.curve._scale for cp in s.cycles]


def test_project_point_matches_reference_route():
    for s in _bouquet_hosts():
        assert s.genus >= 1
        c = s.curve
        # every vertex, every edge midpoint and one point on every ray
        pts = list(c.vertices)
        pts += [_point_at(it, Fraction(1, 2) if it.bounded else 1) for it in items(c)]
        for p in pts:
            assert project_point(s, p) == reference_project_point(s, p)


def test_verdict_invariant_under_orientation_and_base():
    c = triangle_cycle_host()
    s = cycle_system(c)
    variants = [
        _reversed_system(s),
        _rebased_system(s, 1),
        _rebased_system(s, 2),
        _reversed_system(_rebased_system(s, 1)),
    ]
    pairs = [
        (Divisor.of({pt(1, 0): 1}), Divisor.of({pt("1/2", "1/4"): 1})),
        (Divisor.of({pt(1, 0): 1}), Divisor.of({pt(3, 0): 1})),
        (
            stable_intersection(c, wedge_l((0, 0))),
            stable_intersection(c, wedge_m((2, 1))),
        ),
    ]
    for d1, d2 in pairs:
        verdict = linearly_equivalent(s, d1, d2)
        for v in variants:
            assert linearly_equivalent(v, d1, d2) == verdict


def test_sigma_translation_invariant():
    host = cycle_system(triangle_cycle_host())
    mobile = wedge_l((0, 0))
    ref = sigma(host, mobile)
    assert ref.degree == 3 and ref.residues == (Fraction(1),)
    for t in [pt("1/3", "2/7"), pt(-2, 5), pt("11/2", "-9/4")]:
        moved = translate(mobile, t)
        got = sigma(host, moved)
        assert got == ref


def test_sigma_line_hitting_only_base_ray():
    host = cycle_system(triangle_cycle_host())
    mobile = vertical_line((0, -5))
    coord = sigma(host, mobile)
    assert coord.degree == 2
    assert coord.residues == (Fraction(0),)


def test_sigma_difference_of_wedges():
    host = cycle_system(triangle_cycle_host())
    sl = sigma(host, wedge_l((0, 0)))
    sm = sigma(host, wedge_m((2, 1)))
    assert sl.degree == sm.degree == 3
    assert sl.residues != sm.residues
    diff = (sl - sm).residues[0] % host.moduli()[0]
    assert diff == Fraction(1, 2)


def test_sigma_line_crossing_cycle_twice():
    # line at (8/3, -3/4): west ray crosses the cycle at parameters 3/4 and
    # 1/4, south ray hits the ray attached at parameter 1/2; total 3/2 == 0
    host = cycle_system(triangle_cycle_host())
    mobile = tropical_line(("8/3", "-3/4"))
    d = stable_intersection(host.curve, mobile)
    residues = []
    for p, m in d.entries:
        k, t = project_point(host, p)
        assert k == 0
        residues.append(m * t)
    assert sorted(residues) == [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    coord = sigma(host, mobile)
    assert coord.degree == 3
    assert coord.residues == (sum(residues) % host.moduli()[0],)
    assert coord.residues == (Fraction(0),)


def test_moment_mechanism_for_transversal_family():
    """Matched crossings of two transversal positions satisfy the moment law.

    Crossing vectors are taken outward (based inside the cycle loop) and
    divided by the crossing multiplicity; the displacement cross products
    then cancel exactly, which is what keeps sigma locally constant.
    """
    from tropcurve.curve import _loop_crossings, locate

    host = triangle_cycle_host()
    loop = tuple(host.vertices[i] for i in (0, 1, 2))
    l0 = tropical_line(("8/3", "-3/4"))
    l1 = tropical_line(("161/60", "-133/180"))

    def crossings(mobile):
        out = []
        for it, w_out, p in _loop_crossings(mobile, loop):
            kind, idx = locate(host, p)
            assert kind == "edge"
            side = items(host)[idx]
            mu = abs(cross(side.prim, w_out))
            out.append(((it.kind, it.index), p, w_out.to_point() * Fraction(1, mu)))
        out.sort(key=lambda r: r[0])
        return out

    c0, c1 = crossings(l0), crossings(l1)
    assert len(c0) == len(c1) >= 2
    total = Fraction(0)
    for (k0, p0, u), (k1, p1, _) in zip(c0, c1):
        assert k0 == k1
        total += cross(p1 - p0, u)
    assert total == 0


# Quarter-integer translates of these meet the hosts at every kind of
# point: inside cycle edges and at their ends, on tentacles and rays, and at
# the bouquet center; some share segments with a host.
MOBILES = [
    tropical_line(), anti_line(), coordinate_cross(), diagonal_cross(),
    vertical_line(), wedge_l(), wedge_m(), weight_two_edge_curve(),
]
HOSTS = _bouquet_hosts()
shifts = st.builds(
    pt,
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(HOSTS), st.sampled_from(MOBILES), shifts)
def test_sigma_matches_items_at_projection(system, mobile, shift):
    moved = translate(mobile, shift)
    assert sigma(system, moved) == reference_sigma(system, moved)


def test_sigma_matches_items_at_projection_on_pool():
    # a smooth cubic host against seeded loci and slid copies of the host,
    # which share segments with it and take the oracle route
    pool = slid_pool(random.Random(7), (3, 2, 3, 4), (0, 0))
    system = cycle_system(pool[0])
    assert system.genus == 1
    assert {has_shared_segment(pool[0], m) for m in pool[1:]} == {False, True}
    for mobile in pool:
        assert sigma(system, mobile) == reference_sigma(system, mobile)


def _points_by_kind(system) -> dict[str, list]:
    """The host's vertices and items by the kind of point they give, read
    off the bunch and the cycle paths: vertices in the center's blob and
    other vertices, then edges on a cycle, other edges (tentacles) and
    rays.  Kinds the host lacks are left out."""
    c = system.curve
    node_of = system.graph.node_of_vertex
    on_cycle = {e for cp in system.cycles for e in cp.edge_indices}
    kinds: dict[str, list] = {}
    for v in range(len(c.vertices)):
        kinds.setdefault("center" if node_of[v] == system.bouquet.center_node else "vertex", []).append(v)
    for it in items(c):
        kind = "ray" if not it.bounded else "cycle" if it.index in on_cycle else "tentacle"
        kinds.setdefault(kind, []).append(it)
    return kinds


ABEL_HOSTS = HOSTS + [cycle_system(corner_locus(polynomial(concave_lift(random.Random(3), 3))))]


def test_abel_hosts_hold_every_kind_of_point():
    kinds = set()
    for system in ABEL_HOSTS:
        kinds |= set(_points_by_kind(system))
    assert kinds == {"center", "vertex", "cycle", "tentacle", "ray"}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ABEL_HOSTS), st.data())
def test_abel_coordinate_matches_reference_at_every_kind_of_point(system, data):
    # rational points on a denominator coprime to the host's scale: k/q of
    # an edge, k/q steps along a ray, or a vertex
    c = system.curve
    kinds = _points_by_kind(system)
    q = data.draw(st.sampled_from([q for q in (7, 11, 13) if gcd(q, c._scale) == 1]))
    mapping: dict = {}
    for _ in range(data.draw(st.integers(1, 5))):
        kind = data.draw(st.sampled_from(sorted(kinds)))
        at = data.draw(st.sampled_from(kinds[kind]))
        if kind in ("center", "vertex"):
            p = c.vertices[at]
        else:
            k = data.draw(st.integers(1, 3 * q if kind == "ray" else q - 1))
            p = _point_at(at, Fraction(k, q))
        assert project_point(system, p) == reference_project_point(system, p)
        mapping[p] = mapping.get(p, 0) + data.draw(st.integers(-3, 3).filter(bool))
    d = Divisor.of(mapping)
    assert abel_coordinate(system, d) == reference_abel_coordinate(system, d)


def _entry_places(system, mobile) -> set[str]:
    """Where the record's entries sit on their first host item: at the
    bouquet center (a vertex whose image is None), at another vertex,
    inside a cycle edge, inside a tentacle edge or inside a ray."""
    places = set()
    node_of = system.graph.node_of_vertex
    on_cycle = {e for cp in system.cycles for e in cp.edge_indices}
    for _, _, at in _entries(system.curve, mobile):
        it, end = at.its1[0]
        if end is not None:
            v = it.tail if end == 0 else it.head
            places.add("center" if node_of[v] == system.bouquet.center_node else "vertex")
        elif not it.bounded:
            places.add("ray")
        else:
            places.add("cycle" if it.index in on_cycle else "tentacle")
    return places


SHIFTS = [
    pt(0, 0), pt("1/4", 0), pt("1/2", "1/2"), pt(-1, "1/4"), pt("3/4", "-1/2"),
    pt(1, 1), pt("-1/2", "-1/4"), pt(2, -1), pt("1/4", "3/4"), pt(0, 2),
]


def test_sigma_reads_entries_at_every_kind_of_host_point():
    places = set()
    for system in HOSTS:
        for mobile in MOBILES:
            for shift in SHIFTS:
                moved = translate(mobile, shift)
                coord = sigma_on_the_record(system, moved)
                places |= _entry_places(system, moved)
                assert coord == reference_sigma(system, moved)
    assert places == {"center", "vertex", "cycle", "tentacle", "ray"}


@pytest.mark.parametrize("third", [Fraction(1, 3), Fraction(2, 3)])
def test_sigma_against_a_slid_copy_of_the_host(third):
    # the host slid along each of its edges by a third: the copy shares part
    # of that edge, so the record holds the ends of a shared segment
    hosts = [s.curve for s in HOSTS[:5]]
    hosts.append(corner_locus(polynomial(concave_lift(random.Random(3), 3))))
    for host in hosts:
        system = cycle_system(host)
        for e in host.edges:
            slid = translate(host, (host.vertices[e.b] - host.vertices[e.a]) * third)
            assert has_shared_segment(host, slid)
            assert sigma_on_the_record(system, slid) == reference_sigma(system, slid)
            # an end of the copy's edge inside the host's edge
            assert any(
                at.its1[0][1] is None and any(end is not None for _, end in at.its2)
                for _, _, at in _entries(host, slid)
            )


@given(
    st.sampled_from([unit_triangle_cycle, triangle_cycle_host, figure_eight]),
    rationals,
    st.integers(min_value=-3, max_value=3),
)
def test_point_at_lies_on_its_cycle(make, t, turns):
    c = make()
    for cp in cycle_system(c).cycles:
        s = t + turns * cp.total_length
        p = cp.point_at(c, s)
        assert items_at(c, p)
        assert reference_param_of(cp, c, p) == s % cp.total_length


def test_project_on_matches_param_of_along_a_walk():
    # every point of every sigma divisor of a 200-step seeded walk, each
    # placed from the first host item through it, as sigma places it
    rng = random.Random(31)
    host = corner_locus(polynomial(concave_lift(rng, 3)))
    system = cycle_system(host)
    on_path = {e: (cp, i) for cp in system.cycles for i, e in enumerate(cp.edge_indices)}
    p = params_from_curve(corner_locus(polynomial(concave_lift(rng, 3))))
    runs = {"forward": 0, "reversed": 0, "elsewhere": 0}
    for _ in range(200):
        p = perturb(p, rng)
        d = stable_intersection(host, curve_from_params(p))
        assert abel_coordinate(system, d) == reference_abel_coordinate(system, d)
        for q, _ in d.entries:
            it, _ = items_at(host, q)[0]
            assert project_point(system, q) == reference_project_point(system, q)
            on = on_path.get(it.index) if it.bounded else None
            if on is None or q in item_ends(it):
                runs["elsewhere"] += 1
            else:
                cp, i = on
                runs["forward" if it.tail == cp.vertex_path[i] else "reversed"] += 1
    assert min(runs.values()) > 0, runs


def _points_along(c, q):
    """Points k/q along each edge, k/q steps along each ray from its tail,
    and each shifted off the curve by (1/7, 1/11)."""
    on = []
    for it in items(c):
        for k in range(q + 1 if it.bounded else 2 * q + 1):
            on.append(_point_at(it, Fraction(k, q)))
    return on, [p + pt(Fraction(1, 7), Fraction(1, 11)) for p in on]


@pytest.mark.parametrize("make", [
    triangle_cycle_host, figure_eight, two_triangles_bridged, tail_cycle_curve,
    lambda: corner_locus(polynomial(concave_lift(random.Random(19), 3))),
])
def test_items_at_on_the_curves_grid_matches_the_raising_reference(monkeypatch, make):
    host = make()
    system = cycle_system(host)
    # at a vertex, each item through it, at its tail or at an edge's head
    for v, p in enumerate(host.vertices):
        want = [(it, 0 if it.tail == v else 1) for it in items(host) if v in (it.tail, it.head)]
        assert items_at(host, p) == want == reference_items_at(host, p)
    for q in (7, 11, 13):
        on, off = _points_along(host, q)
        for p in on + off:
            assert items_at(host, p) == reference_items_at(host, p)
        assert all(items_at(host, p) for p in on)
        d = Divisor.of({p: k % 5 - 2 for k, p in enumerate(on)}, host)
        got = [project_point(system, p) for p in on], abel_coordinate(system, d)
        monkeypatch.setattr(jacobian_mod, "items_at", reference_items_at)
        assert ([project_point(system, p) for p in on], abel_coordinate(system, d)) == got
        monkeypatch.undo()
