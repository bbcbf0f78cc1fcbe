"""Curves and parameter points built on the integer grid, whose Fractions
wait for their first read, and the int-only items.

A curve of `TropicalCurve._on_grid` (corner_locus, curve_from_params) holds
its grid and builds `vertices` on first read; a point of
`ParamPoint._on_grid` (perturb's candidates) builds `lengths` and
`anchor_pos` on first read.  Before that read each must compare, hash,
print, copy and pickle as the object built from the same Fractions.  The
Fraction counts pin what the timed paths build: genus-many per walk step,
one per term per corner op.
"""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest

from fixtures_lib import (
    COPRIME_DENOMINATORS,
    concave_lift,
    figure_eight,
    poly_text,
    sparse_lift,
    tied_lift,
)
from tropcurve.curve import Item, TropicalCurve, items
from tropcurve.geom import IntVector, Point, pt
from tropcurve.intersect import is_transversal, stable_intersection
from tropcurve.jacobian import cycle_system, sigma
from tropcurve.jsonio import curve_to_json
from tropcurve.newton import newton_complex, newton_polygon
from tropcurve.params import ParamPoint, curve_from_params, params_from_curve, perturb
from tropcurve.polyfront import corner_locus, parse, polynomial


def _unread(c) -> bool:
    return "vertices" not in vars(c)


def _points_of(c: TropicalCurve) -> TropicalCurve:
    """The curve built from Points, read off c's grid, not its vertices."""
    L = c._scale
    vs = tuple(Point(Fraction(x, L), Fraction(y, L)) for x, y in c._grid)
    return TropicalCurve(vs, c.edges, c.rays)


def _assert_lazy_curve_behaves_as_points(make):
    """`make()` builds a fresh curve of _on_grid, its vertices unread; each
    check below starts from such a curve."""
    ref = _points_of(make())
    checks = [
        lambda c: c == ref,
        lambda c: ref == c,
        lambda c: hash(c) == hash(ref),
        lambda c: repr(c) == repr(ref),
        lambda c: c.vertices == ref.vertices and c == TropicalCurve(c.vertices, c.edges, c.rays),
        lambda c: copy.deepcopy(c) == ref,
        lambda c: copy.copy(c) == ref,
        lambda c: pickle.loads(pickle.dumps(c)) == ref,
        lambda c: dataclasses.replace(c) == ref,
        lambda c: dataclasses.replace(c, rays=c.rays) == ref,
        lambda c: curve_to_json(c) == curve_to_json(ref),
    ]
    for check in checks:
        c = make()
        assert _unread(c)
        assert check(c)
    # a copy or a pickle taken before the first read is itself unread, and
    # keeps the grid it builds its vertices from
    for out in (copy.deepcopy(make()), pickle.loads(pickle.dumps(make()))):
        assert _unread(out)
        assert (out._scale, out._grid) == (ref._scale, ref._grid)
        assert out.vertices == ref.vertices


def _texts():
    rng = random.Random("on-grid:lifts")
    for lift in (concave_lift, sparse_lift, tied_lift):
        for d in range(2, 7):
            yield poly_text(lift(rng, d))
    for coeffs in COPRIME_DENOMINATORS:
        yield poly_text(coeffs)


@pytest.mark.parametrize("convention", ["max", "min"])
def test_corner_loci_behave_as_the_curve_of_their_points(convention):
    # a support on one line takes the same route
    texts = [*_texts(), "0 + x + (-5)*x^2", "1/3 + (-1/7)*x*y + 2/5*x^2*y^2"]
    for text in texts:
        _assert_lazy_curve_behaves_as_points(lambda: corner_locus(parse(text, convention)))


def test_perturb_candidates_behave_as_the_curve_and_point_of_their_fractions():
    rng = random.Random(24)
    p = params_from_curve(corner_locus(polynomial(concave_lift(rng, 3))))
    for k in range(20):
        q = perturb(p, random.Random(k))
        assert q is not p and _unread(curve_from_params(q))
        _assert_lazy_curve_behaves_as_points(
            lambda: curve_from_params(perturb(p, random.Random(k)))
        )
        _assert_lazy_point_behaves_as_fractions(lambda: perturb(p, random.Random(k)))
        p = q


def _fractions_of(p: ParamPoint) -> ParamPoint:
    """The point built from Fractions, read off p's integers."""
    den, lengths, x, y = p._ints
    return ParamPoint(
        p.skeleton,
        tuple(Fraction(m, den) for m in lengths),
        Point(Fraction(x, den), Fraction(y, den)),
    )


def _assert_lazy_point_behaves_as_fractions(make):
    ref = _fractions_of(make())
    checks = [
        lambda p: p == ref,
        lambda p: ref == p,
        lambda p: hash(p) == hash(ref),
        lambda p: repr(p) == repr(ref),
        lambda p: (p.lengths, p.anchor_pos) == (ref.lengths, ref.anchor_pos),
        lambda p: copy.deepcopy(p) == ref,
        lambda p: pickle.loads(pickle.dumps(p)) == ref,
        lambda p: dataclasses.replace(p) == ref,
        lambda p: dataclasses.replace(p, anchor_pos=ref.anchor_pos) == ref,
        lambda p: curve_from_params(p) == curve_from_params(ref),
    ]
    for check in checks:
        p = make()
        assert "lengths" not in vars(p) and "anchor_pos" not in vars(p)
        assert check(p)


def test_on_grid_points_behave_as_the_point_of_their_fractions():
    rng = random.Random(7)
    for d in (2, 3, 4):
        p = params_from_curve(corner_locus(polynomial(concave_lift(rng, d))))
        den, lengths, x, y = p._ints
        for f in (1, 3, 28):
            _assert_lazy_point_behaves_as_fractions(lambda: ParamPoint._on_grid(
                p.skeleton, den * f, [m * f for m in lengths], x * f, y * f
            ))


def test_on_grid_refuses_other_missing_attributes():
    c = corner_locus(parse("0 + x + y + (-1)*x*y"))
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        c.nothing
    assert not hasattr(c, "__setstate__") and _unread(c)
    p = perturb(params_from_curve(c), 1)
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        p.nothing


# ---------------------------------------------------------------------------
# Fraction counts on the timed paths
# ---------------------------------------------------------------------------


@pytest.fixture
def fraction_count(monkeypatch):
    """(start, stop): start counts every Fraction built from then on, by
    wrapping Fraction.__new__; stop unwraps it and returns the count."""
    count = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    def start():
        count[0] = 0
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))

    def stop():
        monkeypatch.undo()
        return count[0]

    return start, stop


@pytest.mark.parametrize("host, genus", [("cubic", 1), ("figure_eight", 2)])
def test_a_warm_walk_step_builds_genus_many_fractions(fraction_count, host, genus):
    # one step is one benchmark walk op: perturb, curve_from_params, sigma
    # and is_transversal
    start, stop = fraction_count
    rng = random.Random(f"walk-count:{host}")
    host = corner_locus(polynomial(concave_lift(rng, 3))) if host == "cubic" else figure_eight()
    system = cycle_system(host)
    assert system.genus == genus
    p = params_from_curve(corner_locus(polynomial(concave_lift(rng, 3))))
    moved = 0
    for k in range(60):
        if k == 10:  # warm: the projector, the host's index and the cycle data
            start()
        q = perturb(p, rng)
        c = curve_from_params(q)
        sigma(system, c)
        is_transversal(host, c)
        moved += q is not p
        p = q
    assert stop() == genus * 50
    assert moved == 60


def test_a_corner_op_builds_one_fraction_per_term(fraction_count):
    start, stop = fraction_count
    rng = random.Random("corner-count")
    for convention in ("max", "min"):
        for lift in (concave_lift, sparse_lift, tied_lift):
            for d in range(3, 8):
                text = poly_text(lift(rng, d))
                start()
                f = parse(text, convention)
                c = corner_locus(f)
                curve_to_json(c)
                newton_complex(c)
                newton_polygon(c)
                assert stop() == len(f.terms) == text.count("(")
                assert _unread(c)


# ---------------------------------------------------------------------------
# Items: ints only, equal by value across scales
# ---------------------------------------------------------------------------


def test_items_hold_ints_only():
    c = corner_locus(parse("0 + x + y + (-1)*x*y"))
    for it in items(c):
        assert not hasattr(it, "__dict__")
        values = [getattr(it, name) for name in Item.__slots__]
        assert all(type(v) in (int, type(None), IntVector, tuple) for v in values)
        assert all(type(x) is int for x in it.lattice)
    assert _unread(c)


def test_items_are_equal_by_their_ends_across_scales():
    e = Item(0, 0, 1, 1, IntVector(1, 0), 2, (1, 0, 4, 0))
    same = Item(0, 0, 1, 1, IntVector(1, 0), 6, (3, 0, 12, 0))
    assert e == same and hash(e) == hash(same)
    assert e != Item(0, 0, 1, 1, IntVector(1, 0), 6, (3, 0, 9, 0))  # another head
    assert e != Item(0, 0, 1, 1, IntVector(1, 0), 6, (4, 0, 12, 0))  # another tail x
    assert e != Item(0, 0, 1, 1, IntVector(1, 0), 6, (3, 1, 12, 0))  # another tail y
    assert e != Item(0, 0, 1, 2, IntVector(1, 0), 2, (1, 0, 4, 0))  # another weight
    r = Item(0, 1, None, 1, IntVector(0, 1), 3, (1, 2, 0, 1))
    assert r == Item(0, 1, None, 1, IntVector(0, 1), 6, (2, 4, 0, 1))
    assert r != Item(0, 1, None, 1, IntVector(0, 1), 6, (2, 5, 0, 1))
    assert e != r and e != (0, 0, 1)
    # the same curve from its Points and from its grid has equal items
    c = corner_locus(parse("0 + 2*x + 2*y + 3*x*y + x^2 + y^2"))
    assert items(c) == items(_points_of(c))


def test_stable_intersection_returns_the_curves_own_vertex_points():
    line = corner_locus(parse("0 + x + y"))
    conic = corner_locus(parse("0 + x + y + (-1)*x*y"))
    for c1, c2 in ((line, conic), (conic, line), (conic, conic)):
        d = stable_intersection(c1, c2)
        at_vertex = 0
        for p, _ in d.entries:
            own = [v for v in c1.vertices + c2.vertices if v == p]
            if own:
                at_vertex += 1
                assert any(p is v for v in own)
        assert at_vertex
    assert [p for p, _ in stable_intersection(line, conic).entries] == [pt(0, 0), pt(1, 1)]
