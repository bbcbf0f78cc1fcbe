import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropcurve.geom import (
    GeometryError,
    IntVector,
    Point,
    cross,
    digit_limit,
    dot,
    moment,
    primitive_decompose,
    primitive_direction,
    pseudo_angle,
    pt,
    vec,
)

ints = st.integers(min_value=-50, max_value=50)


def test_cross_examples():
    assert cross(vec(1, 0), vec(0, 1)) == 1
    assert cross(vec(2, 4), vec(1, 2)) == 0
    assert cross(vec(1, 2), vec(3, 4)) == -2


def test_dot_examples():
    assert dot(vec(1, 0), vec(0, 1)) == 0
    assert dot(vec(1, 1), vec(1, 1)) == 2
    assert dot(vec(2, -3), vec(4, 1)) == 5


@given(ints, ints, ints, ints)
def test_cross_antisymmetric(ux, uy, vx, vy):
    u, v = vec(ux, uy), vec(vx, vy)
    assert cross(u, v) == -cross(v, u)


def test_primitive_decompose_examples():
    assert primitive_decompose(vec(0, 3)) == (vec(0, 1), 3)
    assert primitive_decompose(vec(1, 1)) == (vec(1, 1), 1)
    assert primitive_decompose(vec(-6, 4)) == (vec(-3, 2), 2)
    with pytest.raises(GeometryError):
        primitive_decompose(vec(0, 0))


@given(ints, ints, st.integers(min_value=1, max_value=20))
def test_primitive_decompose_roundtrip(x, y, m):
    v = vec(x, y)
    if not v:
        return
    u, _ = primitive_decompose(v)
    assert primitive_decompose(u * m) == (u, m)


def test_primitive_direction_rational():
    u, m = primitive_direction(pt("3/2", "-3/4"))
    assert u == vec(2, -1)
    assert m == Fraction(3, 4)


def test_moment_examples():
    assert moment(vec(1, 0), pt(4, 5), pt(4, 5)) == 0
    assert moment(vec(0, 1), pt(1, 0), pt(0, 0)) == 1
    assert moment(vec(1, -1), pt(2, 3), pt(1, 1)) == -3


@given(ints, ints, ints, ints, ints, ints,
       st.fractions(min_value=-5, max_value=5, max_denominator=7))
def test_moment_invariant_along_direction(vx, vy, px, py, bx, by, t):
    v = vec(vx, vy)
    if not v:
        return
    p, base = pt(px, py), pt(bx, by)
    shifted = p + v.to_point() * t
    assert moment(v, shifted, base) == moment(v, p, base)


def _brute_angle_key(v: IntVector):
    # independent comparator: eight sectors by sign pattern, then cross
    x, y = v.x, v.y
    if x > 0 and y == 0:
        sector = 0
    elif x > 0 and y > 0:
        sector = 1
    elif x == 0 and y > 0:
        sector = 2
    elif x < 0 and y > 0:
        sector = 3
    elif x < 0 and y == 0:
        sector = 4
    elif x < 0 and y < 0:
        sector = 5
    elif x == 0 and y < 0:
        sector = 6
    else:
        sector = 7
    return sector


def _brute_less(u, v):
    su, sv = _brute_angle_key(u), _brute_angle_key(v)
    if su != sv:
        return su < sv
    return cross(u, v) > 0


@given(st.lists(st.tuples(ints, ints), min_size=2, max_size=8))
def test_pseudo_angle_matches_brute_force(pairs):
    vecs = [vec(x, y) for x, y in pairs if (x, y) != (0, 0)]
    # keep pairwise non-parallel vectors only
    kept = []
    for v in vecs:
        if all(cross(v, w) != 0 for w in kept):
            kept.append(v)
    a = sorted(kept, key=pseudo_angle)
    b = list(kept)
    # insertion sort with the brute comparator
    for i in range(1, len(b)):
        j = i
        while j > 0 and _brute_less(b[j], b[j - 1]):
            b[j], b[j - 1] = b[j - 1], b[j]
            j -= 1
    assert a == b


def test_pseudo_angle_equality_iff_positive_multiple():
    assert pseudo_angle(vec(2, 4)) == pseudo_angle(vec(1, 2))
    assert pseudo_angle(vec(-1, -2)) != pseudo_angle(vec(1, 2))
    assert pseudo_angle(vec(1, 0)) < pseudo_angle(vec(0, 1))
    assert pseudo_angle(vec(0, 1)) < pseudo_angle(vec(-1, 0))
    assert pseudo_angle(vec(-1, 0)) < pseudo_angle(vec(0, -1))
    assert pseudo_angle(vec(0, -1)) < pseudo_angle(vec(1, -1))


def test_pseudo_angle_hashes_as_it_compares():
    keys = [pseudo_angle(vec(k, 2 * k)) for k in (1, 2, 7)]
    assert keys[0] == keys[1] == keys[2]
    assert len({hash(k) for k in keys}) == 1 and len(set(keys)) == 1
    assert pseudo_angle(vec(-3, 1)) != pseudo_angle(vec(3, -1))
    assert len({pseudo_angle(vec(-3, 1)), pseudo_angle(vec(3, -1))}) == 2
    for other in ((0, vec(1, 2)), vec(1, 2), None):
        assert (pseudo_angle(vec(1, 2)) == other) is False


BIG = Fraction(3 ** 120 + 1, 5 ** 90 + 2)


@given(ints, ints, st.integers(min_value=1, max_value=30))
def test_equal_points_hash_and_look_up_alike(x, y, q):
    # the same point from ints, from Fractions built unreduced, from strings
    same = [
        Point(Fraction(x * q, q), Fraction(y * q, q)),
        pt(x, y),
        Point(x, y),
        pt(f"{x * q}/{q}", f"{y * q}/{q}"),
    ]
    assert len({hash(p) for p in same}) == 1
    assert len(set(same)) == 1
    table = {same[0]: "here"}
    assert all(table[p] == "here" for p in same)
    r = pt(Fraction(x, q), Fraction(y, q) + BIG)
    twin = pt(f"{x * 2}/{q * 2}", str(Fraction(y, q) + BIG))
    assert r == twin and hash(r) == hash(twin) and {r: 1}[twin] == 1
    assert pt(Fraction(x, q), y) in {Point(Fraction(2 * x, 2 * q), Fraction(y))}


def test_distinct_points_are_distinct_keys():
    ps = [pt(Fraction(i, q), Fraction(j, q)) for i in range(-3, 4) for j in range(-3, 4)
          for q in (1, 2, 3)]
    assert len(set(ps)) == len({(p.x, p.y) for p in ps})
    assert pt(1, 2) not in {pt(2, 1), pt(1, -2), pt("1/2", 2)}


# pt reads a string by the one number grammar of polynomials and files,
# -?[0-9]+(/[0-9]+)?, and refuses any other string by name
_OFF_GRAMMAR = [
    ((" 1_0 ", "\u0663"), " 1_0 "),  # read (10, 3) through Fraction(str)
    ((2, "\u0663"), "\u0663"),
    (("1/0", 1), "1/0"),  # a ZeroDivisionError through Fraction(str)
    (("1.5", 2), "1.5"),
    ((1, "+3"), "+3"),
    ((1, " 3"), " 3"),
    (("1e3", 1), "1e3"),
]


@pytest.mark.parametrize("args, bad", _OFF_GRAMMAR)
def test_pt_refuses_a_string_off_the_number_grammar(args, bad):
    with pytest.raises(GeometryError, match=f"^invalid rational {re.escape(repr(bad))}$"):
        pt(*args)


def test_pt_reads_the_number_grammar_and_passes_numbers_on():
    assert pt("-3/4", "6/8") == Point(Fraction(-3, 4), Fraction(3, 4))
    assert pt("0", "-12") == Point(Fraction(0), Fraction(-12))
    assert pt(3, Fraction(-1, 2)) == Point(Fraction(3), Fraction(-1, 2))


@pytest.mark.skipif(
    not 0 < digit_limit() < 5000, reason="the interpreter has no int-string limit"
)
def test_pt_refuses_a_number_past_the_digit_limit():
    limit = digit_limit()
    with pytest.raises(GeometryError, match=f"^number of {limit + 1} digits exceeds the {limit}-digit limit$"):
        pt("1/" + "9" * (limit + 1), 0)
