import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures_lib import (
    anti_line,
    concave_lift,
    coordinate_cross,
    figure_eight,
    reference_curve_to_json,
    sparse_lift,
    tail_cycle_curve,
    theta_curve,
    tied_lift,
    triangle_cycle_host,
    tropical_line,
    two_triangles_bridged,
    unit_triangle_cycle,
    weight_two_edge_curve,
)
from tropcurve import jsonio
from tropcurve.curve import Edge, Ray, TropicalCurve, curve, translate
from tropcurve.geom import IntVector, Point, digit_limit, pt
from tropcurve.intersect import Divisor
from tropcurve.polyfront import corner_locus, polynomial


def test_rational_strings():
    assert jsonio.fraction_to_str(Fraction(5, 1)) == "5"
    assert jsonio.fraction_to_str(Fraction(-7, 3)) == "-7/3"
    assert jsonio.fraction_from_str("5/2", "f") == Fraction(5, 2)
    assert jsonio.fraction_from_str(3, "f") == 3
    with pytest.raises(jsonio.SchemaError):
        jsonio.fraction_from_str("nope", "f")
    with pytest.raises(jsonio.SchemaError):
        jsonio.fraction_from_str("1/0", "f")


@pytest.mark.parametrize("text", ["0", "-0", "007", "-12/34", "12/34", "5/1"])
def test_the_rational_grammar_reads_as_fraction(text):
    assert jsonio.fraction_from_str(text, "f") == Fraction(text)


# Forms that Fraction() reads but the documented -?[0-9]+(/[0-9]+)? does not.
@pytest.mark.parametrize("text", [
    " 3", "3 ", "3\n", "+3", "3_0", "1/2_0", "\u0663", "\uff13", "1\u00b2",
    "1.5", ".5", "5.", "1e3", "-1/-2", "1 / 2", "", "-", "/2", "2/",
])
def test_rationals_off_the_grammar_are_invalid(text):
    with pytest.raises(jsonio.SchemaError, match=f"^f: invalid rational {re.escape(repr(text))}$"):
        jsonio.fraction_from_str(text, "f")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789-/+_.e \t\u0663\u00b2\uff13", max_size=8))
def test_a_rational_string_reads_by_the_grammar_or_is_invalid(text):
    # -?[0-9]+(/[0-9]+)? by hand
    body = text[1:] if text.startswith("-") else text
    num, slash, den = body.partition("/")

    def digits(t):
        return t != "" and all(ch in "0123456789" for ch in t)

    if digits(num) and (not slash or digits(den)) and int(den or 1):
        want = Fraction(int(num), int(den or 1)) * (-1 if body != text else 1)
        assert jsonio.fraction_from_str(text, "f") == want
    else:
        with pytest.raises(jsonio.SchemaError, match="^f: invalid rational "):
            jsonio.fraction_from_str(text, "f")


def test_curve_round_trip_byte_stable():
    for c in (tropical_line(), triangle_cycle_host(), weight_two_edge_curve()):
        text = jsonio.curve_to_json(c)
        again = jsonio.curve_from_json(text)
        assert again == c
        assert jsonio.curve_to_json(again) == text


def test_curve_schema_errors_name_fields():
    with pytest.raises(jsonio.SchemaError) as err:
        jsonio.curve_from_dict({"vertices": [], "edges": []})
    assert "rays" in str(err.value)
    with pytest.raises(jsonio.SchemaError) as err:
        jsonio.curve_from_dict(
            {"vertices": [["0", "0", "0"]], "edges": [], "rays": []}
        )
    assert "vertices[0]" in str(err.value)
    with pytest.raises(jsonio.SchemaError) as err:
        jsonio.curve_from_dict(
            {"vertices": [["0", "0"]], "edges": [],
             "rays": [{"v": 0, "dir": [1, "x"]}]}
        )
    assert "rays[0].dir[1]" in str(err.value)


def test_divisor_round_trip_and_merge():
    d = Divisor.of({pt("1/2", 3): 2, pt(0, 0): -1})
    data = jsonio.divisor_to_list(d)
    back = jsonio.divisor_from_list(data)
    assert back.entries == d.entries
    merged = jsonio.divisor_from_list(
        [
            {"point": ["1", "1"], "multiplicity": 1},
            {"point": ["1", "1"], "multiplicity": 2},
        ]
    )
    assert merged.entries == ((pt(1, 1), 3),)


def test_divisor_bad_point():
    with pytest.raises(jsonio.SchemaError) as err:
        jsonio.divisor_from_list([{"point": ["1"]}])
    assert "divisor[0].point" in str(err.value)


def test_booleans_are_not_rationals():
    with pytest.raises(jsonio.SchemaError, match="f: expected a rational string, got True"):
        jsonio.fraction_from_str(True, "f")
    with pytest.raises(jsonio.SchemaError, match=r"vertices\[0\]\[1\]: .* got False"):
        jsonio.curve_from_dict({"vertices": [["1", False]], "edges": [], "rays": []})
    with pytest.raises(jsonio.SchemaError, match=r"divisor\[0\]\.point\[0\]: .* got True"):
        jsonio.divisor_from_list([{"point": [True, 2], "multiplicity": 1}])


# ---------------------------------------------------------------------------
# The direct curve writer against the stdlib encoder.
# ---------------------------------------------------------------------------


def assert_writer_matches(c):
    text = jsonio.curve_to_json(c)
    assert text == reference_curve_to_json(c)
    assert jsonio.curve_from_json(text) == c


_FIXTURES = [
    tropical_line(),
    anti_line((2, -5)),
    coordinate_cross(("-1/3", 4)),
    triangle_cycle_host(),
    unit_triangle_cycle(),
    weight_two_edge_curve(),
    theta_curve(),
    figure_eight(),
    two_triangles_bridged(),
    tail_cycle_curve(),
]


def test_curve_writer_matches_stdlib_on_fixtures():
    for c in _FIXTURES:
        assert_writer_matches(c)
        # negative rationals, with and without a denominator
        assert_writer_matches(translate(c, pt("-7/3", -11)))


@pytest.mark.parametrize("lift", [concave_lift, sparse_lift, tied_lift])
def test_curve_writer_matches_stdlib_on_seeded_loci(lift):
    rng = random.Random(f"writer:{lift.__name__}")
    for d in range(1, 8):
        for convention in ("max", "min"):
            assert_writer_matches(corner_locus(polynomial(lift(rng, d), convention)))


def test_curve_writer_empty_lists():
    empty = TropicalCurve((), (), ())
    assert jsonio.curve_to_json(empty) == (
        '{\n  "vertices": [],\n  "edges": [],\n  "rays": []\n}\n'
    )
    assert_writer_matches(empty)
    assert_writer_matches(TropicalCurve((pt("-1/2", 3),), (), ()))  # no items
    assert_writer_matches(curve([(0, 0), (1, 1)], edges=[(0, 1, 3)]))  # no rays
    assert_writer_matches(tropical_line(("-5/8", "-13")))  # no edges


_rationals = st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**12)
_ints = st.integers(-(10**20), 10**20)


@st.composite
def schema_curves(draw):
    """Curves with any values the loader's schema takes: the writer does
    not check structure, indices or weights."""
    n = draw(st.integers(0, 4))
    vertices = tuple(Point(draw(_rationals), draw(_rationals)) for _ in range(n))
    edges = draw(st.lists(st.builds(Edge, _ints, _ints, _ints), max_size=4))
    rays = draw(st.lists(
        st.builds(Ray, _ints, st.builds(IntVector, _ints, _ints), _ints), max_size=4
    ))
    return TropicalCurve(vertices, tuple(edges), tuple(rays))


@settings(max_examples=150, deadline=None)
@given(schema_curves())
def test_curve_writer_matches_stdlib_on_schema_curves(c):
    assert_writer_matches(c)


# ---------------------------------------------------------------------------
# Numbers past the interpreter's int-string limit.
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    not 0 < digit_limit() < 5000, reason="the interpreter has no int-string limit"
)
def test_oversized_rational_names_field_and_digits():
    limit = digit_limit()
    for text in ("1" * 5000, "-2/" + "3" * 5000, "7" * (limit + 1) + "/2"):
        digits = max(len(run) for run in text.lstrip("-").split("/"))
        with pytest.raises(
            jsonio.SchemaError,
            match=f"^f: number of {digits} digits exceeds the {limit}-digit limit$",
        ):
            jsonio.fraction_from_str(text, "f")
    # under the limit in each part, a long rational still reads
    big = "1" * (limit - 1) + "/" + "3" * (limit - 1)
    assert jsonio.fraction_from_str(big, "f") == Fraction(big)
    # a malformed string keeps its message
    with pytest.raises(jsonio.SchemaError, match=r"^f: invalid rational 'x1'$"):
        jsonio.fraction_from_str("x1", "f")
