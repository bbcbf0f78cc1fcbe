from fractions import Fraction

import pytest

from fixtures_lib import triangle_cycle_host, tropical_line, weight_two_edge_curve
from tropcurve import jsonio
from tropcurve.geom import pt
from tropcurve.intersect import Divisor


def test_rational_strings():
    assert jsonio.fraction_to_str(Fraction(5, 1)) == "5"
    assert jsonio.fraction_to_str(Fraction(-7, 3)) == "-7/3"
    assert jsonio.fraction_from_str("5/2", "f") == Fraction(5, 2)
    assert jsonio.fraction_from_str(3, "f") == 3
    with pytest.raises(jsonio.SchemaError):
        jsonio.fraction_from_str("nope", "f")
    with pytest.raises(jsonio.SchemaError):
        jsonio.fraction_from_str("1/0", "f")


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
