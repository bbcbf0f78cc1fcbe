"""The CLI's boundaries: numbers past the int-string limit on output, deeply
nested JSON on input, the one number grammar of polynomials and files, and
a property test that drives `main` in-process over mutated curve files,
divisor files and polynomial texts."""

import contextlib
import copy
import io
import json
import re
import signal
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fixtures_lib import (
    curve_to_dict,
    figure_eight,
    reference_curve_to_json,
    theta_curve,
    triangle_cycle_host,
    tropical_line,
    unit_triangle_cycle,
    weight_two_edge_curve,
    wedge_l,
)
from tropcurve import jsonio
from tropcurve.cli import main
from tropcurve.curve import TropicalCurve, curve, translate
from tropcurve.geom import Point, decimal_digits, pt
from tropcurve.polyfront import PolyParseError, parse as parse_poly

needs_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="the interpreter has no int-string limit",
)


@contextlib.contextmanager
def int_digit_limit(n):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(n)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def run(argv):
    """main(argv) with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_curve(path: Path, c) -> str:
    path.write_text(jsonio.curve_to_json(c))
    return str(path)


# ---------------------------------------------------------------------------
# Output boundary
# ---------------------------------------------------------------------------


def test_digit_count_without_str():
    for n in [0, 1, 9, 10, 99, 100, 2 ** 64, 10 ** 300 - 1, 10 ** 300, 7 ** 1000]:
        assert decimal_digits(n) == decimal_digits(-n) == len(str(n))
    assert decimal_digits(Fraction(-3, 10 ** 40)) == 41


@needs_limit
def test_fraction_to_str_refuses_past_the_limit():
    with int_digit_limit(640):
        assert jsonio.fraction_to_str(Fraction(10 ** 639, 3)) == f"{10 ** 639}/3"
        with pytest.raises(jsonio.OutputLimitError) as err:
            jsonio.fraction_to_str(Fraction(1, 10 ** 700))
    assert str(err.value) == "number of 701 digits exceeds the 640-digit output limit"


@needs_limit
def test_walk_past_the_limit_is_refused_at_its_step(tmp_path):
    # the mobile triangle sits 1/7^755 (639 digits) off an integer point;
    # the walk's steps of 2^-k times the projector's 1/L put a denominator
    # past 640 digits after a few steps, once k is large enough
    host = write_curve(tmp_path / "host.json", triangle_cycle_host())
    mobile = translate(unit_triangle_cycle(), pt(Fraction(1, 7 ** 755) - 3, -8))
    mob = write_curve(tmp_path / "mob.json", mobile)
    with int_digit_limit(640):
        code, out, err = run(["walk", host, mob, "--steps", "40", "--seed", "3"])
    assert code == 1
    lines = out.splitlines()
    assert 0 < len(lines) < 40
    assert err == (
        f"refused: walk step {len(lines)}: number of 641 digits exceeds "
        "the 640-digit output limit\n"
    )


@needs_limit
def test_curve_writer_reads_the_grid_with_the_bytes_and_refusal_of_the_points():
    # curve_to_json writes each coordinate off the grid, reduced there: the
    # same bytes as the Points' strings, and past the limit the digit count
    # of the first coordinate past it, as fraction_to_str gives on the Point
    def by_points(c):
        for v in c.vertices:
            jsonio.fraction_to_str(v.x)
            jsonio.fraction_to_str(v.y)
        return reference_curve_to_json(c)

    def outcome(write, c):
        try:
            return write(c)
        except jsonio.OutputLimitError as err:
            return f"refused: {err}"

    a, b, c, d = Fraction(10 ** 639, 3), Fraction(1, 10 ** 700), Fraction(-(10 ** 650), 7), Fraction(2, 3)
    seen = set()
    with int_digit_limit(640):
        for x, y in [(0, a), (b, a), (d, c), (c, b), (d, -a), (a, d)]:
            points = TropicalCurve((pt(1, 2), Point(Fraction(x), Fraction(y)), pt(d, 5)), (), ())
            want = outcome(by_points, points)
            seen.add(want.startswith("refused: number of "))
            xs, ys = zip(*points._grid)
            for f in (1, 6):
                on_grid = TropicalCurve._on_grid(
                    points._scale * f, [v * f for v in xs], [v * f for v in ys], (), ()
                )
                assert outcome(jsonio.curve_to_json, on_grid) == want
            assert outcome(jsonio.curve_to_json, points) == want
    assert seen == {True, False}  # some written, some refused


@needs_limit
@pytest.mark.parametrize("flag", [[], ["--json"]])
def test_intersect_point_past_the_limit_is_refused(tmp_path, flag):
    # each file's coordinates are under 640 digits; a meeting point of the
    # two lines has both denominators
    c1 = write_curve(tmp_path / "a.json", tropical_line((0, Fraction(1, 11 ** 600))))
    c2 = write_curve(tmp_path / "b.json", tropical_line((5, 1 + Fraction(1, 7 ** 740))))
    with int_digit_limit(640):
        code, out, err = run(["intersect", c1, c2, *flag])
    assert code == 1
    assert out == ""
    assert err.startswith("refused: number of ")
    assert err.endswith(" digits exceeds the 640-digit output limit\n")


@needs_limit
def test_crossing_past_the_limit_is_named_in_messages(tmp_path):
    # two tropical lines in one file cross at a point whose x has both
    # vertex denominators: validate reports it, newton refuses it
    a, b = Fraction(1, 7 ** 700), 1 + Fraction(1, 11 ** 560)
    c = curve(
        [(0, a), (5, b)],
        rays=[(v, d) for v in (0, 1) for d in [(-1, 0), (0, -1), (1, 1)]],
    )
    f = write_curve(tmp_path / "cross.json", c)
    with int_digit_limit(640):
        code, out, err = run(["validate", f])
        assert (code, err) == (1, "")
        assert out.startswith("balanced: true\nembedding violations:\n  ray 2 and ray 3 meet at (<1175 digits>, ")
        code, out, err = run(["newton", f])
        assert (code, out) == (1, "")
        assert err.startswith("refused: curve crosses itself: ray 2 and ray 3 meet at (<1175 digits>, ")


@needs_limit
@pytest.mark.parametrize("argv", [
    ["intersect"], ["intersect", "--json"], ["bezout"], ["bezout", "--json"],
])
def test_product_of_two_large_weights_is_refused(tmp_path, argv):
    # each weight has 4001 digits, under the default limit; the multiplicity
    # and the Bezout degree are their product, with 8001
    w = 10 ** 4000
    heavy = curve([(0, 0)], rays=[(0, (-1, 0), w), (0, (0, -1), w), (0, (1, 1), w)])
    a = write_curve(tmp_path / "a.json", heavy)
    b = write_curve(tmp_path / "b.json", translate(heavy, pt(1, 2)))
    with int_digit_limit(4300):
        code, out, err = run([*argv, a, b])
    assert (code, out) == (1, "")
    assert err == "refused: number of 8001 digits exceeds the 4300-digit output limit\n"


@needs_limit
def test_curve_weight_past_the_limit_is_refused(tmp_path):
    # each exponent has 4300 digits, at the limit; the ray's weight is their
    # sum, with 4301, and no -o file is written
    a = "9" * 4300
    out_file = tmp_path / "big.json"
    with int_digit_limit(4300):
        code, out, err = run(["from-poly", f"0 + x^{a}*x^{a}", "-o", str(out_file)])
    assert (code, out) == (1, "")
    assert err == "refused: number of 4301 digits exceeds the 4300-digit output limit\n"
    assert not out_file.exists()


@contextlib.contextmanager
def time_bound(seconds):
    """Fail the block with TimeoutError once it runs past `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
@pytest.mark.parametrize("text", [
    "x^N + y + 0", "x^N + 2*x + 2*y + (-1)*x*y + 0", "0 + x^N + y^3 + x^N*y^2 + 3*x^5",
])
def test_from_poly_with_a_30_digit_exponent_returns_at_once(text):
    # the support's bottom side holds 10^30 lattice points: the subdivision
    # must cost as the number of terms, not as the size of the exponents
    n = int("9" * 30)
    with time_bound(10):
        code, out, err = run(["from-poly", "--json", "--", text.replace("N", str(n))])
    assert (code, err) == (0, "")
    rays = json.loads(out)["rays"]
    # balanced: the rays pointing down carry the bottom side's width
    assert sum(r["w"] for r in rays if r["dir"] == [0, -1]) == n


# ---------------------------------------------------------------------------
# Deep JSON nesting
# ---------------------------------------------------------------------------


def test_deeply_nested_curve_file_exit_2(tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000)
    assert run(["validate", str(bad)]) == (2, "", "error: curve: nesting too deep\n")


def test_deeply_nested_divisor_file_exit_2(tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000)
    line = write_curve(tmp_path / "line.json", tropical_line())
    assert run(["jacobi", line, str(bad)]) == (2, "", "error: divisor: nesting too deep\n")


# ---------------------------------------------------------------------------
# One number grammar for polynomials and files
# ---------------------------------------------------------------------------

_NUMBERISH = "0123456789-/+_.e \t\u0663\u00b2\uff13"
_RUNS = st.one_of(
    st.text("0123456789", min_size=1, max_size=3), st.integers(635, 645).map("7".__mul__)
)


@st.composite
def numberish(draw):
    """A rational of the files' grammar, its digit runs short or around a
    640-digit limit, with up to two characters of _NUMBERISH put in; or
    any short text of _NUMBERISH.  No whitespace at either end."""
    if draw(st.booleans()):
        s = draw(st.text(_NUMBERISH, max_size=8))
    else:
        s = draw(st.sampled_from(["", "-"])) + draw(_RUNS)
        if draw(st.booleans()):
            s += "/" + draw(_RUNS)
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.integers(0, len(s)))
            s = s[:k] + draw(st.sampled_from(_NUMBERISH)) + s[k:]
    return s.strip(" \t")


@needs_limit
@settings(max_examples=300, deadline=None)
@given(numberish())
def test_polynomials_and_files_read_one_number_grammar(s):
    file_value = poly_value = file_err = poly_err = None
    with int_digit_limit(640):
        try:
            file_value = jsonio.fraction_from_str(s, "f")
        except jsonio.SchemaError as err:
            file_err = str(err)
        try:
            poly_value = parse_poly(f"({s})*x + y").coefficients()[1, 0]
        except PolyParseError as err:
            poly_err = str(err)
    # both accept s with one value, or both refuse it
    assert file_value == poly_value
    assert (file_err is None) == (poly_err is None)
    longest = max(map(len, re.findall("[0-9]+", s)), default=0)
    for err in (file_err, poly_err):
        if err and "-digit limit" in err:
            assert longest > 640
    if longest > 640 and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", s):
        for err in (file_err, poly_err):
            assert f"number of {longest} digits exceeds the 640-digit limit" in err


# ---------------------------------------------------------------------------
# Property test over the whole CLI
# ---------------------------------------------------------------------------

_BASES = [
    curve_to_dict(c)
    for c in (
        tropical_line(), triangle_cycle_host(), wedge_l((1, 0)), figure_eight(),
        theta_curve(), weight_two_edge_curve(),
    )
]
_BIG = "1" * 5000

# Values that break a field's type, range or size; the 4000-digit ones are
# under the default int-string limit, and products of two of them are past it.
# Each draw is a copy, so a later mutation of a drawn list changes no other draw.
_ODD = st.sampled_from([
    -1, 0, 2, 7, 10 ** 30, 10 ** 4000, 1.5, True, None, "1", "x", "1/0", "-3/4",
    _BIG, f"1/{_BIG}", "7" * 600, "1/" + "3" * 4000, [], [0], [0, 0], [1, 2, 3],
    {}, {"v": 0},
]).map(copy.deepcopy)


@st.composite
def curve_texts(draw):
    """A curve file: a fixture, with up to three fields replaced, items
    dropped or repeated, or the text cut short."""
    d = copy.deepcopy(draw(st.sampled_from(_BASES)))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(["vertices", "edges", "rays"]))
        entries = d[key]
        op = draw(st.sampled_from(["set", "drop", "repeat", "whole"]))
        if op == "whole" or not entries:
            d[key] = draw(_ODD)
            break
        k = draw(st.integers(0, len(entries) - 1))
        if op == "drop":
            del entries[k]
        elif op == "repeat":
            entries.append(copy.deepcopy(entries[k]))
        elif key == "vertices":
            entries[k][draw(st.integers(0, 1))] = draw(_ODD)
        else:
            field = draw(st.sampled_from(["v", "w", "dir"] if key == "rays" else ["v", "w"]))
            value = entries[k].get(field)
            if isinstance(value, list) and value and draw(st.booleans()):
                value[draw(st.integers(0, len(value) - 1))] = draw(_ODD)
            else:
                entries[k][field] = draw(_ODD)
    text = json.dumps(d)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def divisor_texts(draw):
    points = [["0", "0"], ["-1", "0"], ["0", "-5"], ["3", "3"], ["5/2", "-1"], ["9", "9"]]
    entries = []
    for _ in range(draw(st.integers(0, 3))):
        entry = {"point": list(draw(st.sampled_from(points))), "multiplicity": 1}
        field = draw(st.sampled_from([None, "point", "multiplicity", "x"]))
        if field == "x":
            entry["point"][draw(st.integers(0, 1))] = draw(_ODD)
        elif field:
            entry[field] = draw(_ODD)
        entries.append(entry)
    data = draw(st.one_of(st.just(entries), _ODD))
    return json.dumps(data)


_POLY_TOKENS = st.sampled_from([
    "0", "1", "-2", "3/4", "x", "y", "^", "2", "*", "+", "(", ")", " ", "-",
    "/", "(-1)", "x^2", "y^3", "*x*y", _BIG, "7" * 600, "x^" + "9" * 30, ".", "z",
])

_POLYS = st.one_of(
    st.lists(_POLY_TOKENS, max_size=12).map("".join),
    st.sampled_from(["0 + x + y", "0 + x + y + (-1)*x*y", "x + 2*y^2 + (-3)*x*y + 1"]),
)


@st.composite
def invocations(draw):
    """(argv, {file name: text}) for one run of main."""
    files = {}

    def curve_file(name):
        files[name] = draw(curve_texts())
        return name

    def divisor_file(name):
        files[name] = draw(divisor_texts())
        return name

    command = draw(st.sampled_from([
        "validate", "newton", "intersect", "bezout", "bunch", "jacobi",
        "equiv", "sigma", "walk", "from-poly", "render",
    ]))
    if command in ("validate", "newton", "bunch"):
        args = [curve_file("c.json")]
    elif command in ("intersect", "sigma", "walk"):
        args = [curve_file("c.json"), curve_file("m.json")]
        if command == "walk":
            args += ["--steps", str(draw(st.integers(0, 2))), "--seed", "1"]
    elif command == "bezout":
        if draw(st.booleans()):
            args = ["--deg", str(draw(st.integers(-2, 30))), str(draw(st.integers(-2, 30)))]
        else:
            args = [curve_file("c.json"), curve_file("m.json")]
    elif command == "jacobi":
        args = [curve_file("c.json")] + ([divisor_file("d.json")] if draw(st.booleans()) else [])
    elif command == "equiv":
        args = [curve_file("c.json"), divisor_file("d.json"), divisor_file("e.json")]
    elif command == "from-poly":
        args = ["--convention", draw(st.sampled_from(["max", "min"])), "--", draw(_POLYS)]
    else:
        args = [curve_file("c.json")] + (["--newton"] if draw(st.booleans()) else [])
        if draw(st.booleans()):
            args += ["--divisor", divisor_file("d.json")]
        args += ["-o", "out.svg"]
    if command in ("newton", "intersect", "bunch") and draw(st.booleans()):
        args = ["--svg", "out.svg", *args]
    flags = ["--json"] if draw(st.booleans()) else []
    return [command, *flags, *args], files


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow],
)
@given(invocations())
def test_main_never_lets_an_exception_escape(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text)
        argv = [str(Path(tmp) / a) if a in files or a == "out.svg" else a for a in argv]
        code, _, err = run(argv)
    assert code in (0, 1, 2)
