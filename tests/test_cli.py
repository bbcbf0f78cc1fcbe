import json
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures_lib import (
    concave_lift,
    curve_to_dict,
    divisor_to_json,
    poly_text,
    theta_curve,
    triangle_cycle_host,
    tropical_line,
    weight_two_edge_curve,
    wedge_l,
    wedge_m,
)
from tropcurve.cli import main
from tropcurve.curve import canonical_form, curve
from tropcurve.intersect import Divisor
from tropcurve.polyfront import corner_locus, polynomial
from tropcurve.geom import digit_limit, pt
from tropcurve import jsonio


@pytest.fixture
def paths(tmp_path):
    def write_curve(name, c):
        p = tmp_path / name
        p.write_text(jsonio.curve_to_json(c))
        return str(p)

    def write_divisor(name, d):
        p = tmp_path / name
        p.write_text(divisor_to_json(d))
        return str(p)

    return tmp_path, write_curve, write_divisor


def test_validate_ok(paths, capsys):
    _, wc, _ = paths
    f = wc("line.json", tropical_line())
    assert main(["validate", f]) == 0
    assert "balanced: true" in capsys.readouterr().out


def test_validate_unbalanced_exit_1(paths, capsys):
    tmp, _, _ = paths
    bad = curve([(0, 0)], rays=[(0, (1, 0)), (0, (0, 1))])
    p = tmp / "bad.json"
    p.write_text(jsonio.curve_to_json(bad))
    assert main(["validate", str(p)]) == 1
    out = capsys.readouterr().out
    assert "balanced: false" in out


def test_validate_schema_error_exit_2(paths, capsys):
    tmp, _, _ = paths
    p = tmp / "broken.json"
    p.write_text('{"vertices": [["1","2"]], "edges": [{"v": [0]}], "rays": []}')
    assert main(["validate", str(p)]) == 2
    assert "edges[0].v" in capsys.readouterr().err


def test_boolean_coordinate_exit_2(paths, capsys):
    tmp, _, _ = paths
    p = tmp / "bool.json"
    p.write_text('{"vertices": [[true, false]], "edges": [], "rays": []}')
    assert main(["validate", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: vertices[0][0]: expected a rational string, got True"


def test_bezout_empty_curve_exit_2(paths, capsys):
    tmp, _, _ = paths
    p = tmp / "empty.json"
    p.write_text('{"vertices": [], "edges": [], "rays": []}')
    assert main(["bezout", str(p), str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: a curve with no rays has no Newton polygon"


def test_missing_file_exit_2(capsys):
    assert main(["validate", "/nonexistent/file.json"]) == 2


def test_newton_json(paths, capsys):
    _, wc, _ = paths
    f = wc("line.json", tropical_line())
    assert main(["newton", f, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert sorted(map(tuple, data["polygon"])) == [(0, 0), (0, 1), (1, 0)]


def test_intersect_human(paths, capsys):
    _, wc, _ = paths
    a = wc("a.json", tropical_line())
    b = wc("b.json", wedge_l((2, 2)))
    assert main(["intersect", a, b]) == 0
    out = capsys.readouterr().out
    assert "degree: 2" in out


def test_bezout_deg(capsys):
    assert main(["bezout", "--deg", "2", "3"]) == 0
    assert capsys.readouterr().out.strip() == "6"


@pytest.mark.parametrize("degs", [["-1", "2"], ["2", "-1"], ["-2", "-3"]])
def test_bezout_negative_degree_exit_2(capsys, degs):
    assert main(["bezout", "--deg", *degs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-negative" in captured.err


def test_bezout_files(paths, capsys):
    _, wc, _ = paths
    a = wc("a.json", tropical_line())
    b = wc("b.json", tropical_line())
    assert main(["bezout", a, b, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"degree": 1}


def test_bunch_verdicts(paths, capsys):
    _, wc, _ = paths
    f = wc("host.json", triangle_cycle_host())
    assert main(["bunch", f]) == 0
    out = capsys.readouterr().out
    assert "genus: 1" in out and "bouquet: yes" in out
    t = wc("theta.json", theta_curve())
    assert main(["bunch", t, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bouquet"] is False and data["genus"] == 2


def test_jacobi_moduli(paths, capsys):
    _, wc, wd = paths
    f = wc("host.json", triangle_cycle_host())
    assert main(["jacobi", f]) == 0
    assert "3/2" in capsys.readouterr().out
    d = wd("d.json", Divisor.of({pt(3, 0): 1}))
    assert main(["jacobi", f, d, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["abel"] == {"degree": 1, "residues": ["1"]}


def test_equiv_verdict(paths, capsys):
    _, wc, wd = paths
    f = wc("host.json", triangle_cycle_host())
    d1 = wd("d1.json", Divisor.of({pt(4, 1): 1}))
    d2 = wd("d2.json", Divisor.of({pt(6, 3): 1}))
    d3 = wd("d3.json", Divisor.of({pt(1, 0): 1}))
    assert main(["equiv", f, d1, d2]) == 0
    assert "equivalent: true" in capsys.readouterr().out
    assert main(["equiv", f, d1, d3]) == 0
    assert "equivalent: false" in capsys.readouterr().out


def test_equiv_refusals_exit_1(paths, capsys):
    _, wc, wd = paths
    theta = wc("theta.json", theta_curve())
    heavy = wc("heavy.json", weight_two_edge_curve())
    d = wd("d.json", Divisor.of({pt(0, 0): 1}))
    assert main(["equiv", theta, d, d]) == 1
    assert "not a bouquet" in capsys.readouterr().err
    assert main(["equiv", heavy, d, d]) == 1
    assert "not reduced" in capsys.readouterr().err


def test_sigma_command(paths, capsys):
    _, wc, _ = paths
    host = wc("host.json", triangle_cycle_host())
    mob = wc("mob.json", wedge_l((0, 0)))
    assert main(["sigma", host, mob, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sigma"] == {"degree": 3, "residues": ["1"]}


def test_walk_trace_and_determinism(paths, capsys):
    _, wc, _ = paths
    host = wc("host.json", triangle_cycle_host())
    mob = wc("mob.json", tropical_line((-3, -8)))
    assert main(["walk", host, mob, "--steps", "5", "--seed", "11"]) == 0
    first = capsys.readouterr().out
    lines = [json.loads(l) for l in first.strip().splitlines()]
    assert len(lines) == 5
    sigmas = {tuple(l["sigma"]["residues"]) for l in lines}
    assert len(sigmas) == 1
    assert all(isinstance(l["transversal"], bool) for l in lines)
    assert main(["walk", host, mob, "--steps", "5", "--seed", "11"]) == 0
    assert capsys.readouterr().out == first


def test_walk_negative_steps_exit_2(paths, capsys):
    _, wc, _ = paths
    host = wc("host.json", triangle_cycle_host())
    mob = wc("mob.json", tropical_line((-3, -8)))
    assert main(["walk", host, mob, "--steps", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-negative" in captured.err and "-1" in captured.err
    assert main(["walk", host, mob, "--steps", "0"]) == 0
    assert capsys.readouterr().out == ""


def test_from_poly_roundtrip(paths, capsys):
    assert main(["from-poly", "0 + x + y"]) == 0
    text = capsys.readouterr().out
    c = jsonio.curve_from_json(text)
    assert canonical_form(c) == canonical_form(tropical_line())
    # byte-stable canonical serialization
    assert jsonio.curve_to_json(c) == text


def test_from_poly_min_convention(paths, capsys):
    assert main(["from-poly", "0 + x + y", "--convention", "min"]) == 0
    c = jsonio.curve_from_json(capsys.readouterr().out)
    dirs = sorted((r.direction.x, r.direction.y) for r in c.rays)
    assert dirs == [(-1, -1), (0, 1), (1, 0)]


def test_from_poly_degree_12(tmp_path):
    coeffs = concave_lift(random.Random(12), 12)
    out = tmp_path / "locus.json"
    assert main(["from-poly", poly_text(coeffs), "-o", str(out)]) == 0
    c = jsonio.curve_from_json(out.read_text())
    assert c == corner_locus(polynomial(coeffs))
    assert (len(c.vertices), len(c.edges), len(c.rays)) == (144, 198, 36)


def test_from_poly_bad_expression_exit_2(capsys):
    assert main(["from-poly", "x +"]) == 2


def test_render_svg(paths, capsys, tmp_path):
    _, wc, _ = paths
    f = wc("line.json", tropical_line())
    out = tmp_path / "fig.svg"
    assert main(["render", f, "--newton", "-o", str(out)]) == 0
    body = out.read_text()
    assert body.startswith("<svg")
    assert body.count("<line") >= 6  # 3 rays plus 3 dual edges
    # determinism
    out2 = tmp_path / "fig2.svg"
    assert main(["render", f, "--newton", "-o", str(out2)]) == 0
    assert out2.read_text() == body


def test_render_empty_scene(capsys):
    assert main(["render"]) == 0
    assert capsys.readouterr().out.startswith("<svg")


def test_newton_svg_does_not_change_analysis(paths, capsys, tmp_path):
    _, wc, _ = paths
    f = wc("host.json", triangle_cycle_host())
    assert main(["newton", f, "--json"]) == 0
    plain = capsys.readouterr().out
    svg = tmp_path / "n.svg"
    assert main(["newton", f, "--json", "--svg", str(svg)]) == 0
    assert capsys.readouterr().out == plain
    assert svg.read_text().startswith("<svg")


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["validate", "--bogus"])
    assert err.value.code == 2


# Two tropical lines in one file: balanced, but the lines cross at (1, 1).
_CROSSING_LINES = curve(
    [(0, 0), (1, 2)],
    rays=[(v, d) for v in (0, 1) for d in [(-1, 0), (0, -1), (1, 1)]],
)
# A tropical line whose northeast ray stops at (3, 3), unbalanced there; it
# still crosses the tropical line with vertex (1, -1), at (0, -1).
_DANGLING_EDGE = curve([(0, 0), (3, 3)], edges=[(0, 1)], rays=[(0, (-1, 0)), (0, (0, -1))])
_UNBALANCED = curve([(0, 0)], rays=[(0, (1, 0)), (0, (0, 1))])
_ZERO_WEIGHT_RAY = curve([(0, 0)], rays=[(0, (-1, 0)), (0, (0, -1)), (0, (1, 1), 0)])
_MISSING_VERTEX = curve([(0, 0)], edges=[(0, 3)], rays=[(0, (-1, 0)), (0, (0, -1))])


@pytest.mark.parametrize(
    "command, bad, code, says",
    [
        ("newton", _UNBALANCED, 1, "not balanced"),
        ("newton", _CROSSING_LINES, 1, "crosses itself"),
        ("intersect", _DANGLING_EDGE, 1, "not balanced"),
        ("intersect", _ZERO_WEIGHT_RAY, 2, "non-positive weight"),
        ("newton", _MISSING_VERTEX, 2, "edge 0"),
        ("intersect", _MISSING_VERTEX, 2, "edge 0"),
        ("sigma", _MISSING_VERTEX, 2, "edge 0"),
        ("bunch", _MISSING_VERTEX, 2, "edge 0"),
    ],
    ids=[
        "newton-unbalanced", "newton-crossing", "intersect-dangling-edge",
        "intersect-zero-weight", "newton-missing-vertex",
        "intersect-missing-vertex", "sigma-missing-vertex", "bunch-missing-vertex",
    ],
)
def test_refused_curves_exit_codes(paths, capsys, command, bad, code, says):
    _, wc, _ = paths
    f = wc("bad.json", bad)
    other = wc("line.json", tropical_line((1, -1)))
    argv = [command, f] if command in ("newton", "bunch") else [command, f, other]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert says in captured.err
    if says != "not balanced":
        assert "not balanced" not in captured.err
    assert "degree:" not in captured.out


@st.composite
def broken_curve_files(draw):
    """A curve file with one defect, and the exit code the defect must get.

    Malformed data (bad index, weight 0 or -1, zero or non-primitive ray
    direction) exits 2; a dropped or extra ray unbalances a vertex and
    exits 1.
    """
    base = draw(st.sampled_from([tropical_line(), triangle_cycle_host()]))
    d = curve_to_dict(base)
    n = len(d["vertices"])
    ray = d["rays"][draw(st.integers(0, len(d["rays"]) - 1))]
    defect = draw(
        st.sampled_from(["index", "weight", "zero dir", "scaled dir", "drop ray", "add ray"])
    )
    if defect == "index":
        bad = draw(st.one_of(st.integers(n, n + 5), st.integers(-5, -1)))
        if d["edges"] and draw(st.booleans()):
            edge = d["edges"][draw(st.integers(0, len(d["edges"]) - 1))]
            edge["v"][draw(st.integers(0, 1))] = bad
        else:
            ray["v"] = bad
        return d, 2
    if defect == "weight":
        weighted = d["edges"] + d["rays"]
        weighted[draw(st.integers(0, len(weighted) - 1))]["w"] = draw(st.sampled_from([0, -1]))
        return d, 2
    if defect == "zero dir":
        ray["dir"] = [0, 0]
        return d, 2
    if defect == "scaled dir":
        k = draw(st.integers(2, 4))
        ray["dir"] = [k * x for x in ray["dir"]]
        return d, 2
    if defect == "drop ray":
        d["rays"].remove(ray)
        return d, 1
    direction = draw(st.sampled_from([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [2, -1], [-1, 3]]))
    d["rays"].append({"v": draw(st.integers(0, n - 1)), "dir": direction, "w": 1})
    return d, 1


@pytest.mark.parametrize("command", ["newton", "intersect", "bunch", "sigma"])
@settings(max_examples=20, deadline=None)
@given(case=broken_curve_files(), first=st.booleans())
def test_exit_code_map(command, case, first):
    """Each defect gets its exit code from main, in any argument position."""
    data, code = case
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad.json")
        good = os.path.join(tmp, "good.json")
        with open(bad, "w") as fh:
            json.dump(data, fh)
        with open(good, "w") as fh:
            fh.write(jsonio.curve_to_json(triangle_cycle_host()))
        if command in ("newton", "bunch"):
            argv = [command, bad]
        else:
            argv = [command] + ([bad, good] if first else [good, bad])
        assert main(argv) == code


# Each schema refusal of jsonio, reached through the CLI: the file text, the
# command that reads it, and the whole stderr line.  A curve file goes to
# `validate`; a divisor file goes to `jacobi` on the tropical line.
_LINE = jsonio.curve_to_json(tropical_line())
_SCHEMA_ERRORS = [
    ("curve", '{"vertices": [[1.5, "0"]], "edges": [], "rays": []}',
     "vertices[0][0]: expected a rational string, got 1.5"),
    ("curve", "[]", "curve: expected an object"),
    ("curve", '{"vertices": {}, "edges": [], "rays": []}',
     "curve.vertices: expected a list"),
    ("curve", '{"vertices": [["0", "0"]], "edges": [5], "rays": []}',
     "edges[0]: expected an object with 'v'"),
    ("curve", '{"vertices": [["0", "0"]], "edges": [], "rays": [{"v": 0}]}',
     "rays[0]: expected an object with 'v' and 'dir'"),
    ("curve", '{"vertices": [["0", "0"]], "edges": [], "rays": [{"v": 0, "dir": [1]}]}',
     "rays[0].dir: expected [dx, dy]"),
    ("curve", "{", "curve: invalid JSON "
     "(Expecting property name enclosed in double quotes at char 1)"),
    ("divisor", "{}", "divisor: expected a list"),
    ("divisor", "[5]", "divisor[0]: expected an object with 'point'"),
    ("divisor", "[", "divisor: invalid JSON (Expecting value at char 1)"),
]


@pytest.mark.parametrize(
    "kind, text, message", _SCHEMA_ERRORS,
    ids=[m.split(":")[0] + "-" + m.split(": ")[1][:12] for _, _, m in _SCHEMA_ERRORS],
)
def test_schema_errors_exit_2(tmp_path, capsys, kind, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if kind == "curve":
        argv = ["validate", str(bad)]
    else:
        line = tmp_path / "line.json"
        line.write_text(_LINE)
        argv = ["jacobi", str(line), str(bad)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("kind", ["curve", "divisor"])
def test_file_that_is_not_utf8_exit_2(tmp_path, capsys, kind):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    argv = ["validate", str(bad)]
    if kind == "divisor":
        line = tmp_path / "line.json"
        line.write_text(_LINE)
        argv = ["jacobi", str(line), str(bad)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {kind}: not UTF-8 (invalid start byte at byte 0)\n"


# Numbers past the interpreter's int-string limit, at each input boundary:
# refused by name with exit 2, never a ValueError traceback.
_BIG = "1" * 5000
_OVERSIZED = [
    ("poly", f"({_BIG})*x + y + 0",
     "number of 5000 digits exceeds the {limit}-digit limit (at position 1)"),
    ("poly", f"x^{_BIG} + 0",
     "number of 5000 digits exceeds the {limit}-digit limit (at position 2)"),
    ("poly", f"0 + x + (-3/{_BIG})*y",
     "number of 5000 digits exceeds the {limit}-digit limit (at position 12)"),
    ("curve", f'{{"vertices": [["{_BIG}", "0"]], "edges": [], "rays": []}}',
     "vertices[0][0]: number of 5000 digits exceeds the {limit}-digit limit"),
    ("curve", f'{{"vertices": [["0", "-1/{_BIG}"]], "edges": [], "rays": []}}',
     "vertices[0][1]: number of 5000 digits exceeds the {limit}-digit limit"),
    ("curve", f'{{"vertices": [[{_BIG}, "0"]], "edges": [], "rays": []}}',
     "curve: a JSON integer exceeds the {limit}-digit limit"),
    ("divisor", f'[{{"point": ["0", "{_BIG}"]}}]',
     "divisor[0].point[1]: number of 5000 digits exceeds the {limit}-digit limit"),
]


@pytest.mark.skipif(
    not 0 < digit_limit() < 5000, reason="the interpreter has no int-string limit"
)
@pytest.mark.parametrize("kind, text, message", _OVERSIZED)
def test_oversized_numbers_exit_2(tmp_path, capsys, kind, text, message):
    if kind == "poly":
        argv = ["from-poly", text]
    else:
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        argv = ["validate", str(bad)]
        if kind == "divisor":
            line = tmp_path / "line.json"
            line.write_text(_LINE)
            argv = ["jacobi", str(line), str(bad)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(limit=digit_limit())}\n"


def test_bezout_one_curve_exit_2(paths, capsys):
    _, wc, _ = paths
    assert main(["bezout", wc("line.json", tropical_line())]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bezout needs two curve files or --deg c d\n"


def test_render_newton_without_curve_exit_2(capsys):
    assert main(["render", "--newton"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: render --newton needs a curve\n"
