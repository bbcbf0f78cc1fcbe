"""Exact CLI output: stdout bytes, exit codes and SVG files.

Each case pins the bytes a subcommand writes for a small input, so a
refactor behind the command cannot change them unnoticed.
"""

import json

import pytest

from fixtures_lib import (
    divisor_to_json,
    figure_eight,
    tail_cycle_curve,
    theta_curve,
    triangle_cycle_host,
    tropical_line,
    wedge_l,
)
from tropcurve.cli import main
from tropcurve.curve import curve
from tropcurve.geom import pt
from tropcurve.intersect import Divisor
from tropcurve import jsonio

# Two tropical lines in one file: balanced, but the lines cross at (1, 1).
CROSSING_LINES = curve(
    [(0, 0), (1, 2)],
    rays=[(v, d) for v in (0, 1) for d in [(-1, 0), (0, -1), (1, 1)]],
)


@pytest.fixture
def files(tmp_path):
    """Writers for curve and divisor files under tmp_path."""

    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def wc(name, c):
        return write(name, jsonio.curve_to_json(c))

    def wd(name, d):
        return write(name, divisor_to_json(d))

    return tmp_path, wc, wd


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_newton_text(files, capsys):
    _, wc, _ = files
    host = wc("host.json", triangle_cycle_host())
    assert run(capsys, ["newton", host]) == (0, (
        "newton polygon: (0, 0) (2, 1) (1, 2)\n"
        "dual vertices: 4\n"
        "dual edges: 6\n"
    ), "")


def test_validate_violations_json_and_text(files, capsys):
    _, wc, _ = files
    f = wc("cross.json", CROSSING_LINES)
    why = "ray 2 and ray 4 meet at (1, 1) which is not a shared vertex"
    code, out, _ = run(capsys, ["validate", f, "--json"])
    assert code == 1
    assert out == jsonio.dumps({
        "balanced": True,
        "embedding_ok": False,
        "residuals": [["0", "0"], ["0", "0"]],
        "violations": [why],
    })
    assert out.startswith('{\n  "balanced": true,\n  "embedding_ok": false,\n')
    assert run(capsys, ["validate", f]) == (
        1, f"balanced: true\nembedding violations:\n  {why}\n", ""
    )


def test_intersect_json(files, capsys):
    _, wc, _ = files
    a, b = wc("a.json", tropical_line()), wc("b.json", wedge_l((2, 2)))
    assert run(capsys, ["intersect", a, b, "--json"]) == (0, (
        '{\n  "divisor": [\n    {\n      "point": [\n        "2",\n        "2"\n'
        '      ],\n      "multiplicity": 2\n    }\n  ],\n  "degree": 2\n}\n'
    ), "")


def test_sigma_text(files, capsys):
    _, wc, _ = files
    host, mob = wc("host.json", triangle_cycle_host()), wc("mob.json", wedge_l())
    assert run(capsys, ["sigma", host, mob]) == (0, "degree: 3\nresidues: 1\n", "")


def test_jacobi_text_with_divisor(files, capsys):
    _, wc, wd = files
    host = wc("host.json", triangle_cycle_host())
    d = wd("d.json", Divisor.of({pt(3, 0): 1, pt("5/2", "-3/4"): 2}))
    assert run(capsys, ["jacobi", host, d]) == (
        0, "genus: 1\nmoduli: 3/2\ndegree: 3\nresidues: 1\n", ""
    )


def test_equiv_json(files, capsys):
    _, wc, wd = files
    host = wc("host.json", triangle_cycle_host())
    d1 = wd("d1.json", Divisor.of({pt(4, 1): 1}))
    d3 = wd("d3.json", Divisor.of({pt(1, 0): 1}))
    assert run(capsys, ["equiv", host, d1, d3, "--json"]) == (0, (
        '{\n  "equivalent": false,\n  "degrees": [\n    1,\n    1\n  ],\n'
        '  "difference": [\n    "1"\n  ]\n}\n'
    ), "")


def test_bunch_text_not_a_bouquet(files, capsys):
    _, wc, _ = files
    theta = wc("theta.json", theta_curve())
    lines = [f"edge {i}: cycle" for i in range(7)]
    lines += [f"ray {i}: ray" for i in range(10)]
    lines += ["genus: 2", "bouquet: no (2 quotient nodes have degree >= 3)"]
    assert run(capsys, ["bunch", theta]) == (0, "\n".join(lines) + "\n", "")


def test_bunch_json_bouquet_cycles(files, capsys):
    _, wc, _ = files
    f = wc("fig8.json", figure_eight())
    code, out, _ = run(capsys, ["bunch", f, "--json"])
    assert code == 0
    assert out == jsonio.dumps({
        "edges": ["cycle"] * 6,
        "genus": 2,
        "bouquet": True,
        "cycles": [
            {"vertices": [0, 1, 2, 0], "edges": [0, 1, 2], "base_vertex": 0},
            {"vertices": [0, 3, 4, 0], "edges": [3, 4, 5], "base_vertex": 0},
        ],
    })
    assert json.loads(out)["cycles"][1]["vertices"] == [0, 3, 4, 0]


def test_bezout_missing_file_exit_2(files, capsys):
    tmp, wc, _ = files
    line = wc("line.json", tropical_line())
    code, out, err = run(capsys, ["bezout", line, str(tmp / "missing.json")])
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2] No such file or directory")


INTERSECT_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="429" height="429">
<line x1="105.0000" y1="315.0000" x2="0.0000" y2="315.0000" stroke="#1f77b4" stroke-width="1.5000"/>
<line x1="105.0000" y1="315.0000" x2="105.0000" y2="420.0000" stroke="#1f77b4" stroke-width="1.5000"/>
<line x1="105.0000" y1="315.0000" x2="420.0000" y2="0.0000" stroke="#1f77b4" stroke-width="1.5000"/>
<circle cx="105.0000" cy="315.0000" r="2.5" fill="#1f77b4"/>
<line x1="315.0000" y1="105.0000" x2="315.0000" y2="420.0000" stroke="#d62728" stroke-width="1.5000"/>
<line x1="315.0000" y1="105.0000" x2="420.0000" y2="105.0000" stroke="#d62728" stroke-width="1.5000"/>
<line x1="315.0000" y1="105.0000" x2="210.0000" y2="0.0000" stroke="#d62728" stroke-width="1.5000"/>
<circle cx="315.0000" cy="105.0000" r="2.5" fill="#d62728"/>
<circle cx="315.0000" cy="105.0000" r="4" fill="#2ca02c"/>
<text x="315.0000" y="105.0000" dx="6" dy="-6" font-size="12" fill="#2ca02c">2</text>
</svg>
"""

BUNCH_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="261" height="429">
<line x1="84.0000" y1="336.0000" x2="168.0000" y2="336.0000" stroke="#1f77b4" stroke-width="1.5000"/>
<line x1="168.0000" y1="336.0000" x2="84.0000" y2="252.0000" stroke="#1f77b4" stroke-width="1.5000"/>
<line x1="84.0000" y1="252.0000" x2="84.0000" y2="336.0000" stroke="#1f77b4" stroke-width="1.5000"/>
<line x1="84.0000" y1="252.0000" x2="84.0000" y2="168.0000" stroke="#e6882e" stroke-width="1.5000"/>
<line x1="84.0000" y1="168.0000" x2="84.0000" y2="84.0000" stroke="#e6882e" stroke-width="1.5000"/>
<line x1="84.0000" y1="336.0000" x2="0.0000" y2="420.0000" stroke="#7f7f7f" stroke-width="1.5000"/>
<line x1="168.0000" y1="336.0000" x2="252.0000" y2="378.0000" stroke="#7f7f7f" stroke-width="1.5000"/>
<line x1="84.0000" y1="252.0000" x2="0.0000" y2="168.0000" stroke="#7f7f7f" stroke-width="1.5000"/>
<line x1="84.0000" y1="84.0000" x2="0.0000" y2="0.0000" stroke="#7f7f7f" stroke-width="1.5000"/>
<line x1="84.0000" y1="84.0000" x2="252.0000" y2="84.0000" stroke="#7f7f7f" stroke-width="1.5000"/>
<circle cx="84.0000" cy="336.0000" r="2.5" fill="#1f77b4"/>
<circle cx="168.0000" cy="336.0000" r="2.5" fill="#1f77b4"/>
<circle cx="84.0000" cy="252.0000" r="2.5" fill="#1f77b4"/>
<circle cx="84.0000" cy="168.0000" r="2.5" fill="#1f77b4"/>
<circle cx="84.0000" cy="84.0000" r="2.5" fill="#1f77b4"/>
</svg>
"""

RENDER_DIVISOR_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="429" height="289">
<line x1="280.0000" y1="140.0000" x2="0.0000" y2="140.0000" stroke="#1f77b4" stroke-width="1.5000"/>
<line x1="280.0000" y1="140.0000" x2="280.0000" y2="280.0000" stroke="#1f77b4" stroke-width="1.5000"/>
<line x1="280.0000" y1="140.0000" x2="420.0000" y2="0.0000" stroke="#1f77b4" stroke-width="1.5000"/>
<circle cx="280.0000" cy="140.0000" r="2.5" fill="#1f77b4"/>
<circle cx="140.0000" cy="140.0000" r="4" fill="#2ca02c"/>
<text x="140.0000" y="140.0000" dx="6" dy="-6" font-size="12" fill="#2ca02c">2</text>
<circle cx="280.0000" cy="140.0000" r="4" fill="#2ca02c"/>
<text x="280.0000" y="140.0000" dx="6" dy="-6" font-size="12" fill="#2ca02c">1</text>
</svg>
"""


def test_intersect_svg(files, capsys):
    tmp, wc, _ = files
    a, b = wc("a.json", tropical_line()), wc("b.json", wedge_l((2, 2)))
    svg = tmp / "x.svg"
    assert run(capsys, ["intersect", a, b, "--svg", str(svg)]) == (
        0, "(2, 2)  multiplicity 2\ndegree: 2\n", ""
    )
    assert svg.read_text() == INTERSECT_SVG


def test_bunch_svg_colours_tentacles_cycles_and_rays(files, capsys):
    tmp, wc, _ = files
    f = wc("tail.json", tail_cycle_curve())
    svg = tmp / "x.svg"
    code, out, _ = run(capsys, ["bunch", f, "--svg", str(svg)])
    assert code == 0 and out.endswith("genus: 1\nbouquet: yes (1 cycles)\n")
    assert svg.read_text() == BUNCH_SVG


def test_render_divisor_svg(files, capsys):
    tmp, wc, wd = files
    line = wc("line.json", tropical_line())
    d = wd("d.json", Divisor.of({pt(0, 0): 1, pt(-1, 0): 2}))
    svg = tmp / "x.svg"
    assert run(capsys, ["render", line, "--divisor", d, "-o", str(svg)]) == (0, "", "")
    assert svg.read_text() == RENDER_DIVISOR_SVG
