"""The admission gate: every analysis admits its curves through
`require_valid`, which keeps a pass on the curve (`_valid`).  Curves that
are valid by construction are born with the verdict and never validated;
any other curve is validated once, at its first analysis; a curve that
fails keeps nothing and is refused on every call."""

import importlib
import random
import re

import pytest

from fixtures_lib import concave_lift, tropical_line, unit_triangle_cycle
from tropcurve import jsonio
from tropcurve.cli import main
from tropcurve.curve import InvalidCurveError, curve, require_valid, translate, validate
from tropcurve.geom import pt
from tropcurve.intersect import Divisor, is_transversal, stable_intersection
from tropcurve.jacobian import (
    abel_coordinate,
    cycle_system,
    linearly_equivalent_on,
    project_point,
    sigma,
)
from tropcurve.params import curve_from_params, params_from_curve, perturb
from tropcurve.polyfront import corner_locus, polynomial

# Curves that fail validate, each with the refusal that names its first
# defect.  Before the gate the library analysed each of them silently.
PROBES = {
    # a vertex with rays east and north only
    "unbalanced-two-rays": (
        curve([(0, 0)], rays=[(0, (1, 0)), (0, (0, 1))]),
        "curve is not balanced: vertex 0 has residual (1, 1)",
    ),
    # the unit triangle cycle without the ray at vertex 2
    "triangle-missing-a-ray": (
        curve(
            [(0, 0), (1, 0), (0, 1)],
            edges=[(0, 1), (1, 2), (2, 0)],
            rays=[(0, (-1, -1)), (1, (2, -1))],
        ),
        "curve is not balanced: vertex 2 has residual (1, -2)",
    ),
    # two tropical lines in one file, the second one step up their common
    # northeast ray, which both list first
    "lines-overlapping-along-a-ray": (
        curve(
            [(0, 0), (1, 1)],
            rays=[
                (0, (1, 1)), (0, (-1, 0)), (0, (0, -1)),
                (1, (1, 1)), (1, (-1, 0)), (1, (0, -1)),
            ],
        ),
        "curve crosses itself: ray 0 and ray 3 overlap along a segment",
    ),
}

ANALYSES = {
    "stable_intersection": lambda c: stable_intersection(c, tropical_line((5, 7))),
    "stable_intersection-second": lambda c: stable_intersection(tropical_line((5, 7)), c),
    "is_transversal": lambda c: is_transversal(c, tropical_line((5, 7))),
    "cycle_system": cycle_system,
    "sigma-mobile": lambda c: sigma(cycle_system(unit_triangle_cycle()), c),
    "linearly_equivalent_on": lambda c: linearly_equivalent_on(c, Divisor((), c), Divisor((), c)),
}


@pytest.fixture
def validated(monkeypatch):
    """The curves that validate runs on, through every module's binding of
    it: the gate's in curve, and the imported names in params and cli."""
    seen = []
    for name in ("curve", "params", "cli"):
        module = importlib.import_module(f"tropcurve.{name}")
        monkeypatch.setattr(module, "validate", lambda c: seen.append(c) or validate(c))
    return seen


def _cubic(seed: int):
    return corner_locus(polynomial(concave_lift(random.Random(seed), 3)))


@pytest.mark.parametrize("analysis", ANALYSES)
@pytest.mark.parametrize("probe", PROBES)
def test_every_analysis_refuses_the_probes_by_name(probe, analysis):
    c, message = PROBES[probe]
    for _ in range(2):
        with pytest.raises(InvalidCurveError, match=f"^{re.escape(message)}$"):
            ANALYSES[analysis](c)
    assert "_valid" not in vars(c)


@pytest.mark.parametrize("probe", PROBES)
def test_the_refusal_names_validates_first_defect(probe):
    c, message = PROBES[probe]
    report = validate(c)
    residual = next((r for r in report.residuals if r), None)
    if residual is not None:
        assert message.endswith(f"residual ({residual.x}, {residual.y})")
    else:
        assert message == f"curve crosses itself: {report.embedding_violations[0]}"
    for _ in range(3):
        with pytest.raises(InvalidCurveError, match=f"^{re.escape(message)}$"):
            require_valid(c)
    assert "_valid" not in vars(c)


def test_a_corner_locus_and_its_translate_are_never_validated(validated):
    line = corner_locus(polynomial({(0, 0): 0, (1, 0): 0, (0, 1): 0}))
    host = _cubic(4)
    for c in (host, translate(host, pt("1/3", "-2/7"))):
        assert "_valid" in vars(c)
        system = cycle_system(c)
        assert stable_intersection(c, line).degree == 3
        assert stable_intersection(line, c).degree == 3
        assert sigma(system, line).degree == 3
        is_transversal(c, line)
    assert validated == []


def test_a_walk_from_a_corner_locus_validates_nothing(validated):
    system = cycle_system(_cubic(4))
    p = params_from_curve(_cubic(9))
    assert "_certified" in vars(p.skeleton)
    sigma0 = sigma(system, curve_from_params(p))
    rng = random.Random(7)
    for _ in range(50):
        p = perturb(p, rng)
        c = curve_from_params(p)
        assert "_valid" in vars(c)
        assert sigma(system, c) == sigma0
        is_transversal(system.curve, c)
    assert validated == []


def test_a_raw_curve_is_validated_once(validated):
    # both curves come from the raw constructor: each is validated at its
    # first analysis and admitted by the verdict on every later one
    host, line = unit_triangle_cycle(), tropical_line((5, 7))
    assert "_valid" not in vars(host) and "_valid" not in vars(line)
    p = params_from_curve(host)
    assert "_certified" not in vars(p.skeleton)
    for _ in range(3):
        system = cycle_system(host)
        d = stable_intersection(host, line)
        assert sigma(system, line) == abel_coordinate(system, d)
        assert is_transversal(line, host) == is_transversal(host, line)
        project_point(system, host.vertices[0])
        require_valid(host)
    assert len(validated) == 2 and validated[0] is host and validated[1] is line
    assert "_certified" in vars(params_from_curve(host).skeleton)


def test_perturb_admits_a_start_through_the_gate(validated):
    # a raw start: perturb's first step validates it once, through the gate,
    # and the candidates of the certified skeleton are born valid
    p = params_from_curve(unit_triangle_cycle())
    rng = random.Random(3)
    for _ in range(5):
        p = perturb(p, rng)
        assert "_valid" in vars(curve_from_params(p))
    assert len(validated) == 1


def test_the_walk_command_validates_its_two_files(tmp_path, validated, capsys):
    # the host and the mobile on load; the mobile's skeleton is certified
    # from its verdict, so perturb and the candidates validate nothing
    files = []
    for name, c in (("host.json", _cubic(4)), ("mobile.json", _cubic(9))):
        f = tmp_path / name
        f.write_text(jsonio.curve_to_json(c))
        files.append(str(f))
    assert main(["walk", *files, "--steps", "30", "--seed", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 30
    assert len(validated) == 2
