"""The benchmark finds the library names it calls and wraps by name.

perfbench/tcbench/trace.py lists the traced functions in TARGETS, the
workloads call `tc.<module>.<name>` on the loaded modules, and the
benchmark's own tests patch some `from ... import` bindings.  A rename or a
deletion in the library that misses one of these breaks the benchmark, not
the library, so it is guarded here.
"""

import ast
import importlib
from pathlib import Path

import pytest

TCBENCH = Path(__file__).resolve().parents[1] / "perfbench" / "tcbench"
TRACE = TCBENCH / "trace.py"


def _targets() -> dict:
    tree = ast.parse(TRACE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("TARGETS not found in trace.py")


def _workload_calls() -> set[str]:
    """Every `tc.<module>.<name>` the benchmark's sources spell out."""
    names = set()
    for path in sorted(TCBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "tc"
            ):
                names.add(f"{node.value.attr}.{node.attr}")
    return names


@pytest.mark.parametrize(
    "name", [f"{m}.{f}" for m, fs in _targets().items() for f in fs]
)
def test_traced_function_exists(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"tropcurve.{module}"), function))


@pytest.mark.parametrize("name", sorted(_workload_calls()))
def test_workload_name_exists(name):
    module, attr = name.split(".")
    assert hasattr(importlib.import_module(f"tropcurve.{module}"), attr)


def test_workload_names_are_collected():
    assert {
        "curve.translate",
        "jsonio.curve_from_json",
        "polyfront.polynomial",
        "jacobian.cycle_system",
        "params.params_from_curve",
        "intersect.has_shared_segment",
    } <= _workload_calls()


@pytest.mark.parametrize(
    "binding, source",
    [
        ("intersect.items", "curve.items"),
        ("params.validate", "curve.validate"),
        ("jacobian.stable_intersection", "intersect.stable_intersection"),
    ],
)
def test_patched_binding_exists(binding, source):
    def lookup(name):
        module, attr = name.split(".")
        return getattr(importlib.import_module(f"tropcurve.{module}"), attr)

    assert lookup(binding) is lookup(source)
