"""The benchmark's tracer finds the library functions it wraps by name.

perfbench/tcbench/trace.py lists them in TARGETS, and the benchmark's own
tests patch some `from ... import` bindings.  A rename in the library that
misses one of these breaks the benchmark, not the library, so it is guarded
here.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "tcbench" / "trace.py"


def _targets() -> dict:
    tree = ast.parse(TRACE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("TARGETS not found in trace.py")


@pytest.mark.parametrize(
    "name", [f"{m}.{f}" for m, fs in _targets().items() for f in fs]
)
def test_traced_function_exists(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"tropcurve.{module}"), function))


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
