"""Import the tropcurve sources of the checkout this benchmark lives in."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

# Modules the workloads call into.  `tropcurve.curve` must be imported by its
# full name: the package namespace rebinds `curve` to the curve() function.
MODULES = ("geom", "curve", "newton", "intersect", "jacobian", "params",
           "polyfront", "jsonio")


class MissingSources(RuntimeError):
    """The checkout holds no tropcurve sources to benchmark."""


def load() -> SimpleNamespace:
    """The tropcurve modules from ``<checkout>/src``, never an installed copy."""
    if not (SRC / "tropcurve" / "__init__.py").is_file():
        raise MissingSources(f"no tropcurve sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"tropcurve.{m}") for m in MODULES}
    for m in mods.values():
        if SRC not in Path(m.__file__).resolve().parents:
            raise MissingSources(f"{m.__name__} was imported from {m.__file__}")
    return SimpleNamespace(**mods)
