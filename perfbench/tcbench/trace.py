"""Outside-in tracing: wrap the public functions of each layer, record spans.

The wrappers replace a function in every tropcurve namespace that holds it,
so calls through `from ... import` bindings (`intersect.items`,
`params.validate`, `jacobian.stable_intersection`, ...) are seen too.  The
library itself is not edited.  Spans are kept in memory while ops run and
are reduced to per-layer counts and self times at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import comb
from time import perf_counter

# Public functions that get a span, per layer.  `geom` (one `cross` costs a
# few microseconds, so a wrapper would distort it), `bunch` (setup only),
# `cli` and `svgout` (no workload uses them) get none.
TARGETS = {
    "curve": ("items", "validate", "locate", "local_star"),
    "newton": ("face_structure", "newton_complex", "newton_polygon",
               "star_multiplicity"),
    "intersect": ("stable_intersection", "has_shared_segment",
                  "perturbation_oracle", "generic_direction", "is_transversal"),
    "params": ("perturb", "project_to_closure", "curve_from_params"),
    "jacobian": ("sigma", "abel_coordinate", "project_point"),
    "polyfront": ("parse", "dual_subdivision", "corner_locus"),
    "jsonio": ("curve_to_json",),
}

FUNCTIONS = tuple(f"{m}.{f}" for m, fs in TARGETS.items() for f in fs)
ROUTES = ("dualcell", "oracle")
CLASSIFY = "trace.classify"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top of an op
    op: int


@dataclass
class Tracer:
    """Span recorder; records only while an op is running."""

    spans: list[Span] = field(default_factory=list)
    ops: int = 0
    counts: Counter = field(default_factory=Counter)
    max_bits: int = 0
    _stack: list[int] = field(default_factory=list)
    _op: int | None = None

    # -- op boundaries, called by the recorder ------------------------------

    def begin_op(self) -> None:
        self._op = self.ops
        self._stack.clear()

    def end_op(self) -> None:
        self.ops += 1
        self._op = None

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self._op))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    def _untraced(self, name: str, fn, *args):
        """Run fn with recording paused, as one span the layers do not own."""
        op, parent = self._op, (self._stack[-1] if self._stack else -1)
        self._op = None
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._op = op
            self.spans.append(Span(name, start, perf_counter(), parent, op))

    def wrap(self, key: str, fn, has_shared_segment):
        hook = _HOOKS.get(key)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            name = key
            if key == "intersect.stable_intersection":
                shared = tracer._untraced(CLASSIFY, has_shared_segment, *args[:2])
                route = "oracle" if shared else "dualcell"
                tracer.counts[f"intersect.route.{route}"] += 1
                name = f"{key}.{route}"
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, args, out)
            return out

        return traced

    # -- install / restore ---------------------------------------------------

    @contextmanager
    def installed(self, tc):
        """Swap in the wrappers; every binding is restored on exit."""
        originals = {
            key: getattr(getattr(tc, key.split(".")[0]), key.split(".")[1])
            for key in FUNCTIONS
        }
        wrappers = {
            id(fn): self.wrap(key, fn, originals["intersect.has_shared_segment"])
            for key, fn in originals.items()
        }
        patched = []
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "tropcurve" and not name.startswith("tropcurve."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    # -- reduction -----------------------------------------------------------

    def layer_totals(self, stop: int | None = None) -> tuple[Counter, Counter]:
        """Calls and self seconds per span name, over spans[:stop].

        Self time is a span's duration minus that of its direct children,
        which in one thread are disjoint and inside it.
        """
        spans = self.spans[:stop]
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for s, inner in zip(spans, child):
            calls[s.name] += 1
            self_s[s.name] += s.end - s.start - inner
        return calls, self_s

    def perturb_candidates(self, stop: int | None = None) -> int:
        """curve_from_params spans with a perturb span among their ancestors."""
        spans = self.spans
        n = 0
        for s in spans[:stop]:
            if s.name != "params.curve_from_params":
                continue
            p = s.parent
            while p >= 0 and spans[p].name != "params.perturb":
                p = spans[p].parent
            n += p >= 0
        return n

    def top_span_time(self) -> float:
        return sum(
            s.end - s.start
            for s in self.spans
            if s.parent < 0 and not s.name.startswith("trace.")
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op]) + "\n")


# -- counts read from arguments and results, never from library internals ---


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _perturb_hook(tracer: Tracer, args, out) -> None:
    if out is args[0]:  # perturb hands back its input after 60 halvings
        tracer.counts["params.perturb.stalls"] += 1
    values = (*out.lengths, out.anchor_pos.x, out.anchor_pos.y)
    tracer.max_bits = max(tracer.max_bits, max(_bits(v) for v in values))


def _generic_direction_hook(tracer: Tracer, args, out) -> None:
    # the search tries (1, 1), (1, 2), ... and returns the first that passes
    tracer.counts["intersect.generic_direction.tries"] += int(out.y)


def _dual_subdivision_hook(tracer: Tracer, args, out) -> None:
    tracer.counts["polyfront.dual_subdivision.triples"] += comb(len(args[0].terms), 3)
    tracer.counts["polyfront.dual_subdivision.cells"] += len(out.cells)


_HOOKS = {
    "params.perturb": _perturb_hook,
    "intersect.generic_direction": _generic_direction_hook,
    "polyfront.dual_subdivision": _dual_subdivision_hook,
}
