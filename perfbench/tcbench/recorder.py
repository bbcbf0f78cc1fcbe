"""Op timing, failure counting, and the machine-speed reference.

Hosts shared with other tenants drift in speed by tens of percent over
minutes.  After every op the recorder times a fixed reference kernel of
`Fraction` arithmetic, the same kind of work the library does.  The run's
median kernel time measures the machine's speed during that run; the
end-to-end times are scaled by REF_NOMINAL_S / that median, i.e. reported
as they would read on a machine where the kernel takes REF_NOMINAL_S.  The
kernel does not touch the library, so a change to the library moves the
scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

REF_NOMINAL_S = 0.006  # the kernel's median time on a quiet 2.1 GHz host
_REF_TERMS = tuple(Fraction(3 * i + 1, 7 * i + 5) for i in range(60))


def reference_kernel() -> float:
    """Seconds taken by a fixed sum of Fraction products."""
    a = _REF_TERMS
    start = perf_counter()
    acc = Fraction(0)
    for i in range(59):
        for j in range(0, 60, 4):
            acc += a[i] * a[j] - a[j + 1] * a[i + 1]
    return perf_counter() - start


class Recorder:
    """Times ops and counts failures.

    The check runs after the clock stops.  An op that raises, or whose
    output fails its check, counts as failed; the run goes on.
    """

    def __init__(self, tracer=None):
        self.times: list[float] = []
        self.ref: list[float] = []
        self.failed = 0
        self.tracer = tracer
        self._reports_left = 3  # tracebacks printed to stderr

    def op(self, fn, check):
        if self.tracer is not None:
            self.tracer.begin_op()
        start = perf_counter()
        try:
            out = fn()
        except Exception:
            out = None
            self._report("op raised")
        end = perf_counter()
        if self.tracer is not None:
            self.tracer.end_op()
        self.times.append(end - start)
        ok = False
        if out is not None:
            try:
                ok = bool(check(out))
            except Exception:
                self._report("check raised")
            else:
                if not ok:
                    self._report("output failed its check", with_trace=False)
        if not ok:
            self.failed += 1
        self.ref.append(reference_kernel())
        return out

    def speed_scale(self) -> float:
        """Factor that brings this run's times to the nominal machine speed."""
        return REF_NOMINAL_S / statistics.median(self.ref)

    def _report(self, what: str, with_trace: bool = True) -> None:
        if self._reports_left <= 0:
            return
        self._reports_left -= 1
        print(f"op {len(self.times)}: {what}", file=sys.stderr)
        if with_trace:
            traceback.print_exc(file=sys.stderr)
