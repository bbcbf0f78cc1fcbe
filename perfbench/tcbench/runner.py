"""Run a workload: repeated setup, the timed loop, and the metrics.

The timed run (`trace=False`) wraps nothing and reports the end-to-end
metrics, with times scaled to the nominal machine speed (see recorder.py);
the raw times are kept in the detail.  The traced run (`trace=True`) first runs a fixed prefix of rounds
untraced, then the same prefix traced, then keeps tracing until the time is
up; exact counts come from the traced prefix, self times from every traced
op, and the two prefix timings give the tracing overhead.
"""

from __future__ import annotations

import math
import resource
import statistics
from time import perf_counter

from .lib import ROOT
from .trace import CLASSIFY, FUNCTIONS, ROUTES, Tracer
from .recorder import REF_NOMINAL_S, Recorder, reference_kernel

SETUP_REPEATS = 7
# The tail is the highest of these percentiles with at least MIN_BEYOND
# samples above it.  A coarse ladder keeps the reported percentile the same
# from run to run unless the op count changes several-fold.
TAIL_LADDER = (90.0, 99.0, 99.9)
MIN_BEYOND = 10
SPAN_DIR = ROOT / ".perfbench-out"


def timed_setup(wl, tc, seed: int):
    """Build the inputs SETUP_REPEATS times, each followed by the reference
    kernel.  Returns the inputs, the median build time, and the speed scale
    of these builds (set-up runs before the first op, so it gets its own)."""
    times, ref = [], []
    inputs = None
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        again = wl.setup(tc, seed)
        times.append(perf_counter() - start)
        ref.append(reference_kernel())
        if inputs is None:
            inputs = again
        elif again.fingerprint() != inputs.fingerprint():
            raise RuntimeError(f"{wl.name} setup is not deterministic")
    return inputs, statistics.median(times), REF_NOMINAL_S / statistics.median(ref)


def run_rounds(wl, tc, inputs, rec: Recorder, k: int, deadline: float) -> int:
    """Run rounds k, k+1, ... while the mean round still fits before the
    deadline, so that no round is cut; returns the next round index."""
    spent = []
    while True:
        now = perf_counter()
        if spent and now + sum(spent) / len(spent) > deadline:
            return k
        wl.round(tc, inputs, k, rec)
        spent.append(perf_counter() - now)
        k += 1


def tail(times: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it), nearest-rank."""
    n = len(times)
    q = TAIL_LADDER[0]
    for cand in TAIL_LADDER:
        if n * (100 - cand) / 100 >= MIN_BEYOND:
            q = cand
    rank = min(n, max(1, math.ceil(q / 100 * n)))
    return q, sorted(times)[rank - 1], n - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(wl, tc, seed: int, seconds: float, trace: bool) -> dict:
    inputs, setup_s, setup_scale = timed_setup(wl, tc, seed)
    deadline = perf_counter() + seconds
    if trace:
        return traced_run(wl, tc, inputs, seed, deadline)
    rec = Recorder()
    rounds = run_rounds(wl, tc, inputs, rec, 0, deadline)
    q, tail_s, beyond = tail(rec.times)
    p50_s = statistics.median(rec.times)
    per_s = len(rec.times) / sum(rec.times)
    scale = rec.speed_scale()
    metrics = {
        "op_ms.p50": (p50_s * scale * 1000, "ms"),
        "op_ms.tail": (tail_s * scale * 1000, "ms"),
        "ops_per_s": (per_s / scale, "1/s"),
        "setup_s": (setup_s * setup_scale, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    detail = {
        "rounds": rounds,
        "fail_ratio": rec.failed / len(rec.times),
        "tail_percentile": q,
        "tail_samples_beyond": beyond,
        "reference_kernel_ms": statistics.median(rec.ref) * 1000,
        "speed_scale": scale,
        "raw": {"op_ms.p50": p50_s * 1000, "op_ms.tail": tail_s * 1000,
                "ops_per_s": per_s, "setup_s": setup_s},
    }
    return _result(wl, seed, len(rec.times), rec.failed, metrics, detail)


def exact_prefix(wl, tc, inputs, tracer: Tracer, rec: Recorder, rounds: int) -> dict:
    """Run rounds 0 .. rounds-1 traced; return their counts, which repeat
    exactly for one seed."""
    for k in range(rounds):
        wl.round(tc, inputs, k, rec)
    ops = len(rec.times)
    stop = len(tracer.spans)
    calls, _ = tracer.layer_totals(stop)
    counts = tracer.counts
    out = {}
    for key in FUNCTIONS:
        n = calls[key] + sum(calls[f"{key}.{r}"] for r in ROUTES)
        out[f"{key}.calls"] = (n / ops, "count/op")
    for r in ROUTES:
        out[f"intersect.route.{r}"] = (counts[f"intersect.route.{r}"] / ops, "count/op")
    tries = counts["intersect.generic_direction.tries"]
    out["intersect.generic_direction.tries"] = (
        tries / max(1, calls["intersect.generic_direction"]), "count/call")
    out["params.perturb.candidates_per_step"] = (
        tracer.perturb_candidates(stop) / max(1, calls["params.perturb"]), "count/call")
    out["params.perturb.stalls"] = (counts["params.perturb.stalls"] / ops, "count/op")
    out["params.max_bits"] = (tracer.max_bits, "bits")
    triples = counts["polyfront.dual_subdivision.triples"]
    cells = counts["polyfront.dual_subdivision.cells"]
    out["polyfront.dual_subdivision.triples"] = (triples / ops, "count/op")
    out["polyfront.dual_subdivision.cells"] = (cells / ops, "count/op")
    out["polyfront.dual_subdivision.cells_per_triple"] = (
        cells / triples if triples else 0.0, "ratio")
    return out


def traced_run(wl, tc, inputs, seed: int, deadline: float) -> dict:
    plain = Recorder()
    for k in range(wl.PREFIX_ROUNDS):
        wl.round(tc, inputs, k, plain)
    tracer = Tracer()
    rec = Recorder(tracer)
    with tracer.installed(tc):
        metrics = exact_prefix(wl, tc, inputs, tracer, rec, wl.PREFIX_ROUNDS)
        prefix_ops = len(rec.times)
        prefix_s = sum(rec.times)
        run_rounds(wl, tc, inputs, rec, wl.PREFIX_ROUNDS, deadline)
    ops = len(rec.times)
    scale = rec.speed_scale()
    _, self_s = tracer.layer_totals()
    for key in FUNCTIONS:
        if key == "intersect.stable_intersection":
            for r in ROUTES:
                metrics[f"{key}.{r}.self_s"] = (self_s[f"{key}.{r}"] * scale / ops, "s/op")
        else:
            metrics[f"{key}.self_s"] = (self_s[key] * scale / ops, "s/op")
    op_s = sum(rec.times)
    metrics["trace.ops_per_s.untraced"] = (len(plain.times) / sum(plain.times) / scale, "1/s")
    metrics["trace.ops_per_s.traced"] = (prefix_ops / prefix_s / scale, "1/s")
    metrics["trace.overhead"] = (prefix_s / sum(plain.times), "ratio")
    metrics["trace.top_span_share"] = (tracer.top_span_time() / op_s, "ratio")
    metrics["trace.classify_share"] = (self_s[CLASSIFY] / op_s, "ratio")
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write(span_file)
    detail = {
        "prefix_rounds": wl.PREFIX_ROUNDS,
        "prefix_ops": prefix_ops,
        "traced_ops": ops,
        "spans": len(tracer.spans),
        "speed_scale": scale,
        "span_file": str(span_file.relative_to(ROOT)),
    }
    attempted = len(plain.times) + len(rec.times)
    return _result(wl, seed, attempted, plain.failed + rec.failed, metrics, detail)


def _result(wl, seed, attempted: int, failed: int, metrics: dict, detail: dict) -> dict:
    return {
        "workload": wl.name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }
