"""Tests of the benchmark itself: determinism, live checks, output contract.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from tcbench import lib, runner  # noqa: E402
from tcbench.trace import Tracer  # noqa: E402
from tcbench.recorder import Recorder  # noqa: E402
from tcbench.workloads import WORKLOADS, Walk  # noqa: E402

tc = lib.load()


@pytest.fixture
def short_walks(monkeypatch):
    monkeypatch.setattr(Walk, "STEPS", 4)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    wl = WORKLOADS[name]
    assert wl.setup(tc, 7).fingerprint() == wl.setup(tc, 7).fingerprint()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_gives_other_inputs(name):
    wl = WORKLOADS[name]
    assert wl.setup(tc, 7).fingerprint() != wl.setup(tc, 8).fingerprint()


def _prefix_counts(wl, seed: int, rounds: int) -> dict:
    inputs = wl.setup(tc, seed)
    tracer = Tracer()
    rec = Recorder(tracer)
    with tracer.installed(tc):
        counts = runner.exact_prefix(wl, tc, inputs, tracer, rec, rounds)
    assert rec.failed == 0
    return counts


@pytest.mark.parametrize("name,rounds", [("walk", 1), ("corner", 6), ("intersect", 12)])
def test_same_seed_gives_identical_exact_counts(name, rounds, short_walks):
    wl = WORKLOADS[name]
    first = _prefix_counts(wl, 5, rounds)
    assert first == _prefix_counts(wl, 5, rounds)
    assert any(v for v, _ in first.values())


def test_tracer_restores_every_binding():
    before = tc.params.validate, tc.intersect.items, tc.jacobian.stable_intersection
    tracer = Tracer()
    with tracer.installed(tc):
        assert tc.params.validate is not before[0]
        assert tc.intersect.items is not before[1]
        assert tc.jacobian.stable_intersection is not before[2]
    assert (tc.params.validate, tc.intersect.items, tc.jacobian.stable_intersection) == before


def test_self_time_excludes_children():
    from tcbench.trace import Span

    tracer = Tracer()
    tracer.spans = [
        Span("a", 0.0, 10.0, -1, 0),
        Span("b", 1.0, 4.0, 0, 0),
        Span("b", 5.0, 6.0, 0, 0),
        Span("c", 2.0, 3.0, 1, 0),
    ]
    calls, self_s = tracer.layer_totals()
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}


def _rounds(name: str, n: int, seed: int = 3) -> Recorder:
    wl = WORKLOADS[name]
    inputs = wl.setup(tc, seed)
    rec = Recorder()
    for k in range(n):
        wl.round(tc, inputs, k, rec)
    return rec


def test_intersect_counts_a_corrupted_divisor(monkeypatch):
    assert _rounds("intersect", 3).failed == 0
    real = tc.intersect.stable_intersection

    def off_by_one(c1, c2):
        d = real(c1, c2)
        far = tc.geom.pt(10**6, 10**6)
        return tc.intersect.Divisor(d.entries + ((far, 1),), d.host)

    monkeypatch.setattr(tc.intersect, "stable_intersection", off_by_one)
    rec = _rounds("intersect", 3)
    assert (rec.failed, len(rec.times)) == (3, 3)


def test_walk_counts_a_corrupted_sigma(monkeypatch, short_walks):
    assert _rounds("walk", 1).failed == 0
    real = tc.jacobian.sigma
    calls = []

    def drifting(system, mobile):
        coord = real(system, mobile)
        calls.append(1)
        if len(calls) == 1:  # the walk's reference value stays exact
            return coord
        return tc.jacobian.AbelCoordinate(coord.degree + 1, coord.residues)

    monkeypatch.setattr(tc.jacobian, "sigma", drifting)
    rec = _rounds("walk", 1)
    assert (rec.failed, len(rec.times)) == (Walk.STEPS, Walk.STEPS)


def test_corner_counts_exceptions_and_keeps_going(monkeypatch):
    real = tc.polyfront.corner_locus
    calls = []

    def flaky(f):
        calls.append(1)
        if len(calls) % 2:
            raise tc.geom.GeometryError("injected")
        return real(f)

    monkeypatch.setattr(tc.polyfront, "corner_locus", flaky)
    rec = _rounds("corner", 4)
    assert (rec.failed, len(rec.times)) == (2, 4)


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    times = [float(i) for i in range(1, 201)]
    assert runner.tail(times) == (90.0, 180.0, 20)
    assert runner.tail(times * 10)[0] == 99.0


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_catalogued_metrics(capsys, trace, section):
    import run

    argv = ["--workload", "corner", "--seed", "2", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    catalogue = json.loads((BENCH.parent / "BENCHMARK.json").read_text())[section]
    assert {k: m["unit"] for k, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in catalogue
    }


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
