"""Benchmark the tropcurve library on one workload, or on all of them.

    python3 perfbench/run.py --workload walk --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Exits 2 without a
result when the checkout holds no tropcurve sources under src/.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tcbench import lib, runner  # noqa: E402
from tcbench.workloads import WORKLOADS  # noqa: E402


def _print_summary(result: dict) -> None:
    d = result["detail"]
    failed, attempted = result["failed"], result["attempted"]
    print(f"{result['workload']} seed={result['seed']}: {attempted} ops, "
          f"{failed} failed, fail_ratio {failed / attempted:g}")
    for key, value in d.items():
        print(f"  {key}: {value}")
    for name, m in result["metrics"].items():
        print(f"  {name:52s} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        tc = lib.load()
    except lib.MissingSources as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = runner.run(WORKLOADS[name], tc, args.seed, args.seconds, bool(args.trace))
        _print_summary(result)
        results.append(result)
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        metrics.update({prefix + k: v for k, v in r["metrics"].items()})
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
