"""Run every workload on several seeds and summarise the spread.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload and each seed in SEEDS it runs ``run.py --trace 0`` for
``run_seconds`` of BENCHMARK.json; then one ``--trace 1`` run per workload
on the first seed.  It prints, per end-to-end
metric, the median and the quartile spread (Q3 - Q1) / median of the runs,
and writes every run's result to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "trace": trace, "provenance": json.loads(lines[-2])["provenance"],
            "result": json.loads(lines[-1])}


def summarise(runs: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    report = {"seeds": list(SEEDS), "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [_run(workload, seed, seconds, 0) for seed in SEEDS]
        traced = _run(workload, SEEDS[0], seconds, 1)
        entry = {
            "end_to_end": summarise(runs),
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "runs": runs,
            "traced_run": traced,
        }
        report["workloads"][workload] = entry
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        for name, stats in entry["end_to_end"].items():
            print(f"{workload:12s} {name:18s} median {stats['median']:12.6g} "
                  f"spread {stats['spread']:.4f}", flush=True)
        failed = sum(run["result"]["failed"] for run in runs)
        print(f"{workload:12s} failed operations: {failed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
