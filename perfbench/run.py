"""steerkit benchmark: one workload per call, every output checked.

    python3 perfbench/run.py --workload {cli-corpus,noisy-qubit,scan} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout.  One closed-loop client in one worker process drives the
load; BLAS is pinned to one thread.  The last stdout line is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced run
with ``--trace 1``.  The line before it records provenance.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import TAIL_BEYOND, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 5  # set-up is timed this many times per run; the median is reported
IMPORT_PROBES = 5
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {"cli.import_ms": "ms", "cli.main_ms": "ms", "cli.startup_ms": "ms",
               "cli.stdout_bytes": "bytes/op", "scenarios.bisection_steps": "steps/call",
               "qubits.state_bytes": "bytes-computed", "trace.overhead_ratio": "ratio"}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    suffix = name.rsplit(".", 1)[1]
    return {"calls": "calls/op", "busy_ms": "ms/op", "self_ms": "ms/op", "points": "points/op",
            "settings_tried": "calls/op", "plans_tried": "calls/op"}[suffix]


def latency_summary(latencies: list[float]) -> dict:
    """Median and the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return {
        "samples": n,
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": ordered[n - 1 - beyond] * 1e3,
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_samples_beyond": beyond,
    }


def _environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Worker:
    """A worker process, timed from spawn until it prints READY."""

    def __init__(self, argv: list[str], env: dict, deadline: float):
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv],
                                     stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        self.ready = line.strip() == "READY"

    def finish(self) -> int:
        try:
            self.proc.stdout.read()
            return self.proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            print("worker ran past the deadline", file=sys.stderr)
            return 1
        finally:
            self.proc.stdout.close()


def _import_ms(env: dict) -> float:
    times = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import steerkit.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _provenance(args, result: dict, setup: list[float]) -> dict:
    try:
        # the ceiling keeps git from searching above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, env=env).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": result["blas"], "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "client": "1 closed-loop, 1 process",
        "setup_samples_s": setup, "deck_size": result["deck_size"],
        "failure_ratio": result["failed"] / result["attempted"], "errors": result["errors"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "steerkit" / "__init__.py").is_file():
        print(f"no steerkit sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    # the build: byte-compile once so that every timed set-up imports alike
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        print("byte-compiling src/ failed", file=sys.stderr)
        return 1

    env = _environment()
    work_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir.mkdir(parents=True, exist_ok=True)
    result_file = work_dir / "result.json"
    result_file.unlink(missing_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace),
              "--work-dir", str(work_dir)]

    setup = []
    for _ in range(SETUP_RUNS - 1):
        probe = Worker(common + ["--setup-only"], env, deadline)
        if probe.finish() != 0 or not probe.ready:
            print("set-up run failed", file=sys.stderr)
            return 1
        setup.append(probe.setup_s)
    worker = Worker(common + ["--out", str(result_file)], env, deadline)
    setup.append(worker.setup_s)
    if worker.finish() != 0 or not worker.ready or not result_file.is_file():
        print("workload run failed", file=sys.stderr)
        return 1
    result = json.loads(result_file.read_text(encoding="utf-8"))

    provenance = _provenance(args, result, setup)
    if args.trace == 0:
        summary = latency_summary(result["latencies"])
        provenance["latency"] = summary
        values = {
            "setup_s": statistics.median(setup),
            "throughput_ops_s": summary["samples"] / sum(result["latencies"]),
            "latency_p50_ms": summary["p50_ms"],
            "latency_tail_ms": summary["tail_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        values = dict(result["layers"])
        cli = result.get("cli", {"main_ms": 0.0, "startup_ms": 0.0, "stdout_bytes": 0.0})
        values.update({f"cli.{k}": v for k, v in cli.items()})
        values["cli.import_ms"] = _import_ms(env)
        values["trace.overhead_ratio"] = result["overhead_ratio"]
        provenance["spans_file"] = result["spans_file"]
        metrics = {k: {"value": values[k], "unit": layer_unit(k)} for k in sorted(values)}

    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
