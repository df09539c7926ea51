"""One workload process: import steerkit, warm up, then run the deck.

Started by run.py, never by hand.  It prints ``READY`` on stdout once set-up
is done (run.py times set-up up to that line), then runs closed-loop: the
next operation starts only after the previous one returned and was checked.
The result goes to the JSON file named by ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import steerkit as sk
from steerkit import cli as sk_cli

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------------ operations

def _noisy(op: dict) -> dict:
    n = op["n"]
    if op["kind"] == "depolarized":
        state = sk.depolarize_global(sk.ghz(n), op["p"])
    else:
        state = sk.random_density_matrix(n, np.random.default_rng(op["seed"]), op["rank"])
    group = sk.SitePartition(frozenset(range(1, n)), n)
    px, py = sk.ghz_predictor(n, "x"), sk.ghz_predictor(n, "y")
    pz = sk.ghz_z_predictor(n)
    model = sk.DetectionModel(op["eta"], op["policy"], op["guess"])
    out = {
        "v2": sk.spin_two_obs(state, group, px, py).value,
        "v2m": sk.spin_two_obs(state, group, px, py, model).value,
        "v3": sk.spin_three_obs(state, group, px, py, pz).value,
        "v3m": sk.spin_three_obs(state, group, px, py, pz, model).value,
        "genuine": None,
        "monogamy": None,
    }
    if n == 3:
        report = sk.ghz3_genuine_report(state, model)
        out["genuine"] = {"sum": report.sum, "genuine": report.genuine,
                          "values": [v.value for v in report.values]}
    if op["kind"] == "random":
        singles = [
            sk.spin_two_obs(state, sk.SitePartition(frozenset({site}), n),
                            sk.PauliString.single(n, site, "X"),
                            sk.PauliString.single(n, site, "Y"))
            for site in (1, 2)
        ]
        result = sk.monogamy_check(*singles)
        out["monogamy"] = (singles[0].value, singles[1].value, result.product, result.satisfied)
    return out


def _scan(op: dict) -> dict:
    kind = op["kind"]
    if kind == "qubit-scan":
        n, target = op["n"], op["target"]
        report = sk.collective_scan(sk.ghz(n), target, [s for s in range(1, n + 1) if s != target])
        return {"value": report.full_group.value, "collective": report.collective,
                "n_subsets": len(report.subsets)}
    if kind == "cv-scan":
        state = sk.cv_ghz(op["r"])
        rest = sorted({1, 2, 3} - {op["target"]})
        report = sk.collective_scan(state, op["target"], rest, sk.CvScanConfig(op["n_angles"]))
        return {"value": report.full_group.value, "collective": report.collective,
                "cov": state.cov}
    report = sk.secret_sharing_demo(op["backend"], 3, op["r"])
    return {"products": [m.product for m in report.monogamy],
            "satisfied": [m.satisfied for m in report.monogamy]}


class CliRunner:
    """Runs CLI invocations as subprocesses and checks their stdout."""

    def __init__(self, env: dict):
        self.env = env
        self.seen: dict[tuple, bytes] = {}

    def run(self, op: dict) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "steerkit.cli", *op["argv"]],
                              capture_output=True, env=self.env, cwd=ROOT, check=False)

    def check(self, op: dict, proc: subprocess.CompletedProcess) -> None:
        if proc.returncode != 0:
            raise checks.CheckError(
                f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace')[-500:]}")
        key = tuple(op["argv"])
        if self.seen.setdefault(key, proc.stdout) != proc.stdout:
            raise checks.CheckError(f"stdout of {' '.join(key)} changed between identical runs")
        checks.check_cli(op, proc.stdout.decode())


def in_process_main(argv: list[str]) -> tuple[int, str]:
    """steerkit.cli.main with stdout and stderr captured."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = sk_cli.main(argv)
    return code, stdout.getvalue()


# ------------------------------------------------------------------------ loops

class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, op: dict, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{json.dumps(op, sort_keys=True, default=str)}: {message}")


def _timed(tally: Tally, latencies: list[float], op: dict, execute, check):
    """Run one operation, time it, and check its output outside the timing."""
    tally.attempted += 1
    try:
        start = time.perf_counter()
        out = execute(op)
        latencies.append(time.perf_counter() - start)
        check(op, out)
        return out
    except Exception as exc:  # every failure is counted and reported
        tally.fail(op, f"{type(exc).__name__}: {exc}")
        if not isinstance(exc, checks.CheckError):
            traceback.print_exc(file=sys.stderr)
        return None


def run_cycles(workload: str, seed: int, deck: list[dict], seconds: float, run_one,
               min_cycles: int = 1) -> int:
    """Whole cycles of the deck until `seconds` have passed and at least
    `min_cycles` have run; returns the number of operations run."""
    start = time.perf_counter()
    cycle = 0
    ran = 0
    while cycle < min_cycles or time.perf_counter() - start < seconds:
        for index in workloads.cycle_order(workload, seed, cycle, len(deck)):
            run_one(deck[index])
            ran += 1
        cycle += 1
    return ran


def _blas() -> dict:
    info = {"library": None, "version": None, "threads": None}
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = config.get("name"), config.get("version")
    except (TypeError, KeyError):
        pass
    try:
        import ctypes
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                function = getattr(lib, symbol, None)
                if function is not None:
                    function.restype = ctypes.c_int
                    info["threads"] = function()
                    return info
    except OSError:
        pass
    return info


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workload = args.workload

    if Path(sk.__file__).resolve().parent != ROOT / "src" / "steerkit":
        print(f"steerkit imported from {sk.__file__}, not from this checkout", file=sys.stderr)
        return 2

    deck = workloads.make_deck(workload, args.seed)
    warmup = dict(workloads.WARMUP[workload])
    cli = None
    if workload == "cli-corpus":
        workloads.write_sweep_configs(deck, args.work_dir)
        cli = CliRunner(dict(os.environ))
        execute, check = cli.run, cli.check
    elif workload == "noisy-qubit":
        execute, check = _noisy, checks.check_noisy
    else:
        execute, check = _scan, checks.check_scan

    tally = Tally()
    _timed(tally, [], warmup, execute, check)
    print("READY", flush=True)
    if args.setup_only:
        return 0 if tally.failed == 0 else 1

    latencies: list[float] = []
    result = {"blas": _blas()}
    if args.trace == 0:
        run_cycles(workload, args.seed, deck, args.seconds,
                   lambda op: _timed(tally, latencies, op, execute, check),
                   workloads.min_cycles(workload, deck))
    else:
        # each operation runs untraced and then traced, back to back, so
        # that both see the same machine state; half the time goes to each
        tracer = tracing.Tracer()
        traced: list[float] = []
        if cli is None:
            untraced = latencies

            def run_one(op):
                _timed(tally, latencies, op, execute, check)
                with tracer.installed(), tracer.span("op"):
                    _timed(tally, traced, op, execute, check)
        else:
            # the subprocess gives the process latency; main() in process,
            # untraced and then traced, gives the handler's share of it
            untraced, stdout_bytes = [], []

            def main_run(op):
                return in_process_main(op["argv"])

            def main_check(op, res):
                cli.check(op, subprocess.CompletedProcess(op["argv"], res[0], res[1].encode(), b""))

            def run_one(op):
                proc = _timed(tally, latencies, op, execute, check)
                stdout_bytes.append(len(proc.stdout) if proc else 0)
                _timed(tally, untraced, op, main_run, main_check)
                with tracer.installed(), tracer.span("cli.main"):
                    _timed(tally, traced, op, main_run, main_check)

        n_ops = run_cycles(workload, args.seed, deck, args.seconds / 2, run_one)
        if cli is not None:
            startup = [p - m for p, m in zip(latencies, untraced)]
            result["cli"] = {
                "main_ms": statistics.median(untraced) * 1e3,
                "startup_ms": statistics.median(startup) * 1e3,
                "stdout_bytes": statistics.fmean(stdout_bytes),
            }
        result["layers"] = tracing.layer_metrics(tracer.spans, n_ops)
        result["overhead_ratio"] = math.fsum(traced) / math.fsum(untraced)
        spans_file = args.work_dir / "spans.json"
        spans_file.write_text(json.dumps(tracer.spans, separators=(",", ":")), encoding="utf-8")
        result["spans_file"] = str(spans_file.relative_to(ROOT))

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    result.update({
        "latencies": latencies,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "deck_size": len(deck),
    })
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
