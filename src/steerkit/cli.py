"""Command-line interface emitting JSON-lines or CSV reports.

Exit codes: 0 = ran (whatever the physical verdict), 1 = internal error,
2 = usage error.  Verdicts live in the report, not in the exit code.
Identical invocations produce byte-identical stdout; the wall time goes to
stderr as a comment line.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from typing import Sequence

from . import __version__, criteria, gaussian, qubits, scenarios
from .core import SitePartition
from .gaussian import HomodynePlan
from .qubits import DetectionModel


class UsageError(ValueError):
    """Invalid flag combination or malformed flag value."""


_CSV_COLUMNS = {
    "ghz-qubit": ["record", "criterion", "target", "group", "value", "bound", "verdict", "sum", "genuine"],
    "ghz-cv": ["record", "criterion", "target", "group", "value", "bound", "verdict", "sum", "genuine"],
    "eavesdrop": [
        "record",
        "eta",
        "accomplice_value",
        "eavesdropper_value",
        "monogamy_product",
        "accomplice_verdict",
        "eavesdropper_verdict",
    ],
    "threshold": ["record", "parameter", "critical", "bracket_low", "bracket_high", "iterations"],
    "sweep": ["record", "scenario", "parameter", "param_value", "value", "bound", "verdict"],
}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (list, tuple)):
        return "+".join(str(v) for v in value)
    return str(value)


def _emit(command: str, parameters: dict, records: list[dict], fmt: str, stream) -> None:
    if fmt == "json":
        header = {
            "record": "header",
            "tool_version": __version__,
            "scenario": command,
            "parameters": parameters,
        }
        print(json.dumps(header, sort_keys=True, separators=(",", ":")), file=stream)
        for record in records:
            print(json.dumps(record, sort_keys=True, separators=(",", ":")), file=stream)
    else:
        columns = _CSV_COLUMNS[command]
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        for record in records:
            writer.writerow([_csv_cell(record.get(c)) for c in columns])


# An eavesdrop grid point costs about 0.15 ms, so the largest grid runs ~1.5 s.
MAX_GRID_POINTS = 10_000


def _parse_eta_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must look like start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"grid values must be numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise UsageError(f"grid values must be finite, got {text!r}")
    if step <= 0.0:
        raise UsageError(f"grid step must be positive, got {step}")
    if stop < start:
        raise UsageError(f"grid must increase, got start {start} > stop {stop}")
    if start < 0.0 or stop > 1.0:
        raise UsageError(f"efficiencies must lie in [0, 1], got {text!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    if count > MAX_GRID_POINTS:
        raise UsageError(f"grid has {count} points, more than {MAX_GRID_POINTS}; coarsen the step")
    # rounding can carry the last point past stop
    return tuple(min(start + k * step, stop) for k in range(count))


def _detection_model(args) -> DetectionModel:
    guess = args.guess if args.policy == "constant-guess" else None
    try:
        return DetectionModel(args.eta, args.policy, guess)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_ghz_qubit(args) -> tuple[list[dict], dict]:
    if not 2 <= args.n <= qubits.MAX_QUBITS:
        raise UsageError(f"--n must lie in 2..{qubits.MAX_QUBITS}, got {args.n}")
    if not 0.0 <= args.noise_p <= 1.0:
        raise UsageError(f"--noise-p must lie in [0, 1], got {args.noise_p}")
    model = _detection_model(args)
    state: qubits.State = qubits.ghz(args.n)
    if args.noise_p < 1.0:
        state = qubits.depolarize_global(state, args.noise_p)
    parameters = {
        "n": args.n,
        "noise_p": args.noise_p,
        "eta": args.eta,
        "policy": args.policy,
        "criterion": args.criterion,
        "seed": args.seed,
    }
    if args.criterion == "genuine-sum":
        if args.n != 3:
            raise UsageError("--criterion genuine-sum needs --n 3")
        report = criteria.ghz3_genuine_report(state, model)
        records = [v.to_dict() for v in report.values]
        records.append(report.to_dict())
        return records, parameters
    partition = SitePartition(frozenset(range(1, args.n)), args.n)
    px = qubits.ghz_predictor(args.n, "x")
    py = qubits.ghz_predictor(args.n, "y")
    if args.criterion == "two-obs":
        value = criteria.spin_two_obs(state, partition, px, py, model)
    else:
        pz = qubits.ghz_z_predictor(args.n)
        value = criteria.spin_three_obs(state, partition, px, py, pz, model)
    return [value.to_dict()], parameters


def _check_squeezing(r: float) -> None:
    if not (math.isfinite(r) and r >= 0.0):
        raise UsageError(f"--r must be finite and non-negative, got {r}")
    if r > gaussian.MAX_GHZ_SQUEEZING:
        limit = gaussian.MAX_GHZ_SQUEEZING
        raise UsageError(f"--r must not exceed MAX_GHZ_SQUEEZING = {limit}, got {r}")


def _cmd_ghz_cv(args) -> tuple[list[dict], dict]:
    _check_squeezing(args.r)
    if not 1 <= args.target <= 3:
        raise UsageError(f"--target must lie in 1..3, got {args.target}")
    state = gaussian.cv_ghz(args.r)
    parameters = {
        "r": args.r,
        "target": args.target,
        "criterion": args.criterion,
        "seed": args.seed,
    }
    others = sorted({1, 2, 3} - {args.target})
    if args.criterion == "product":
        value = gaussian.steering_product_cv(
            state, args.target, HomodynePlan.x_on(*others), HomodynePlan.p_on(*others)
        )
        records = [value.to_dict()]
    elif args.criterion == "fixed-combo":
        value = gaussian.fixed_combo_steering(state, args.target, *others)
        records = [value.to_dict()]
    else:
        report = criteria.cv3_genuine_report(state)
        records = [v.to_dict() for v in report.values]
        records.append(report.to_dict())
    return records, parameters


def _cmd_eavesdrop(args) -> tuple[list[dict], dict]:
    _check_squeezing(args.r)
    grid = _parse_eta_grid(args.eta_grid)
    records = [record.to_dict() for record in scenarios.eavesdrop_sweep(args.r, grid)]
    parameters = {"r": args.r, "eta_grid": args.eta_grid, "seed": args.seed}
    return records, parameters


def _cmd_threshold(args) -> tuple[list[dict], dict]:
    try:
        result = scenarios.run_threshold_scenario(args.scenario)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    parameters = {"scenario": args.scenario, "seed": args.seed}
    return [result.to_dict()], parameters


def _cmd_sweep(args) -> tuple[list[dict], dict]:
    try:
        with open(args.config, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    if args.seed is not None:
        raw["seed"] = args.seed
    try:
        config = scenarios.SweepConfig(**raw)
        records = list(scenarios.run_sweep(config))
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    parameters = {
        "backend": config.backend,
        "scenario": config.scenario,
        "parameter": config.parameter,
        "grid": list(config.grid),
        "seed": config.seed,
    }
    return records, parameters


def _run_selftest(stream) -> int:
    from . import selftest

    results = selftest.run_all()
    failures = 0
    for result in results:
        if result.passed:
            print(f"PASS {result.name}", file=stream)
        else:
            failures += 1
            print(f"FAIL {result.name}: {result.detail}", file=stream)
    print(f"{len(results) - failures}/{len(results)} checks passed", file=stream)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerkit",
        description="Evaluate multipartite steering criteria on GHZ-type resources.",
    )
    parser.add_argument("--version", action="version", version=f"steerkit {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub, default_format="json", default_seed=0, seed_help="recorded in the report"):
        sub.add_argument("--seed", type=int, default=default_seed, help=seed_help)
        group = sub.add_mutually_exclusive_group()
        group.add_argument(
            "--json", dest="format", action="store_const", const="json",
            help="JSON lines output (one record per line)",
        )
        group.add_argument(
            "--csv", dest="format", action="store_const", const="csv",
            help="CSV output with a fixed header row",
        )
        sub.set_defaults(format=default_format)

    ghz_qubit = subparsers.add_parser("ghz-qubit", help="spin criteria on the qubit GHZ state")
    ghz_qubit.add_argument("--n", type=int, default=3)
    ghz_qubit.add_argument("--noise-p", type=float, default=1.0, dest="noise_p",
                           help="weight of the state in a global depolarizing mixture")
    ghz_qubit.add_argument("--eta", type=float, default=1.0,
                           help="collective detection efficiency of the steering group")
    ghz_qubit.add_argument("--policy", choices=["marginal-mean", "constant-guess"],
                           default="marginal-mean")
    ghz_qubit.add_argument("--guess", type=float, default=None,
                           help="fallback value for the constant-guess policy")
    ghz_qubit.add_argument("--criterion", choices=["two-obs", "three-obs", "genuine-sum"],
                           default="two-obs")
    add_common(ghz_qubit)
    ghz_qubit.set_defaults(handler=_cmd_ghz_qubit)

    ghz_cv = subparsers.add_parser("ghz-cv", help="quadrature criteria on the CV GHZ resource")
    ghz_cv.add_argument("--r", type=float, default=1.0, help="squeezing strength")
    ghz_cv.add_argument("--target", type=int, default=1)
    ghz_cv.add_argument("--criterion", choices=["product", "fixed-combo", "genuine-sum"],
                        default="fixed-combo")
    add_common(ghz_cv)
    ghz_cv.set_defaults(handler=_cmd_ghz_cv)

    eavesdrop = subparsers.add_parser("eavesdrop", help="tap modes 2 and 3 and sweep the tap efficiency")
    eavesdrop.add_argument("--r", type=float, default=1.5, help="squeezing strength")
    eavesdrop.add_argument("--eta-grid", default="0:1:0.1", dest="eta_grid",
                           help="start:stop:step, increasing")
    add_common(eavesdrop)
    eavesdrop.set_defaults(handler=_cmd_eavesdrop)

    threshold = subparsers.add_parser("threshold", help="bisect a named scenario's verdict flip")
    threshold.add_argument("--scenario", required=True,
                           choices=sorted(scenarios.THRESHOLD_SCENARIOS))
    add_common(threshold)
    threshold.set_defaults(handler=_cmd_threshold)

    sweep = subparsers.add_parser("sweep", help="evaluate a sweep config file over its grid")
    sweep.add_argument("--config", required=True, help="JSON file with a sweep configuration")
    add_common(sweep, default_format="csv", default_seed=None, seed_help="override the config seed")
    sweep.set_defaults(handler=_cmd_sweep)

    subparsers.add_parser("selftest", help="run the built-in golden-value checks")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "selftest":
        return _run_selftest(sys.stdout)
    start = time.perf_counter()
    try:
        records, parameters = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    wall_time = time.perf_counter() - start
    _emit(args.command, parameters, records, args.format, sys.stdout)
    print(f"# wall_time_s={wall_time:.6f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
