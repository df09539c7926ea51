"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import csv
import io
import json

import numpy as np
import pytest

import checks
import run
import tracing
import worker
import workloads


# ------------------------------------------------------------------ inputs

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    first = workloads.make_deck(workload, 7)
    assert json.dumps(first) == json.dumps(workloads.make_deck(workload, 7))
    assert json.dumps(first) != json.dumps(workloads.make_deck(workload, 8))
    assert workloads.cycle_order(workload, 7, 3, len(first)) == \
        workloads.cycle_order(workload, 7, 3, len(first))
    assert sorted(workloads.cycle_order(workload, 7, 3, len(first))) == list(range(len(first)))


def test_cli_corpus_covers_every_subcommand_in_both_formats():
    deck = workloads.make_deck("cli-corpus", 3)
    for cmd in ("ghz-qubit", "ghz-cv", "eavesdrop", "threshold", "sweep"):
        assert {op["format"] for op in deck if op["cmd"] == cmd} == {"json", "csv"}
    assert {op["scenario"] for op in deck if op["cmd"] == "sweep"} == set(workloads.SWEEP_GRIDS)
    assert {op["scenario"] for op in deck if op["cmd"] == "threshold"} == \
        set(workloads.THRESHOLD_SCENARIOS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_min_cycles_give_the_tail_its_own_class(workload):
    for seed in (1, 2, 3):
        deck = workloads.make_deck(workload, seed)
        per_cycle = sum(1 for op in deck if workloads.TAIL_CLASS[workload](op))
        cycles = workloads.min_cycles(workload, deck)
        assert per_cycle * cycles >= workloads.TAIL_BEYOND + 1 > per_cycle * (cycles - 1)


def test_run_cycles_runs_min_cycles_even_past_the_time():
    deck = workloads.make_deck("scan", 1)
    ran = worker.run_cycles("scan", 1, deck, 0.0, lambda op: None, min_cycles=3)
    assert ran == 3 * len(deck)


def test_random_states_are_seeded_per_operation():
    op = next(o for o in workloads.make_deck("noisy-qubit", 5) if o["kind"] == "random")
    assert worker._noisy(op) == worker._noisy(op)


# ------------------------------------------------------------ output checks

def _noisy_op(kind: str) -> dict:
    deck = workloads.make_deck("noisy-qubit", 11)
    op = next(o for o in deck if o["kind"] == kind and o["n"] == 3)
    return dict(op, eta=0.7, policy="constant-guess", guess=0.3)


@pytest.mark.parametrize("key", ["v2", "v2m", "v3", "v3m"])
def test_depolarized_check_rejects_perturbed_value(key):
    op = _noisy_op("depolarized")
    out = worker._noisy(op)
    checks.check_noisy(op, out)
    out[key] += 1e-7
    with pytest.raises(checks.CheckError):
        checks.check_noisy(op, out)


def test_depolarized_check_rejects_perturbed_genuine_sum():
    op = _noisy_op("depolarized")
    out = worker._noisy(op)
    out["genuine"]["sum"] += 1e-7
    with pytest.raises(checks.CheckError):
        checks.check_noisy(op, out)


@pytest.mark.parametrize("perturb", [
    lambda m: (m[0], m[1], m[2] * 1.001, m[3]),
    lambda m: (0.5, 1.9, 0.95, m[3]),
    lambda m: (m[0], m[1], m[2], False),
])
def test_random_state_check_rejects_broken_monogamy(perturb):
    op = _noisy_op("random")
    out = worker._noisy(op)
    checks.check_noisy(op, out)
    out["monogamy"] = perturb(out["monogamy"])
    with pytest.raises(checks.CheckError):
        checks.check_noisy(op, out)


def test_qubit_scan_check_rejects_perturbed_value():
    op = {"kind": "qubit-scan", "n": 3, "target": 2}
    out = worker._scan(op)
    checks.check_scan(op, out)
    for broken in ({"value": 1e-9}, {"collective": False}, {"n_subsets": 3}):
        with pytest.raises(checks.CheckError):
            checks.check_scan(op, {**out, **broken})


def test_cv_ghz_cov_closed_form_gives_the_ghz_variances():
    r = 0.8
    cov = checks.cv_ghz_cov(r)
    diff = np.array([1.0, 0, -1.0, 0, 0, 0])
    p_sum = np.array([0, 1.0, 0, 1.0, 0, 1.0])
    assert diff @ cov @ diff == pytest.approx(2 * np.exp(-2 * r), rel=1e-12)
    assert p_sum @ cov @ p_sum == pytest.approx(3 * np.exp(-2 * r), rel=1e-12)
    assert np.sqrt((diff @ cov @ diff) * (p_sum @ cov @ p_sum)) == \
        pytest.approx(checks.cv_fixed_combo(r), rel=1e-12)


def test_cv_scan_check_rejects_values_outside_floor_and_plan():
    op = {"kind": "cv-scan", "r": 0.8, "target": 2, "n_angles": 12}
    out = worker._scan(op)
    checks.check_scan(op, out)
    cov = checks.cv_ghz_cov(op["r"])
    floor = checks.schur_floor(cov, 2, [1, 3])
    plan = checks.homodyne_product(cov, 2, [1, 3])
    assert floor <= out["value"] <= plan + 1e-12
    for value in (floor * (1 - 1e-6), plan * (1 + 1e-6)):
        with pytest.raises(checks.CheckError):
            checks.check_scan(op, {**out, "value": value})


def test_cv_scan_check_rejects_a_wrong_covariance():
    op = {"kind": "cv-scan", "r": 0.8, "target": 2, "n_angles": 12}
    out = worker._scan(op)
    cov = np.array(out["cov"])
    cov[0, 2] += 1e-6
    cov[2, 0] += 1e-6
    with pytest.raises(checks.CheckError):
        checks.check_scan(op, {**out, "cov": cov})


def test_secret_sharing_check_rejects_product_below_one():
    op = {"kind": "secret-sharing", "backend": "qubit", "r": 1.0}
    out = worker._scan(op)
    checks.check_scan(op, out)
    with pytest.raises(checks.CheckError):
        checks.check_scan(op, {**out, "products": [0.99] + out["products"][1:]})


def _perturb(text: str, fmt: str, field: str, delta: float) -> str:
    """Shift `field` of the first record that has it."""
    if fmt == "json":
        lines = [json.loads(line) for line in text.splitlines()]
        record = next(r for r in lines if field in r)
        record[field] += delta
        return "".join(json.dumps(r) + "\n" for r in lines)
    rows = list(csv.DictReader(io.StringIO(text)))
    record = next(r for r in rows if r.get(field))
    record[field] = repr(float(record[field]) + delta)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


_FIELD = {"ghz-qubit": "value", "ghz-cv": "value", "eavesdrop": "eavesdropper_value",
          "threshold": "critical", "sweep": "value"}


@pytest.fixture(scope="module")
def cli_deck(tmp_path_factory):
    deck = workloads.make_deck("cli-corpus", 2)
    workloads.write_sweep_configs(deck, tmp_path_factory.mktemp("sweeps"))
    return deck, worker.CliRunner({})


def test_cli_checks_accept_real_output_and_reject_perturbed(cli_deck):
    deck, runner = cli_deck
    for op in deck:
        code, text = worker.in_process_main(op["argv"])
        assert code == 0
        checks.check_cli(op, text)
        delta = 2e-4 if op["cmd"] == "threshold" else 1e-7
        with pytest.raises(checks.CheckError):
            checks.check_cli(op, _perturb(text, op["format"], _FIELD[op["cmd"]], delta))


def test_cli_check_rejects_changed_stdout_between_identical_runs(cli_deck):
    deck, runner = cli_deck
    op = copy.deepcopy(next(o for o in deck if o["cmd"] == "ghz-cv"))
    code, text = worker.in_process_main(op["argv"])
    runner.check(op, worker.subprocess.CompletedProcess(op["argv"], code, text.encode(), b""))
    changed = text.replace('"record"', '"record" ', 1).encode()
    with pytest.raises(checks.CheckError):
        runner.check(op, worker.subprocess.CompletedProcess(op["argv"], code, changed, b""))


def test_cli_check_rejects_non_zero_exit(cli_deck):
    deck, runner = cli_deck
    op = deck[0]
    with pytest.raises(checks.CheckError):
        runner.check(op, worker.subprocess.CompletedProcess(op["argv"], 2, b"", b"usage"))


# ------------------------------------------------------------------ tracing

def _span(name, start, end, parent=None, extra=None):
    return (name, start, end, parent, extra)


def test_self_time_on_synthetic_span_tree():
    spans = [
        _span("root", 0, 100),
        _span("a", 10, 40, 0),
        _span("a.child", 15, 20, 1),
        _span("b", 50, 70, 0),
        _span("b.overlap1", 52, 60, 3),
        _span("b.overlap2", 58, 64, 3),
    ]
    assert tracing.self_times(spans) == [50, 25, 5, 8, 8, 6]


def test_layer_metrics_count_nested_calls_of_one_group_once_for_busy_time():
    spans = [
        _span("op", 0, 10_000_000),
        _span("criteria.collective_scan", 1_000_000, 9_000_000, 0),
        _span("qubits.inference_variance", 2_000_000, 3_000_000, 1),
        _span("qubits.inference_variance", 4_000_000, 6_000_000, 1),
        _span("qubits.state_build", 0, 4_000_000, 0, 128),
        _span("qubits.state_build", 1_000_000, 2_000_000, 4, 64),
        _span("scenarios.threshold", 0, 1, 0, 14),
        _span("scenarios.threshold", 1, 2, 0, 16),
    ]
    metrics = tracing.layer_metrics(spans, n_ops=2)
    assert metrics["criteria.collective_scan.calls"] == 0.5
    assert metrics["criteria.collective_scan.busy_ms"] == 4.0
    assert metrics["criteria.collective_scan.self_ms"] == 2.5
    assert metrics["criteria.settings_tried"] == 1.0
    assert metrics["qubits.inference_variance.busy_ms"] == 1.5
    assert metrics["qubits.state_build.calls"] == 1.0
    assert metrics["qubits.state_build.busy_ms"] == 2.0
    assert metrics["qubits.state_bytes"] == 128
    assert metrics["scenarios.bisection_steps"] == 15


def test_tracer_wraps_every_namespace_and_restores():
    import steerkit
    from steerkit import criteria, scenarios

    original = criteria.collective_scan
    tracer = tracing.Tracer()
    with tracer.installed():
        assert scenarios.collective_scan is not original
        assert steerkit.collective_scan is scenarios.collective_scan
        steerkit.secret_sharing_demo("qubit")
    assert scenarios.collective_scan is original and steerkit.collective_scan is original
    names = [s[0] for s in tracer.spans]
    assert names.count("scenarios.secret_sharing") == 1
    assert names.count("criteria.collective_scan") == 3
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["criteria.settings_tried"] == metrics["qubits.inference_variance.calls"] > 0


def test_latency_summary_tail_has_ten_samples_beyond():
    summary = run.latency_summary([i / 1000 for i in range(1, 101)])
    assert summary["tail_percentile"] == 90.0
    assert summary["tail_ms"] == pytest.approx(90.0)
    assert summary["p50_ms"] == pytest.approx(50.5)
    assert sum(1 for i in range(1, 101) if i > 90) == summary["tail_samples_beyond"]
