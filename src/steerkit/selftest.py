"""Golden-value self-test exercised by the command-line `selftest` command.

Each check recomputes a closed-form or hand-derived number and compares it
against the implementation.  The same values are pinned independently in the
test suite; this module exists so an installed build can be checked without
the test tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import criteria, gaussian, qubits, scenarios
from .core import CriterionId, SitePartition, SteeringValue
from .gaussian import HomodynePlan
from .qubits import DetectionModel, PauliString


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _close(actual: float, expected: float, tol: float) -> None:
    if not math.isfinite(actual) or abs(actual - expected) > tol:
        raise AssertionError(f"expected {expected!r}, got {actual!r} (tol {tol})")


def _check_ghz_amplitudes() -> None:
    state = qubits.ghz(3)
    _close(state.amplitudes[0].real, 1.0 / math.sqrt(2.0), 1e-12)
    _close(state.amplitudes[7].real, -1.0 / math.sqrt(2.0), 1e-12)
    assert np.abs(state.amplitudes[1:7]).max() == 0.0


def _check_ghz_closed_forms() -> None:
    for n in range(2, qubits.MAX_QUBITS + 1):
        state = qubits.ghz(n)
        for component in ("x", "y"):
            target = PauliString.single(n, n, component.upper())
            predictor = qubits.ghz_predictor(n, component)
            var = qubits.variance_of_difference(state, target, predictor)
            if var > 1e-12:
                raise AssertionError(f"n={n} component={component}: variance {var}")
        partition = SitePartition(frozenset(range(1, n)), n)
        px, py = qubits.ghz_predictor(n, "x"), qubits.ghz_predictor(n, "y")
        noisy = qubits.depolarize_global(state, 0.9)
        _close(criteria.spin_two_obs(noisy, partition, px, py).value, 4 * (1 - 0.9), 1e-9)


def _check_expectations() -> None:
    state = qubits.ghz(3)
    _close(qubits.expectation(state, PauliString(("X", "Y", "Y"))), 1.0, 1e-12)
    _close(qubits.expectation(state, PauliString(("I", "I", "I"))), 1.0, 1e-12)
    _close(qubits.expectation(state, PauliString(("Z", "I", "I"))), 0.0, 1e-12)


def _check_depolarize() -> None:
    rho = qubits.depolarize_global(qubits.ghz(3), 0.5)
    _close(qubits.expectation(rho, PauliString(("X", "Y", "Y"))), 0.5, 1e-12)
    target = PauliString.single(3, 3, "X")
    predictor = PauliString.from_sites(3, {1: "Y", 2: "Y"})
    _close(qubits.variance_of_difference(rho, target, predictor), 1.0, 1e-12)


def _check_optimal_inference() -> None:
    state = qubits.ghz(3)
    target = PauliString.single(3, 3, "X")
    both = SitePartition(frozenset({1, 2}), 3)
    one = SitePartition(frozenset({2}), 3)
    _close(qubits.optimal_inference_variance(state, both, target, {1: "Y", 2: "Y"}), 0.0, 1e-12)
    _close(qubits.optimal_inference_variance(state, one, target, {2: "Y"}), 1.0, 1e-12)
    rho = qubits.depolarize_global(state, 0.5)
    _close(qubits.optimal_inference_variance(rho, both, target, {1: "Y", 2: "Y"}), 0.75, 1e-12)


def _check_loss_model() -> None:
    state = qubits.ghz(3)
    partition = SitePartition(frozenset({1, 2}), 3)
    target = PauliString.single(3, 3, "X")
    predictor = qubits.ghz_predictor(3, "x")
    for model, want in (
        (DetectionModel(1.0), 0.0),
        (DetectionModel(0.5), 0.5),
        (DetectionModel(0.5, "constant-guess", 1.0), 0.75),
    ):
        value = qubits.inference_variance_with_loss(state, partition, target, predictor, model)
        _close(value, want, 1e-12)


def _check_spin_criteria() -> None:
    state = qubits.ghz(3)
    partition = SitePartition(frozenset({1, 2}), 3)
    px = qubits.ghz_predictor(3, "x")
    py = qubits.ghz_predictor(3, "y")
    pz = qubits.ghz_z_predictor(3)
    for p, want in ((1.0, 0.0), (0.5, 2.0), (0.0, 4.0)):
        mixed = state if p == 1.0 else qubits.depolarize_global(state, p)
        _close(criteria.spin_two_obs(mixed, partition, px, py).value, want, 1e-12)
    _close(criteria.spin_three_obs(state, partition, px, py, pz).value, 0.0, 1e-12)
    lossy = criteria.spin_three_obs(state, partition, px, py, pz, DetectionModel(0.5))
    _close(lossy.value, 1.5, 1e-12)
    boundary = criteria.spin_three_obs(state, partition, px, py, pz, DetectionModel(1.0 / 3.0))
    _close(boundary.value, 2.0, 1e-12)
    assert not boundary.verdict


def _check_thresholds() -> None:
    result = scenarios.run_threshold_scenario("three-obs-eta")
    _close(result.critical, 1.0 / 3.0, 1e-4)
    result = scenarios.run_threshold_scenario("two-obs-eta")
    _close(result.critical, 0.5, 1e-4)
    result = scenarios.run_threshold_scenario("cv-genuine-r")
    _close(result.critical, math.log(3.0 * math.sqrt(6.0)) / 2.0, 1e-4)


def _check_genuine_sum() -> None:
    report = criteria.ghz3_genuine_report(qubits.ghz(3))
    _close(report.sum, 0.0, 1e-12)
    assert report.genuine
    noisy = criteria.ghz3_genuine_report(qubits.depolarize_global(qubits.ghz(3), 0.95))
    _close(noisy.sum, 0.6, 1e-10)
    assert noisy.genuine
    arithmetic = criteria.genuine_tripartite_aggregate([
        SteeringValue.of(CriterionId.SPIN_SUM_2OBS, SitePartition(others, t), 0.4)
        for t, others in ((1, frozenset({2, 3})), (2, frozenset({1, 3})), (3, frozenset({1, 2})))
    ])
    _close(arithmetic.sum, 1.2, 1e-12)
    assert not arithmetic.genuine


def _check_monogamy_boundary() -> None:
    s_ba = SteeringValue.of(CriterionId.CV_PRODUCT, SitePartition(frozenset({2}), 1), 0.5)
    s_bc = SteeringValue.of(CriterionId.CV_PRODUCT, SitePartition(frozenset({3}), 1), 2.0)
    result = criteria.monogamy_check(s_ba, s_bc)
    _close(result.product, 1.0, 1e-12)
    assert result.satisfied


def _check_vacuum_and_squeeze() -> None:
    assert np.array_equal(gaussian.vacuum(3).cov, np.eye(6))
    squeezed = gaussian.squeeze(gaussian.vacuum(1), 1, 0.5, 0.0)
    _close(squeezed.cov[0, 0], math.exp(-1.0), 1e-12)
    _close(squeezed.cov[1, 1], math.exp(1.0), 1e-12)
    rotated = gaussian.squeeze(gaussian.vacuum(1), 1, 0.5, math.pi / 2.0)
    _close(rotated.cov[1, 1], math.exp(-1.0), 1e-12)


def _check_beamsplitter_and_loss() -> None:
    state = gaussian.squeeze(gaussian.vacuum(2), 1, 1.0, 0.0)
    mixed = gaussian.beamsplitter(state, 1, 2, 0.5)
    _close(mixed.cov[0, 0], (math.exp(-2.0) + 1.0) / 2.0, 1e-12)
    lossy = gaussian.loss_channel(gaussian.squeeze(gaussian.vacuum(1), 1, 1.0, 0.0), 1, 0.5)
    _close(lossy.cov[0, 0], (math.exp(-2.0) + 1.0) / 2.0, 1e-12)
    identity = gaussian.beamsplitter(gaussian.vacuum(2), 1, 2, 0.5)
    assert np.abs(identity.cov - np.eye(4)).max() < 1e-12


def _check_cv_ghz_variances() -> None:
    for r in np.arange(0.0, 2.01, 0.25):
        state = gaussian.cv_ghz(float(r))
        diff = gaussian.quadrature_combo(3, x={1: 1.0, 2: -1.0})
        total = gaussian.quadrature_combo(3, p={1: 1.0, 2: 1.0, 3: 1.0})
        _close(gaussian.combo_variance(state, diff), 2.0 * math.exp(-2.0 * r), 1e-10)
        _close(gaussian.combo_variance(state, total), 3.0 * math.exp(-2.0 * r), 1e-10)


def _check_fixed_combo() -> None:
    _close(gaussian.fixed_combo_steering(gaussian.vacuum(3), 1, 2, 3).value, math.sqrt(6.0), 1e-12)
    for r in (0.25, 0.5, 1.0):
        value = gaussian.fixed_combo_steering(gaussian.cv_ghz(r), 1, 2, 3).value
        _close(value, math.sqrt(6.0) * math.exp(-2.0 * r), 1e-10)
    threshold = gaussian.fixed_combo_steering(gaussian.cv_ghz(math.log(6.0) / 4.0), 1, 2, 3)
    _close(threshold.value, 1.0, 1e-12)


def _check_conditional_variance() -> None:
    flat = gaussian.optimal_conditional_variance(
        gaussian.vacuum(3), gaussian.x_quadrature(3, 1), HomodynePlan.x_on(2, 3)
    )
    _close(flat, 1.0, 1e-12)
    squeezed = gaussian.squeeze(gaussian.vacuum(2), 1, 1.0, 0.0)
    two_mode = gaussian.beamsplitter(gaussian.squeeze(squeezed, 2, 1.0, math.pi / 2.0), 1, 2, 0.5)
    value = gaussian.optimal_conditional_variance(
        two_mode, gaussian.x_quadrature(2, 1), HomodynePlan.x_on(2)
    )
    _close(value, 1.0 / math.cosh(2.0), 1e-12)


def _check_steering_product() -> None:
    flat = gaussian.steering_product_cv(
        gaussian.vacuum(3), 1, HomodynePlan.x_on(2, 3), HomodynePlan.p_on(2, 3)
    )
    _close(flat.value, 1.0, 1e-12)
    assert not flat.verdict
    steered = gaussian.steering_product_cv(
        gaussian.cv_ghz(1.0), 1, HomodynePlan.x_on(2, 3), HomodynePlan.p_on(2, 3)
    )
    assert steered.verdict, f"expected steering, got value {steered.value}"


def _check_cv_genuine_sum() -> None:
    report = criteria.cv3_genuine_report(gaussian.cv_ghz(1.0))
    _close(report.sum, 3.0 * math.sqrt(6.0) * math.exp(-2.0), 1e-10)
    assert report.genuine


def _check_eavesdrop() -> None:
    for r in (0.5, 1.0, 1.5):
        record = scenarios.eavesdrop_sweep(r, [0.5])[0]
        if abs(record.accomplice_value - record.eavesdropper_value) > 1e-9:
            raise AssertionError("tap symmetry broken at eta=0.5")
        if record.accomplice_value < 1.0 - 1e-9:
            raise AssertionError("steering should be lost at eta=0.5")
    intact = scenarios.eavesdrop_sweep(1.5, [1.0])[0]
    assert intact.accomplice_verdict
    clean = gaussian.eavesdrop_scenario(1.2, 1.0)
    assert np.abs(clean.cov[6:, 6:] - np.eye(4)).max() < 1e-12
    assert np.abs(clean.cov[:6, :6] - gaussian.cv_ghz(1.2).cov).max() < 1e-12


def _check_collective() -> None:
    for backend in ("qubit", "cv"):
        report = scenarios.secret_sharing_demo(backend)
        assert report.all_collective, f"{backend} demonstration not collective"
        for scan in report.collective:
            for subset in scan.subsets:
                if subset.value < 1.0 - 1e-9:
                    raise AssertionError(
                        f"{backend}: subset {sorted(subset.partition.steering_group)} "
                        f"reached {subset.value}"
                    )
    idle = scenarios.secret_sharing_demo("cv", r=0.0)
    assert not idle.all_collective


CHECKS: tuple[tuple[str, Callable[[], None]], ...] = (
    ("ghz amplitudes", _check_ghz_amplitudes),
    (
        f"ghz predictors: zero variance, 4(1 - p) when depolarized, 2..{qubits.MAX_QUBITS} qubits",
        _check_ghz_closed_forms,
    ),
    ("pauli expectations on ghz(3)", _check_expectations),
    ("global depolarizing mixture", _check_depolarize),
    ("optimal inference variances", _check_optimal_inference),
    ("detection-loss closed forms", _check_loss_model),
    ("spin criteria closed forms", _check_spin_criteria),
    ("efficiency and squeezing thresholds", _check_thresholds),
    ("genuine tripartite sums", _check_genuine_sum),
    ("monogamy boundary product", _check_monogamy_boundary),
    ("vacuum and squeezers", _check_vacuum_and_squeeze),
    ("beamsplitters and loss", _check_beamsplitter_and_loss),
    ("cv ghz correlation variances", _check_cv_ghz_variances),
    ("fixed-combination criterion", _check_fixed_combo),
    ("optimal conditional variances", _check_conditional_variance),
    ("cv steering product", _check_steering_product),
    ("cv genuine tripartite sum", _check_cv_genuine_sum),
    ("eavesdropping symmetry", _check_eavesdrop),
    ("collective steering demonstrations", _check_collective),
)


def run_all() -> list[CheckResult]:
    results = []
    for name, check in CHECKS:
        try:
            check()
        except Exception as exc:
            results.append(CheckResult(name, False, str(exc)))
        else:
            results.append(CheckResult(name, True, ""))
    return results
