"""Golden-value self-test exercised by the command-line `selftest` command.

Each check recomputes closed-form or hand-derived numbers and yields them as
(actual, expected, tolerance) comparisons against the implementation; a fact
is a comparison with an expected bool, matched exactly.  The same values are
pinned independently in the test suite; this module exists so an installed
build can be checked without the test tree.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from . import criteria, gaussian, qubits, scenarios
from .core import STEERED_BY_COMPLEMENT, CriterionId, SitePartition, SteeringValue
from .gaussian import HomodynePlan
from .qubits import DetectionModel, PauliString

Comparisons = Iterator[tuple[object, object, float]]


def _check_ghz_amplitudes() -> Comparisons:
    state = qubits.ghz(3)
    yield state.amplitudes[0].real, 1.0 / math.sqrt(2.0), 1e-12
    yield state.amplitudes[7].real, -1.0 / math.sqrt(2.0), 1e-12
    yield np.abs(state.amplitudes[1:7]).max(), 0.0, 0.0


def _check_ghz_closed_forms() -> Comparisons:
    for n in range(2, qubits.MAX_QUBITS + 1):
        state = qubits.ghz(n)
        px, py = qubits.ghz_predictor(n, "x"), qubits.ghz_predictor(n, "y")
        for label, predictor in (("X", px), ("Y", py)):
            target = PauliString.single(n, n, label)
            yield qubits.variance_of_difference(state, target, predictor), 0.0, 1e-12
        partition = SitePartition(frozenset(range(1, n)), n)
        noisy = qubits.depolarize_global(state, 0.9)
        yield criteria.spin_two_obs(noisy, partition, px, py).value, 4 * (1 - 0.9), 1e-9


def _check_expectations() -> Comparisons:
    state = qubits.ghz(3)
    for labels, want in (("XYY", 1.0), ("III", 1.0), ("ZII", 0.0)):
        yield qubits.expectation(state, PauliString(tuple(labels))), want, 1e-12


def _check_depolarize() -> Comparisons:
    rho = qubits.depolarize_global(qubits.ghz(3), 0.5)
    yield qubits.expectation(rho, PauliString(("X", "Y", "Y"))), 0.5, 1e-12
    target = PauliString.single(3, 3, "X")
    predictor = PauliString.from_sites(3, {1: "Y", 2: "Y"})
    yield qubits.variance_of_difference(rho, target, predictor), 1.0, 1e-12


def _check_optimal_inference() -> Comparisons:
    state = qubits.ghz(3)
    target = PauliString.single(3, 3, "X")
    both = SitePartition(frozenset({1, 2}), 3)
    one = SitePartition(frozenset({2}), 3)
    yield qubits.optimal_inference_variance(state, both, target, {1: "Y", 2: "Y"}), 0.0, 1e-12
    yield qubits.optimal_inference_variance(state, one, target, {2: "Y"}), 1.0, 1e-12
    rho = qubits.depolarize_global(state, 0.5)
    yield qubits.optimal_inference_variance(rho, both, target, {1: "Y", 2: "Y"}), 0.75, 1e-12


def _check_loss_model() -> Comparisons:
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
        yield value, want, 1e-12


def _check_spin_criteria() -> Comparisons:
    state = qubits.ghz(3)
    partition = SitePartition(frozenset({1, 2}), 3)
    px = qubits.ghz_predictor(3, "x")
    py = qubits.ghz_predictor(3, "y")
    pz = qubits.ghz_z_predictor(3)
    for p, want in ((1.0, 0.0), (0.5, 2.0), (0.0, 4.0)):
        mixed = state if p == 1.0 else qubits.depolarize_global(state, p)
        yield criteria.spin_two_obs(mixed, partition, px, py).value, want, 1e-12
    for model, want in ((None, 0.0), (DetectionModel(0.5), 1.5), (DetectionModel(1.0 / 3.0), 2.0)):
        three = criteria.spin_three_obs(state, partition, px, py, pz, model)
        yield three.value, want, 1e-12
        yield three.verdict, want != 2.0, 0  # efficiency 1/3 sits on the bound: no steering


def _check_thresholds() -> Comparisons:
    r_genuine = math.log(3.0 * math.sqrt(6.0)) / 2.0
    cases = (("three-obs-eta", 1.0 / 3.0), ("two-obs-eta", 0.5), ("cv-genuine-r", r_genuine))
    for name, want in cases:
        yield scenarios.run_threshold_scenario(name).critical, want, 1e-4


def _check_genuine_sum() -> Comparisons:
    noisy = qubits.depolarize_global(qubits.ghz(3), 0.95)
    for state, want, tol in ((qubits.ghz(3), 0.0, 1e-12), (noisy, 0.6, 1e-10)):
        report = criteria.ghz3_genuine_report(state)
        yield report.sum, want, tol
        yield report.genuine, True, 0
    arithmetic = criteria.genuine_tripartite_aggregate([
        SteeringValue.of(CriterionId.SPIN_SUM_2OBS, part, 0.4) for part in STEERED_BY_COMPLEMENT
    ])
    yield arithmetic.sum, 1.2, 1e-12
    yield arithmetic.genuine, False, 0


def _check_monogamy_boundary() -> Comparisons:
    s_ba = SteeringValue.of(CriterionId.CV_PRODUCT, SitePartition(frozenset({2}), 1), 0.5)
    s_bc = SteeringValue.of(CriterionId.CV_PRODUCT, SitePartition(frozenset({3}), 1), 2.0)
    result = criteria.monogamy_check(s_ba, s_bc)
    yield result.product, 1.0, 1e-12
    yield result.satisfied, True, 0


def _check_vacuum_and_squeeze() -> Comparisons:
    yield np.array_equal(gaussian.vacuum(3).cov, np.eye(6)), True, 0
    for phi, entry, power in ((0.0, 0, -1.0), (0.0, 1, 1.0), (math.pi / 2.0, 1, -1.0)):
        squeezed = gaussian.squeeze(gaussian.vacuum(1), 1, 0.5, phi)
        yield squeezed.cov[entry, entry], math.exp(power), 1e-12


def _check_beamsplitter_and_loss() -> Comparisons:
    state = gaussian.squeeze(gaussian.vacuum(2), 1, 1.0, 0.0)
    mixed = gaussian.beamsplitter(state, 1, 2, 0.5)
    yield mixed.cov[0, 0], (math.exp(-2.0) + 1.0) / 2.0, 1e-12
    lossy = gaussian.loss_channel(gaussian.squeeze(gaussian.vacuum(1), 1, 1.0, 0.0), 1, 0.5)
    yield lossy.cov[0, 0], (math.exp(-2.0) + 1.0) / 2.0, 1e-12
    identity = gaussian.beamsplitter(gaussian.vacuum(2), 1, 2, 0.5)
    yield np.abs(identity.cov - np.eye(4)).max() < 1e-12, True, 0


def _check_cv_ghz_variances() -> Comparisons:
    for r in np.arange(0.0, 2.01, 0.25):
        state = gaussian.cv_ghz(float(r))
        diff = gaussian.quadrature_combo(3, x={1: 1.0, 2: -1.0})
        total = gaussian.quadrature_combo(3, p={1: 1.0, 2: 1.0, 3: 1.0})
        yield gaussian.combo_variance(state, diff), 2.0 * math.exp(-2.0 * r), 1e-10
        yield gaussian.combo_variance(state, total), 3.0 * math.exp(-2.0 * r), 1e-10


def _check_fixed_combo() -> Comparisons:
    yield gaussian.fixed_combo_steering(gaussian.vacuum(3), 1, 2, 3).value, math.sqrt(6.0), 1e-12
    for r in (0.25, 0.5, 1.0):
        value = gaussian.fixed_combo_steering(gaussian.cv_ghz(r), 1, 2, 3).value
        yield value, math.sqrt(6.0) * math.exp(-2.0 * r), 1e-10
    threshold = gaussian.fixed_combo_steering(gaussian.cv_ghz(math.log(6.0) / 4.0), 1, 2, 3)
    yield threshold.value, 1.0, 1e-12


def _check_conditional_variance() -> Comparisons:
    flat = gaussian.optimal_conditional_variance(
        gaussian.vacuum(3), gaussian.x_quadrature(3, 1), HomodynePlan.x_on(2, 3)
    )
    yield flat, 1.0, 1e-12
    squeezed = gaussian.squeeze(gaussian.vacuum(2), 1, 1.0, 0.0)
    two_mode = gaussian.beamsplitter(gaussian.squeeze(squeezed, 2, 1.0, math.pi / 2.0), 1, 2, 0.5)
    value = gaussian.optimal_conditional_variance(
        two_mode, gaussian.x_quadrature(2, 1), HomodynePlan.x_on(2)
    )
    yield value, 1.0 / math.cosh(2.0), 1e-12


def _check_steering_product() -> Comparisons:
    plans = HomodynePlan.x_on(2, 3), HomodynePlan.p_on(2, 3)
    flat = gaussian.steering_product_cv(gaussian.vacuum(3), 1, *plans)
    yield flat.value, 1.0, 1e-12
    yield flat.verdict, False, 0
    yield gaussian.steering_product_cv(gaussian.cv_ghz(1.0), 1, *plans).verdict, True, 0


def _check_cv_genuine_sum() -> Comparisons:
    report = criteria.cv3_genuine_report(gaussian.cv_ghz(1.0))
    yield report.sum, 3.0 * math.sqrt(6.0) * math.exp(-2.0), 1e-10
    yield report.genuine, True, 0


def _check_eavesdrop() -> Comparisons:
    for r in (0.5, 1.0, 1.5):
        record = scenarios.eavesdrop_sweep(r, [0.5])[0]
        # the taps are as good as the partners, and neither steers
        yield record.accomplice_value, record.eavesdropper_value, 1e-9
        yield record.accomplice_verdict or record.eavesdropper_verdict, False, 0
    intact = scenarios.eavesdrop_sweep(1.5, [1.0])[0]
    yield intact.accomplice_verdict, True, 0
    clean = gaussian.eavesdrop_scenario(1.2, 1.0)
    yield np.abs(clean.cov[6:, 6:] - np.eye(4)).max() < 1e-12, True, 0
    yield np.abs(clean.cov[:6, :6] - gaussian.cv_ghz(1.2).cov).max() < 1e-12, True, 0


def _check_collective() -> Comparisons:
    for backend in ("qubit", "cv"):
        report = scenarios.secret_sharing_demo(backend)
        yield report.all_collective, True, 0
        for subset in (v for scan in report.collective for v in scan.subsets):
            yield subset.verdict, False, 0
    yield scenarios.secret_sharing_demo("cv", r=0.0).all_collective, False, 0


CHECKS: tuple[tuple[str, Callable[[], Comparisons]], ...] = (
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


def _missed(actual, expected, tol: float) -> bool:
    # numpy bools cannot be subtracted, so facts compare exactly
    if isinstance(expected, bool):
        return actual != expected
    return not abs(actual - expected) <= tol


def run_all() -> int:
    """Print PASS or FAIL for every check, then the tally, to stdout, and
    return the exit code.  A check fails at its first missed comparison or
    on an exception."""
    failures = 0
    for name, check in CHECKS:
        try:
            misses = (
                f"expected {e!r}, got {a!r} (tol {t})" for a, e, t in check() if _missed(a, e, t)
            )
            detail = next(misses, "")
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
        failures += bool(detail)
        print(f"FAIL {name}: {detail}" if detail else f"PASS {name}")
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 1 if failures else 0
