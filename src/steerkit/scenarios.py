"""End-to-end demonstrations: secret sharing, eavesdropping sweeps,
threshold searches, and finite-shot experiment emulation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import criteria, gaussian, qubits
from .core import STEERED_BY_COMPLEMENT, CriterionId, SitePartition, as_integer
from .criteria import (
    CollectiveSteeringReport,
    MonogamyResult,
    collective_scan,
    cv3_genuine_report,
    ghz3_genuine_report,
    monogamy_check,
    spin_three_obs,
    spin_two_obs,
)
from .gaussian import GaussianState, HomodynePlan, QuadratureCombo
from .qubits import DetectionModel, PauliString

THRESHOLD_TOLERANCE = 1e-4


class ThresholdNotFoundError(ValueError):
    """The predicate does not flip across the given bracket."""


@dataclass(frozen=True)
class ThresholdResult:
    """Critical parameter value located by bisection."""

    parameter: str
    critical: float
    bracket: tuple[float, float]
    iterations: int

    def __post_init__(self) -> None:
        low, high = self.bracket
        object.__setattr__(self, "bracket", (float(low), float(high)))
        if not low <= self.critical <= high:
            raise ValueError("critical value must lie inside the bracket")
        if high - low > THRESHOLD_TOLERANCE * (1.0 + 1e-9):
            raise ValueError(f"bracket wider than {THRESHOLD_TOLERANCE}")

    def to_dict(self) -> dict:
        return {
            "record": "threshold",
            "parameter": self.parameter,
            "critical": self.critical,
            "bracket_low": self.bracket[0],
            "bracket_high": self.bracket[1],
            "iterations": self.iterations,
        }


def find_threshold(
    predicate: Callable[[float], bool],
    bracket: tuple[float, float],
    parameter: str = "parameter",
    tolerance: float = THRESHOLD_TOLERANCE,
    max_iterations: int = 200,
) -> ThresholdResult:
    """Bisect a monotone boolean predicate down to the tolerance.

    The predicate must differ at the two bracket ends; monotonicity inside
    the bracket is the caller's promise.
    """
    low, high = float(bracket[0]), float(bracket[1])
    if not low < high:
        raise ValueError(f"bracket must satisfy low < high, got {bracket}")
    if not 0.0 < tolerance <= THRESHOLD_TOLERANCE:
        raise ValueError(f"tolerance must lie in (0, {THRESHOLD_TOLERANCE}]")
    at_low = bool(predicate(low))
    at_high = bool(predicate(high))
    if at_low == at_high:
        raise ThresholdNotFoundError(
            f"predicate is {at_low} at both ends of {bracket}; no flip to find"
        )
    iterations = 0
    while high - low > tolerance and iterations < max_iterations:
        mid = 0.5 * (low + high)
        iterations += 1
        if bool(predicate(mid)) == at_low:
            low = mid
        else:
            high = mid
    return ThresholdResult(parameter, 0.5 * (low + high), (low, high), iterations)


def _ghz3_canonical() -> tuple[qubits.PureState, SitePartition, PauliString, PauliString, PauliString]:
    state = qubits.ghz(3)
    partition = SitePartition(frozenset({1, 2}), 3)
    return (
        state,
        partition,
        qubits.ghz_predictor(3, "x"),
        qubits.ghz_predictor(3, "y"),
        qubits.ghz_z_predictor(3),
    )


@dataclass(frozen=True)
class Scenario:
    backend: str
    parameter: str
    criterion: str
    evaluate: Callable[[float], tuple[float, float, bool]]


def _noise_genuine_sum(p: float) -> tuple[float, float, bool]:
    state = qubits.depolarize_global(qubits.ghz(3), p)
    report = ghz3_genuine_report(state)
    return report.sum, 1.0, report.genuine


def _cv_genuine_sum(r: float) -> tuple[float, float, bool]:
    report = cv3_genuine_report(gaussian.cv_ghz(r))
    return report.sum, 1.0, report.genuine


def _cv_fixed_combo(r: float) -> tuple[float, float, bool]:
    value = gaussian.fixed_combo_steering(gaussian.cv_ghz(r), 1, 2, 3)
    return value.value, value.bound, value.verdict


def _three_obs_eta(eta: float) -> tuple[float, float, bool]:
    state, partition, px, py, pz = _ghz3_canonical()
    value = spin_three_obs(state, partition, px, py, pz, DetectionModel(eta))
    return value.value, value.bound, value.verdict


def _two_obs_eta(eta: float) -> tuple[float, float, bool]:
    state, partition, px, py, _ = _ghz3_canonical()
    value = spin_two_obs(state, partition, px, py, DetectionModel(eta))
    return value.value, value.bound, value.verdict


SCENARIOS: dict[str, Scenario] = {
    "noise-genuine-sum": Scenario(
        "qubit", "p", CriterionId.SPIN_SUM_2OBS.value, _noise_genuine_sum
    ),
    "cv-genuine-sum": Scenario(
        "cv", "r", CriterionId.CV_FIXED_COMBO.value, _cv_genuine_sum
    ),
    "cv-fixed-combo": Scenario(
        "cv", "r", CriterionId.CV_FIXED_COMBO.value, _cv_fixed_combo
    ),
    "three-obs-eta": Scenario(
        "qubit", "eta", CriterionId.SPIN_SUM_3OBS.value, _three_obs_eta
    ),
    "two-obs-eta": Scenario(
        "qubit", "eta", CriterionId.SPIN_SUM_2OBS.value, _two_obs_eta
    ),
}


# Threshold scenario -> the scenario whose verdict it bisects over (0, 1).
THRESHOLD_SCENARIOS: dict[str, str] = {
    "three-obs-eta": "three-obs-eta",
    "two-obs-eta": "two-obs-eta",
    "cv-genuine-r": "cv-genuine-sum",
}


def run_threshold_scenario(name: str) -> ThresholdResult:
    try:
        scenario = SCENARIOS[THRESHOLD_SCENARIOS[name]]
    except KeyError:
        known = ", ".join(sorted(THRESHOLD_SCENARIOS))
        raise ValueError(f"unknown threshold scenario {name!r}; known: {known}") from None
    return find_threshold(lambda x: scenario.evaluate(x)[2], (0.0, 1.0), scenario.parameter)


@dataclass(frozen=True)
class SecretSharingReport:
    """Collective-steering scans per target plus the monogamy floor.

    The monogamy products pair the two single-party values aimed at each
    target: neither lone party (a would-be dishonest dealer peer) can steer,
    and their product stays at or above 1.
    """

    backend: str
    collective: tuple[CollectiveSteeringReport, ...]
    monogamy: tuple[MonogamyResult, ...]
    all_collective: bool


def secret_sharing_demo(backend: str, n: int = 3, r: float = 1.0) -> SecretSharingReport:
    """Verify that each target is steered only by the full complement group."""
    if n != 3:
        raise ValueError("only the tripartite demonstration is supported")
    if backend == "qubit":
        state: criteria.AnyState = qubits.ghz(3)
    elif backend == "cv":
        state = gaussian.cv_ghz(r)
    else:
        raise ValueError(f"backend must be 'qubit' or 'cv', got {backend!r}")
    scans = []
    products = []
    for part in STEERED_BY_COMPLEMENT:
        scan = collective_scan(state, part.target_site, part.steering_group)
        scans.append(scan)
        singles = [v for v in scan.subsets if len(v.partition.steering_group) == 1]
        products.append(monogamy_check(singles[0], singles[1]))
    return SecretSharingReport(
        backend, tuple(scans), tuple(products), all(s.collective for s in scans)
    )


@dataclass(frozen=True)
class EavesdropRecord:
    """Steering values of the two legitimate partners' modes versus the taps."""

    eta: float
    accomplice_value: float
    eavesdropper_value: float
    monogamy_product: float
    accomplice_verdict: bool
    eavesdropper_verdict: bool

    def to_dict(self) -> dict:
        return {
            "record": "eavesdrop",
            "eta": self.eta,
            "accomplice_value": self.accomplice_value,
            "eavesdropper_value": self.eavesdropper_value,
            "monogamy_product": self.monogamy_product,
            "accomplice_verdict": self.accomplice_verdict,
            "eavesdropper_verdict": self.eavesdropper_verdict,
        }


def eavesdrop_sweep(r: float, eta_grid: Sequence[float]) -> tuple[EavesdropRecord, ...]:
    """Tap modes 2 and 3 at each efficiency and compare steering of mode 1
    by the tapped modes against steering by the taps."""
    grid = [float(eta) for eta in eta_grid]
    if not grid:
        raise ValueError("efficiency grid must be non-empty")
    if any(not 0.0 <= eta <= 1.0 for eta in grid):
        raise ValueError("efficiencies must lie in [0, 1]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("efficiency grid must be strictly increasing")
    network = gaussian._ghz_network(5, r)
    plans = np.stack([plan.vectors(5) for plan in (
        HomodynePlan.x_on(2, 3), HomodynePlan.p_on(2, 3),
        HomodynePlan.x_on(4, 5), HomodynePlan.p_on(4, 5),
    )])
    targets = (gaussian.x_quadrature(5, 1), gaussian.p_quadrature(5, 1))
    records = []
    for eta in grid:
        (x_acc, _, x_tap, _), (_, p_acc, _, p_tap) = gaussian._conditional_variances(
            gaussian._tap(network, eta), targets, plans
        )
        accomplices = gaussian._product_value(x_acc, p_acc, frozenset({2, 3}), 1)
        taps = gaussian._product_value(x_tap, p_tap, frozenset({4, 5}), 1)
        product = monogamy_check(accomplices, taps)
        records.append(
            EavesdropRecord(
                eta,
                accomplices.value,
                taps.value,
                product.product,
                accomplices.verdict,
                taps.verdict,
            )
        )
    return tuple(records)


@dataclass(frozen=True)
class SpinSumShotPlan:
    """Sample the two-observable spin criterion term by term.

    Each term draws `shots` joint readings of the target Pauli and its
    predictor from the exact joint distribution.
    """

    partition: SitePartition
    predictor_x: PauliString
    predictor_y: PauliString


@dataclass(frozen=True)
class ComboShotPlan:
    """Sample a quadrature combination from the exact Gaussian marginal."""

    combo: QuadratureCombo


ShotPlan = Union[SpinSumShotPlan, ComboShotPlan]


@dataclass(frozen=True)
class ShotEstimate:
    estimate: float
    standard_error: float
    shots: int
    seed: int


def _variance_statistics(values: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """Unbiased sample variance and its standard error from tallied values."""
    n = counts.sum()
    mean = float((counts * values).sum() / n)
    deviations = values - mean
    m2 = float((counts * deviations**2).sum() / n)
    m4 = float((counts * deviations**4).sum() / n)
    s2 = m2 * n / (n - 1)
    var_s2 = m4 / n - s2 * s2 * (n - 3) / (n * (n - 1))
    return s2, math.sqrt(max(var_s2, 0.0))


def _sample_difference_variance(
    e_t: float, e_p: float, e_tp: float, shots: int, rng: np.random.Generator
) -> tuple[float, float]:
    outcomes = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    probs = np.array([(1.0 + t * e_t + p * e_p + t * p * e_tp) / 4.0 for t, p in outcomes])
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    counts = rng.multinomial(shots, probs)
    differences = np.array([float(t - p) for t, p in outcomes])
    return _variance_statistics(differences, counts)


def simulate_shots(
    state: criteria.AnyState, plan: ShotPlan, shots: int, seed: int = 0
) -> ShotEstimate:
    """Plug-in estimate of a criterion value from seeded finite sampling.

    Deterministic given (seed, shots): the counter-based generator yields the
    same stream on every platform.
    """
    shots = as_integer(shots, "shots must be an integer of at least 2", 2)
    seed = as_integer(seed, "seed must be a non-negative integer", 0)
    rng = np.random.Generator(np.random.Philox(seed))
    if isinstance(plan, SpinSumShotPlan):
        n = qubits.state_qubits(state)
        qubits.check_partition(plan.partition, n)
        estimate = 0.0
        error_sq = 0.0
        for label, predictor in (("X", plan.predictor_x), ("Y", plan.predictor_y)):
            masks = qubits._spin_term_masks(n, plan.partition, label, predictor, True)
            moments = qubits._mask_expectations(state, masks)
            s2, se = _sample_difference_variance(*moments, shots, rng)
            estimate += s2
            error_sq += se * se
        return ShotEstimate(estimate, math.sqrt(error_sq), shots, seed)
    if isinstance(plan, ComboShotPlan):
        if not isinstance(state, GaussianState):
            raise ValueError("combination sampling needs a Gaussian state")
        mean = float(plan.combo.coefficients @ state.mean)
        sigma = math.sqrt(gaussian.combo_variance(state, plan.combo))
        draws = rng.normal(mean, sigma, size=shots)
        s2, se = _variance_statistics(draws, np.ones_like(draws))
        return ShotEstimate(s2, se, shots, seed)
    raise TypeError(f"unsupported shot plan {type(plan).__name__}")


@dataclass(frozen=True)
class SweepConfig:
    """Declarative grid evaluation of a named scenario."""

    backend: str
    scenario: str
    parameter: str
    grid: tuple[float, ...]
    seed: int = 0
    criterion: str | None = None

    def __post_init__(self) -> None:
        if self.backend not in ("qubit", "cv"):
            raise ValueError(f"backend must be 'qubit' or 'cv', got {self.backend!r}")
        grid = tuple(float(v) for v in self.grid)
        object.__setattr__(self, "grid", grid)
        if not grid:
            raise ValueError("grid must be non-empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing")
        seed = as_integer(self.seed, "seed must be a non-negative integer", 0)
        object.__setattr__(self, "seed", seed)


def run_sweep(config: SweepConfig) -> tuple[dict, ...]:
    """Evaluate the configured scenario at each grid point, in grid order."""
    try:
        scenario = SCENARIOS[config.scenario]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(
            f"unknown sweep scenario {config.scenario!r}; known: {known}"
        ) from None
    if scenario.backend != config.backend:
        raise ValueError(
            f"scenario {config.scenario!r} runs on the {scenario.backend} backend, "
            f"not {config.backend!r}"
        )
    if config.parameter != scenario.parameter:
        raise ValueError(
            f"scenario {config.scenario!r} sweeps {scenario.parameter!r}, "
            f"not {config.parameter!r}"
        )
    if config.criterion is not None and config.criterion != scenario.criterion:
        raise ValueError(
            f"scenario {config.scenario!r} evaluates {scenario.criterion!r}, "
            f"not {config.criterion!r}"
        )
    rows = []
    for point in config.grid:
        value, bound, verdict = scenario.evaluate(point)
        rows.append(
            {
                "record": "sweep",
                "scenario": config.scenario,
                "parameter": config.parameter,
                "param_value": point,
                "value": value,
                "bound": bound,
                "verdict": verdict,
            }
        )
    return tuple(rows)
