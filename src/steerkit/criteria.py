"""Steering criteria, verdict aggregation, monogamy, and subset scans."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from . import gaussian, qubits
from .core import (
    STEERED_BY_COMPLEMENT,
    TWO_OBSERVABLE_CRITERIA,
    CriterionId,
    SitePartition,
    SteeringValue,
    as_integer,
    below_bound,
)
from .gaussian import GaussianState
from .qubits import DetectionModel, PauliString

__all__ = [
    "CollectiveSteeringReport", "CvScanConfig", "GenuineSteeringReport", "MonogamyResult",
    "QubitScanConfig", "TripartiteScanReport", "collective_scan", "cv3_genuine_report",
    "genuine_tripartite_aggregate", "ghz3_genuine_report", "monogamy_check",
    "pure_state_tripartite_scan", "spin_three_obs", "spin_two_obs",
]

AnyState = Union[qubits.PureState, qubits.DensityMatrix, GaussianState]


@dataclass(frozen=True)
class GenuineSteeringReport:
    """Per-target steering values for a tripartite state and their sum.

    Genuine tripartite steering is certified when the three values sum to
    below 1 (core.below_bound); the convexity argument behind the bound
    requires all three values to come from the same criterion family.
    """

    values: tuple[SteeringValue, SteeringValue, SteeringValue]
    sum: float
    genuine: bool
    method_notes: str

    def __post_init__(self) -> None:
        if len(self.values) != 3:
            raise ValueError("need exactly three per-target values")
        total = math.fsum(v.value for v in self.values)
        if abs(self.sum - total) > 1e-12:
            raise ValueError("sum does not match the per-target values")
        if self.genuine != below_bound(self.sum, 1.0):
            raise ValueError("genuine flag must equal (sum < 1 - 1e-9)")

    def to_dict(self) -> dict:
        return {
            "record": "genuine-steering",
            "criteria": sorted({v.criterion_id.value for v in self.values}),
            "sum": self.sum,
            "bound": 1.0,
            "genuine": self.genuine,
            "method_notes": self.method_notes,
        }


def _only_full_group_steers(full_group: SteeringValue, subsets: Iterable[SteeringValue]) -> bool:
    """The collective rule of CollectiveSteeringReport."""
    return full_group.verdict and not any(v.verdict for v in subsets)


@dataclass(frozen=True)
class CollectiveSteeringReport:
    """Best criterion value for the full group and for every proper subset.

    Collective steering holds when only the full group steers: its verdict
    is true and no proper subset's is.  Each verdict is core.below_bound's,
    so a subset that sits exactly on the bound, where rounding can land a
    value a hair either side of 1, counts as not steering.
    """

    full_group: SteeringValue
    subsets: tuple[SteeringValue, ...]
    collective: bool

    def __post_init__(self) -> None:
        if self.collective != _only_full_group_steers(self.full_group, self.subsets):
            raise ValueError("collective flag must equal (full group steers and no subset steers)")


@dataclass(frozen=True)
class MonogamyResult:
    """Product of two steering values aimed at the same target."""

    product: float
    satisfied: bool


@dataclass(frozen=True)
class TripartiteScanReport:
    """Steering of each site by the other two, assuming a pure state."""

    per_site: tuple[SteeringValue, SteeringValue, SteeringValue]
    genuine_under_purity: bool
    purity_asserted: bool


_SPIN_SUM_IDS = {2: CriterionId.SPIN_SUM_2OBS, 3: CriterionId.SPIN_SUM_3OBS}


def _spin_sum(
    state: qubits.State,
    partition: SitePartition,
    predictors: Sequence[PauliString],
    model: DetectionModel | None,
) -> SteeringValue:
    """Spin sum over the target's X, Y (, Z), against its criterion's bound."""
    n = qubits.state_qubits(state)
    qubits.check_partition(partition, n)
    masks = []
    for label, predictor in zip("XYZ", predictors):
        masks += qubits._spin_term_masks(n, partition, label, predictor)
    # one pass over the state for every term's <T>, <P> and <TP>
    moments = qubits._mask_expectations(state, masks)
    value = 0.0
    for term in range(0, len(moments), 3):
        value += qubits._difference_variance(*moments[term : term + 3], model)
    return SteeringValue.of(_SPIN_SUM_IDS[len(predictors)], partition, value)


def spin_two_obs(
    state: qubits.State,
    partition: SitePartition,
    predictor_x: PauliString,
    predictor_y: PauliString,
    model: DetectionModel | None = None,
) -> SteeringValue:
    """Two-observable spin criterion:
    Var(sigma_x - P_x) + Var(sigma_y - P_y) < 1 confirms steering of the target.
    """
    return _spin_sum(state, partition, (predictor_x, predictor_y), model)


def spin_three_obs(
    state: qubits.State,
    partition: SitePartition,
    predictor_x: PauliString,
    predictor_y: PauliString,
    predictor_z: PauliString,
    model: DetectionModel | None = None,
) -> SteeringValue:
    """Three-observable spin criterion with bound 2; robust to detection
    inefficiency down to 1/3 under the marginal-mean no-click policy.
    """
    return _spin_sum(state, partition, (predictor_x, predictor_y, predictor_z), model)


def genuine_tripartite_aggregate(
    values: Sequence[SteeringValue],
) -> GenuineSteeringReport:
    """Combine three per-target steering values into a genuine-steering report.

    All values must share a criterion family (CriterionId.family: all
    products of uncertainties, or all sums of variances) and the bound 1;
    mixing families would break the convexity argument behind the sum bound.
    """
    values = tuple(values)
    if len(values) != 3:
        raise ValueError(f"need exactly three per-target values, got {len(values)}")
    targets = [v.partition.target_site for v in values]
    if len(set(targets)) != 3:
        raise ValueError(f"targets must be three distinct sites, got {targets}")
    ids = {v.criterion_id for v in values}
    if any(v.bound != 1.0 for v in values):
        raise ValueError("aggregation requires criteria with bound 1")
    family, *others = {i.family for i in ids}
    if others:
        raise ValueError(
            "criterion family mismatch: values must be all products or all sums, "
            f"got {sorted(i.value for i in ids)}"
        )
    ordered = tuple(sorted(values, key=lambda v: v.partition.target_site))
    total = math.fsum(v.value for v in ordered)
    notes = f"family={family}; criteria={sorted(i.value for i in ids)}"
    return GenuineSteeringReport(ordered, total, below_bound(total, 1.0), notes)


def monogamy_check(s_ba: SteeringValue, s_bc: SteeringValue) -> MonogamyResult:
    """Check the product bound for two disjoint groups steering one target.

    For two-observable criteria the product of the two values cannot drop
    below 1; a violation signals an implementation bug, not physics.
    """
    for value in (s_ba, s_bc):
        if value.criterion_id not in TWO_OBSERVABLE_CRITERIA:
            raise ValueError(
                f"monogamy applies to two-observable criteria, got {value.criterion_id.value}"
            )
    if s_ba.partition.target_site != s_bc.partition.target_site:
        raise ValueError("both values must aim at the same target")
    if s_ba.partition.steering_group & s_bc.partition.steering_group:
        raise ValueError("steering groups must be disjoint")
    product_value = s_ba.value * s_bc.value
    return MonogamyResult(product_value, not below_bound(product_value, 1.0))


@dataclass(frozen=True)
class QubitScanConfig:
    """Finite menu of per-site Pauli settings for subset evaluation; a scan
    past qubits.QUBIT_SCAN_BUDGET is refused before any work."""

    settings_menu: tuple[str, ...] = ("X", "Y", "Z")

    def __post_init__(self) -> None:
        menu = tuple(str(s).upper() for s in self.settings_menu)
        if not menu or any(s not in ("X", "Y", "Z") for s in menu):
            raise ValueError("settings menu must be a non-empty subset of X, Y, Z")
        object.__setattr__(self, "settings_menu", menu)

    def _subset_values(self, state: qubits.State, partition: SitePartition) -> list[SteeringValue]:
        return qubits.subset_values(state, partition, self.settings_menu)


@dataclass(frozen=True)
class CvScanConfig:
    """Homodyne-angle grid per measured mode; gains are always optimal.

    A subset of j modes tries the n_angles ** j plans on the grid
    k * pi / n_angles, all from one walk over the k-mode group that measures
    or skips each mode (gaussian.subset_values).  max_combinations caps its
    (n_angles + 1) ** k - 1 plans, before any work.  The largest admitted
    scans took under 0.1 s up to k = 13, and 2.6 s and 133 MiB, mostly the
    2 ** k - 1 values returned, at k = 17 and one angle (see README)."""

    n_angles: int = 36
    max_combinations: int = 200_000

    def __post_init__(self) -> None:
        # Python ints, so that (n_angles + 1) ** k cannot wrap around
        n_angles = as_integer(self.n_angles, "n_angles must be a positive integer", 1)
        cap = as_integer(self.max_combinations, "max_combinations must be an integer >= 0", 0)
        object.__setattr__(self, "n_angles", n_angles)
        object.__setattr__(self, "max_combinations", cap)

    def _subset_values(self, state: GaussianState, partition: SitePartition) -> list[SteeringValue]:
        return gaussian.subset_values(state, partition, self.n_angles, self.max_combinations)


ScanConfig = Union[QubitScanConfig, CvScanConfig]


def collective_scan(
    state: AnyState,
    target_site: int,
    full_group: Iterable[int],
    config: ScanConfig | None = None,
) -> CollectiveSteeringReport:
    """Evaluate the best steering value for the full group and for every
    nonempty proper subset; collective steering holds when only the full
    group succeeds.

    Subsets are evaluated with the best settings in the configured menu, so
    a subset failure means no strategy in the menu steers the target.
    """
    partition = SitePartition(frozenset(full_group), target_site)
    expected = CvScanConfig if isinstance(state, GaussianState) else QubitScanConfig
    config = expected() if config is None else config
    if not isinstance(config, expected):
        raise ValueError(f"config type {type(config).__name__} does not match the state backend")
    full_value, *subsets = config._subset_values(state, partition)
    return CollectiveSteeringReport(
        full_value, tuple(subsets), _only_full_group_steers(full_value, subsets)
    )


def pure_state_tripartite_scan(
    state: AnyState, config: ScanConfig | None = None
) -> TripartiteScanReport:
    """For each site of a tripartite state, evaluate steering by the other two:
    a qubit value is collective_scan's full-group value, a Gaussian value is
    fixed_combo_steering's.

    For pure states, steering of every site by its complement certifies
    genuine tripartite steering; purity is asserted by the caller and only
    recorded here.
    """
    if isinstance(state, GaussianState):
        values = _cv3_fixed_combo_values(state)
    else:
        if qubits.state_qubits(state) != 3:
            raise ValueError(f"need exactly 3 qubits, got {qubits.state_qubits(state)}")
        values = [
            collective_scan(state, part.target_site, part.steering_group, config).full_group
            for part in STEERED_BY_COMPLEMENT
        ]
    per_site = tuple(values)
    return TripartiteScanReport(per_site, all(v.verdict for v in per_site), True)


def ghz3_genuine_report(
    state: qubits.State, model: DetectionModel | None = None
) -> GenuineSteeringReport:
    """Fixed-predictor per-target values for a 3-qubit GHZ-form state."""
    if qubits.state_qubits(state) != 3:
        raise ValueError("fixed GHZ predictors are defined for 3 qubits here")
    values = [
        spin_two_obs(
            state,
            part,
            qubits.ghz_predictor_for_target(3, part.target_site, "x"),
            qubits.ghz_predictor_for_target(3, part.target_site, "y"),
            model,
        )
        for part in STEERED_BY_COMPLEMENT
    ]
    return genuine_tripartite_aggregate(values)


def _cv3_fixed_combo_values(state: GaussianState) -> list[SteeringValue]:
    """fixed_combo_steering of each mode of a 3-mode state by the other two."""
    if state.n_modes != 3:
        raise ValueError(f"need exactly 3 modes, got {state.n_modes}")
    return [
        gaussian.fixed_combo_steering(state, part.target_site, *sorted(part.steering_group))
        for part in STEERED_BY_COMPLEMENT
    ]


def cv3_genuine_report(state: GaussianState) -> GenuineSteeringReport:
    """Fixed-combination per-target values for a 3-mode state."""
    return genuine_tripartite_aggregate(_cv3_fixed_combo_values(state))
