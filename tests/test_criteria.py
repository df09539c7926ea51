"""Steering criteria, aggregation, monogamy, and collective scans."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from steerkit import criteria, gaussian, qubits, scenarios
from steerkit.core import (
    STEERED_BY_COMPLEMENT,
    CriterionId,
    SitePartition,
    SteeringValue,
    partition,
)
from steerkit.criteria import (
    CvScanConfig,
    QubitScanConfig,
    collective_scan,
    cv3_genuine_report,
    genuine_tripartite_aggregate,
    ghz3_genuine_report,
    monogamy_check,
    pure_state_tripartite_scan,
    spin_three_obs,
    spin_two_obs,
)
from steerkit.gaussian import (
    HomodynePlan,
    cv_ghz,
    p_quadrature,
    steering_product_cv,
    vacuum,
    x_quadrature,
)
from steerkit.qubits import (
    DetectionModel,
    PauliString,
    depolarize_global,
    ghz,
    random_density_matrix,
)


def canonical_value(criterion, group, target, value, bound=1.0):
    return SteeringValue.of(criterion, SitePartition(frozenset(group), target), value, bound)


class TestCoreTypes:
    def test_partition_rejects_target_in_group(self):
        with pytest.raises(ValueError):
            SitePartition(frozenset({1, 2}), 2)

    def test_partition_rejects_empty_group(self):
        with pytest.raises(ValueError):
            SitePartition(frozenset(), 1)

    def test_partition_rejects_nonpositive_sites(self):
        with pytest.raises(ValueError):
            SitePartition(frozenset({0, 1}), 2)

    @pytest.mark.parametrize("bad", [1.5, True, "2"])
    def test_partition_rejects_non_integer_sites(self, bad):
        with pytest.raises(ValueError, match="sites must be integers"):
            SitePartition(frozenset({bad, 4}), 3)
        with pytest.raises(ValueError, match="sites must be integers"):
            SitePartition(frozenset({1, 2}), bad)

    def test_partition_accepts_numpy_integers(self):
        part = SitePartition(frozenset(np.array([1, 2])), np.int64(3))
        assert part == SitePartition(frozenset({1, 2}), 3)
        assert type(part.target_site) is int
        assert all(type(site) is int for site in part.steering_group)

    def test_partition_helper(self):
        part = partition([3, 2], 1)
        assert part.steering_group == frozenset({2, 3})
        assert part.target_site == 1
        assert part.sites == frozenset({1, 2, 3})

    def test_steering_value_verdict_must_match(self):
        part = SitePartition(frozenset({1, 2}), 3)
        with pytest.raises(ValueError):
            SteeringValue(CriterionId.SPIN_SUM_2OBS, part, 0.5, 1.0, verdict=False)

    def test_steering_value_rejects_odd_bound(self):
        part = SitePartition(frozenset({1, 2}), 3)
        with pytest.raises(ValueError):
            SteeringValue.of(CriterionId.SPIN_SUM_2OBS, part, 0.5, 3.0)

    def test_steering_value_rejects_negative_value(self):
        part = SitePartition(frozenset({1, 2}), 3)
        with pytest.raises(ValueError):
            SteeringValue.of(CriterionId.SPIN_SUM_2OBS, part, -0.5, 1.0)

    def test_boundary_value_is_not_a_violation(self):
        value = canonical_value(CriterionId.CV_PRODUCT, {2, 3}, 1, 1.0)
        assert not value.verdict

    def test_to_dict_round_trip_fields(self):
        value = canonical_value(CriterionId.SPIN_SUM_3OBS, {1, 2}, 3, 1.5, bound=2.0)
        data = value.to_dict()
        assert data["criterion"] == "spin-sum-3obs"
        assert data["group"] == [1, 2]
        assert data["target"] == 3
        assert data["bound"] == 2.0
        assert data["verdict"] is True


class TestSpinTwoObs:
    def _predictors(self):
        return qubits.ghz_predictor(3, "x"), qubits.ghz_predictor(3, "y")

    def test_ghz_is_zero(self):
        px, py = self._predictors()
        value = spin_two_obs(ghz(3), partition([1, 2], 3), px, py)
        assert value.value == pytest.approx(0.0, abs=1e-12)
        assert value.verdict
        assert value.bound == 1.0

    def test_half_depolarized_closed_form(self):
        px, py = self._predictors()
        state = depolarize_global(ghz(3), 0.5)
        value = spin_two_obs(state, partition([1, 2], 3), px, py)
        assert value.value == pytest.approx(2.0, abs=1e-12)
        assert not value.verdict

    def test_maximally_mixed_is_four(self):
        px, py = self._predictors()
        state = depolarize_global(ghz(3), 0.0)
        value = spin_two_obs(state, partition([1, 2], 3), px, py)
        assert value.value == pytest.approx(4.0, abs=1e-12)

    def test_noise_flip_at_three_quarters(self):
        # 4(1-p) < 1 exactly when p > 3/4
        px, py = self._predictors()
        below = spin_two_obs(depolarize_global(ghz(3), 0.74), partition([1, 2], 3), px, py)
        above = spin_two_obs(depolarize_global(ghz(3), 0.76), partition([1, 2], 3), px, py)
        assert not below.verdict
        assert above.verdict

    def test_rejects_predictor_outside_group(self):
        px, py = self._predictors()
        bad = PauliString.from_sites(3, {2: "Y", 3: "Y"})
        with pytest.raises(ValueError):
            spin_two_obs(ghz(3), partition([1, 2], 3), bad, py)

    def test_detection_loss_closed_form(self):
        px, py = self._predictors()
        value = spin_two_obs(ghz(3), partition([1, 2], 3), px, py, DetectionModel(0.5))
        assert value.value == pytest.approx(1.0, abs=1e-12)
        assert not value.verdict


class TestSpinThreeObs:
    def _pieces(self):
        return (
            partition([1, 2], 3),
            qubits.ghz_predictor(3, "x"),
            qubits.ghz_predictor(3, "y"),
            qubits.ghz_z_predictor(3),
        )

    def test_ghz_is_zero(self):
        part, px, py, pz = self._pieces()
        value = spin_three_obs(ghz(3), part, px, py, pz)
        assert value.value == pytest.approx(0.0, abs=1e-12)
        assert value.verdict
        assert value.bound == 2.0

    def test_half_efficiency_closed_form(self):
        part, px, py, pz = self._pieces()
        value = spin_three_obs(ghz(3), part, px, py, pz, DetectionModel(0.5))
        assert value.value == pytest.approx(1.5, abs=1e-12)
        assert value.verdict

    def test_one_third_efficiency_sits_on_bound(self):
        part, px, py, pz = self._pieces()
        value = spin_three_obs(ghz(3), part, px, py, pz, DetectionModel(1.0 / 3.0))
        assert value.value == pytest.approx(2.0, abs=1e-12)
        assert not value.verdict


class TestNoisyGhzClosedForms:
    """On p|GHZ><GHZ| + (1 - p) I / 2^n every spin-sum term has <T> = <P> = 0
    and <TP> = p: 2 - 2p without a detection model, and
    eta (2 - 2p) + (1 - eta) under the marginal-mean policy."""

    @pytest.mark.parametrize("n", range(2, qubits.MAX_QUBITS + 1))
    def test_spin_sums_up_to_max_qubits(self, n):
        part = partition(range(1, n), n)
        px, py = qubits.ghz_predictor(n, "x"), qubits.ghz_predictor(n, "y")
        pz = qubits.ghz_z_predictor(n)
        for p in (0.3, 0.9):
            state = depolarize_global(ghz(n), p)
            for model in (None, DetectionModel(0.7)):
                term = 2.0 - 2.0 * p
                if model is not None:
                    term = model.efficiency * term + (1.0 - model.efficiency)
                two = spin_two_obs(state, part, px, py, model).value
                three = spin_three_obs(state, part, px, py, pz, model).value
                assert abs(two - 2 * term) <= 1e-9
                assert abs(three - 3 * term) <= 1e-9

    @pytest.mark.parametrize("n", range(2, qubits.MAX_QUBITS + 1))
    def test_constant_guess_up_to_max_qubits(self, n):
        # the click branch has mean 0 and second moment 2 - 2p; the no-click
        # branch reports g, so its error T - g has mean -g and second
        # moment 1 + g^2
        part = partition(range(1, n), n)
        px, py = qubits.ghz_predictor(n, "x"), qubits.ghz_predictor(n, "y")
        pz = qubits.ghz_z_predictor(n)
        for p in (0.3, 0.9):
            state = depolarize_global(ghz(n), p)
            for eta, guess in ((0.7, 0.4), (0.2, -1.0)):
                model = DetectionModel(eta, "constant-guess", guess)
                second = eta * (2.0 - 2.0 * p) + (1.0 - eta) * (1.0 + guess * guess)
                term = second - ((1.0 - eta) * guess) ** 2
                two = spin_two_obs(state, part, px, py, model).value
                three = spin_three_obs(state, part, px, py, pz, model).value
                assert abs(two - 2 * term) <= 1e-9
                assert abs(three - 3 * term) <= 1e-9


_MODELS = [None, DetectionModel(0.6), DetectionModel(0.6, "constant-guess", 0.2)]


class TestSpinSumErrors:
    """The batched spin sum checks every term before it reads the state and
    raises what the per-term kernels raise."""

    def _pieces(self):
        return ghz(3), partition([1, 2], 3), qubits.ghz_predictor(3, "x")

    @pytest.mark.parametrize("model", _MODELS)
    def test_predictor_outside_the_group(self, model):
        state, part, px = self._pieces()
        bad = PauliString.from_sites(3, {1: "Y", 3: "X"})
        with pytest.raises(ValueError, match=r"outside the steering group at sites \[3\]"):
            spin_two_obs(state, part, px, bad, model)

    def test_overlapping_supports(self):
        state, part, px = self._pieces()
        target = PauliString.single(3, 3, "X")
        bad = PauliString.from_sites(3, {2: "Y", 3: "Y"})
        with pytest.raises(ValueError, match="^supports overlap$"):
            qubits.variance_of_difference(state, target, bad)
        plan = scenarios.SpinSumShotPlan(part, bad, px)
        outside = r"^predictor acts outside the steering group at sites \[3\]$"
        with pytest.raises(ValueError, match=outside):
            scenarios.simulate_shots(state, plan, 10)

    @pytest.mark.parametrize("model", _MODELS)
    def test_string_of_the_wrong_size(self, model):
        state, part, px = self._pieces()
        want = "^observable acts on 4 sites but state has 3 qubits$"
        wide = PauliString.from_sites(4, {1: "Y", 2: "Y"})
        with pytest.raises(ValueError, match=want):
            spin_two_obs(state, part, px, wide, model)
        with pytest.raises(ValueError, match=want):
            spin_three_obs(state, part, px, px, wide, model)

    @pytest.mark.parametrize("model", _MODELS)
    def test_wrong_size_and_outside_the_group(self, model):
        # the group is checked before the size, whatever the model, and each
        # term before the next
        state, part, px = self._pieces()
        wide = PauliString.from_sites(4, {1: "Y", 4: "X"})
        narrow = PauliString(("I", "X"))
        size_message = "^observable acts on 2 sites but state has 3 qubits$"
        group_message = r"^predictor acts outside the steering group at sites \[4\]$"
        for predictors, want in (
            ((px, wide), group_message),
            ((wide, narrow), group_message),
            ((narrow, wide), size_message),
        ):
            with pytest.raises(ValueError, match=want):
                spin_two_obs(state, part, *predictors, model)
            with pytest.raises(ValueError, match=want):
                spin_three_obs(state, part, px, *predictors, model)

    @pytest.mark.parametrize("model", _MODELS)
    def test_negative_predictors_at_every_site(self, model):
        rng = np.random.default_rng(73)
        n = 4
        state = depolarize_global(random_density_matrix(n, rng, 3), 0.7)
        for target in range(1, n + 1):
            group = [s for s in range(1, n + 1) if s != target]
            part = partition(group, target)
            whole = {s: str(rng.choice(list("XYZ"))) for s in group}
            for sites in [{s: label} for s in group for label in "XYZ"] + [whole]:
                predictors = [PauliString.from_sites(n, sites, -1)] * 3
                terms = []
                for label, predictor in zip("XYZ", predictors):
                    observable = PauliString.single(n, target, label)
                    if model is None:
                        terms.append(qubits.variance_of_difference(state, observable, predictor))
                    else:
                        terms.append(qubits.inference_variance_with_loss(
                            state, part, observable, predictor, model
                        ))
                for value, count in (
                    (spin_two_obs(state, part, *predictors[:2], model), 2),
                    (spin_three_obs(state, part, *predictors, model), 3),
                ):
                    want = 0.0
                    for term in terms[:count]:
                        want += term
                    assert value.value.hex() == want.hex()

    def test_wrong_size_in_a_batch(self):
        state, _, px = self._pieces()
        narrow = PauliString(("X", "X"))
        want = "^observable acts on 2 sites but state has 3 qubits$"
        for strings in ([narrow], [px, narrow]):
            with pytest.raises(ValueError, match=want):
                qubits._expectations(state, strings)
        with pytest.raises(ValueError, match=want):
            qubits.expectation(state, narrow)


class TestGenuineAggregate:
    def test_all_zero_is_genuine(self):
        values = [
            canonical_value(CriterionId.SPIN_SUM_2OBS, {2, 3}, 1, 0.0),
            canonical_value(CriterionId.SPIN_SUM_2OBS, {1, 3}, 2, 0.0),
            canonical_value(CriterionId.SPIN_SUM_2OBS, {1, 2}, 3, 0.0),
        ]
        report = genuine_tripartite_aggregate(values)
        assert report.sum == 0.0
        assert report.genuine

    def test_point_four_each_is_not_genuine(self):
        values = [
            canonical_value(CriterionId.CV_FIXED_COMBO, {2, 3}, 1, 0.4),
            canonical_value(CriterionId.CV_FIXED_COMBO, {1, 3}, 2, 0.4),
            canonical_value(CriterionId.CV_FIXED_COMBO, {1, 2}, 3, 0.4),
        ]
        report = genuine_tripartite_aggregate(values)
        assert report.sum == pytest.approx(1.2)
        assert not report.genuine

    def test_cv_ghz_unit_squeezing(self):
        report = cv3_genuine_report(cv_ghz(1.0))
        assert report.sum == pytest.approx(3.0 * math.sqrt(6.0) * math.exp(-2.0), abs=1e-10)
        assert report.sum == pytest.approx(0.9944, abs=5e-4)
        assert report.genuine

    def test_rejects_mixed_families(self):
        values = [
            canonical_value(CriterionId.CV_FIXED_COMBO, {2, 3}, 1, 0.4),
            canonical_value(CriterionId.SPIN_SUM_2OBS, {1, 3}, 2, 0.4),
            canonical_value(CriterionId.CV_FIXED_COMBO, {1, 2}, 3, 0.4),
        ]
        with pytest.raises(ValueError):
            genuine_tripartite_aggregate(values)

    def test_rejects_repeated_targets(self):
        values = [
            canonical_value(CriterionId.CV_FIXED_COMBO, {2, 3}, 1, 0.4),
            canonical_value(CriterionId.CV_FIXED_COMBO, {2, 3}, 1, 0.4),
            canonical_value(CriterionId.CV_FIXED_COMBO, {1, 2}, 3, 0.4),
        ]
        with pytest.raises(ValueError):
            genuine_tripartite_aggregate(values)

    def test_rejects_three_obs_bound(self):
        values = [
            canonical_value(CriterionId.SPIN_SUM_3OBS, {2, 3}, 1, 0.4, bound=2.0),
            canonical_value(CriterionId.SPIN_SUM_3OBS, {1, 3}, 2, 0.4, bound=2.0),
            canonical_value(CriterionId.SPIN_SUM_3OBS, {1, 2}, 3, 0.4, bound=2.0),
        ]
        with pytest.raises(ValueError):
            genuine_tripartite_aggregate(values)

    def test_permutation_invariant(self):
        values = [
            canonical_value(CriterionId.CV_FIXED_COMBO, {2, 3}, 1, 0.1),
            canonical_value(CriterionId.CV_FIXED_COMBO, {1, 3}, 2, 0.2),
            canonical_value(CriterionId.CV_FIXED_COMBO, {1, 2}, 3, 0.3),
        ]
        a = genuine_tripartite_aggregate(values)
        b = genuine_tripartite_aggregate(values[::-1])
        assert a.sum == b.sum
        assert a.values == b.values

    def test_qubit_ghz_report_with_noise(self):
        report = ghz3_genuine_report(depolarize_global(ghz(3), 0.95))
        assert report.sum == pytest.approx(0.6, abs=1e-10)
        assert report.genuine


class TestMonogamy:
    def test_boundary_product(self):
        a = canonical_value(CriterionId.CV_PRODUCT, {2}, 1, 0.5)
        c = canonical_value(CriterionId.CV_PRODUCT, {3}, 1, 2.0)
        result = monogamy_check(a, c)
        assert result.product == pytest.approx(1.0)
        assert result.satisfied

    def test_rejects_overlapping_groups(self):
        a = canonical_value(CriterionId.CV_PRODUCT, {2, 3}, 1, 0.5)
        c = canonical_value(CriterionId.CV_PRODUCT, {3, 4}, 1, 2.0)
        with pytest.raises(ValueError):
            monogamy_check(a, c)

    def test_rejects_different_targets(self):
        a = canonical_value(CriterionId.CV_PRODUCT, {2}, 1, 0.5)
        c = canonical_value(CriterionId.CV_PRODUCT, {1}, 3, 2.0)
        with pytest.raises(ValueError):
            monogamy_check(a, c)

    def test_rejects_three_observable_criterion(self):
        a = canonical_value(CriterionId.SPIN_SUM_3OBS, {2}, 1, 0.5, bound=2.0)
        c = canonical_value(CriterionId.SPIN_SUM_3OBS, {3}, 1, 2.0, bound=2.0)
        with pytest.raises(ValueError):
            monogamy_check(a, c)

    def test_eavesdropper_partitions_at_half_tap(self):
        state = gaussian.eavesdrop_scenario(1.5, 0.5)
        a = steering_product_cv(state, 1, HomodynePlan.x_on(2, 3), HomodynePlan.p_on(2, 3))
        e = steering_product_cv(state, 1, HomodynePlan.x_on(4, 5), HomodynePlan.p_on(4, 5))
        result = monogamy_check(a, e)
        assert result.satisfied
        assert result.product >= 1.0 - 1e-9


SQUEEZINGS = [0.05 * i for i in range(1, 81)]
ETAS = [i / 100 for i in range(101)]


class TestExactBound:
    """Cases whose value equals its bound in exact arithmetic.  Rounding lands
    them a few ulps either side, and none of them may count as steering."""

    @pytest.mark.parametrize("r", SQUEEZINGS)
    def test_pure_tap_sits_on_every_bound(self, r):
        records = scenarios.eavesdrop_sweep(r, ETAS)
        # partners and taps are equally good at eta = 0.5, so each value is 1
        (half,) = (record for record in records if record.eta == 0.5)
        assert not half.accomplice_verdict and not half.eavesdropper_verdict
        for record in records:
            assert not (record.accomplice_verdict and record.eavesdropper_verdict)
            # the pure tap's monogamy product is 1 at every efficiency
            partners = canonical_value(CriterionId.CV_PRODUCT, {2, 3}, 1, record.accomplice_value)
            taps = canonical_value(CriterionId.CV_PRODUCT, {4, 5}, 1, record.eavesdropper_value)
            assert monogamy_check(partners, taps).satisfied

    @pytest.mark.parametrize("n", range(2, qubits.MAX_QUBITS + 1))
    def test_ghz_spin_sums_at_their_crossings(self, n):
        group = SitePartition(frozenset(range(1, n)), n)
        px, py = qubits.ghz_predictor(n, "x"), qubits.ghz_predictor(n, "y")
        pz = qubits.ghz_z_predictor(n)
        # 4(1 - p) = 1 at p = 3/4; 2(1 - eta) = 1 at eta = 1/2; 3(1 - eta) = 2 at eta = 1/3
        cases = (
            spin_two_obs(depolarize_global(ghz(n), 0.75), group, px, py),
            spin_two_obs(ghz(n), group, px, py, DetectionModel(0.5)),
            spin_three_obs(ghz(n), group, px, py, pz, DetectionModel(1.0 / 3.0)),
        )
        for value in cases:
            assert value.value == pytest.approx(value.bound, abs=1e-12)
            assert not value.verdict


class TestCollectiveScan:
    def test_qubit_ghz3(self):
        report = collective_scan(ghz(3), 3, {1, 2})
        assert report.full_group.value == pytest.approx(0.0, abs=1e-12)
        assert len(report.subsets) == 2
        for value in report.subsets:
            assert value.value >= 1.0 - 1e-9
        assert report.collective

    def test_cv_ghz(self):
        report = collective_scan(cv_ghz(1.0), 1, {2, 3})
        assert report.full_group.verdict
        for value in report.subsets:
            assert value.value >= 1.0 - 1e-9
        assert report.collective

    def test_product_state_is_not_collective(self):
        plus = np.ones(2, dtype=complex) / math.sqrt(2.0)
        state = qubits.PureState(np.kron(np.kron(plus, plus), plus))
        report = collective_scan(state, 3, {1, 2})
        assert report.full_group.value >= 1.0 - 1e-9
        assert not report.collective

    def test_cv_vacuum_is_not_collective(self):
        report = collective_scan(vacuum(3), 1, {2, 3})
        assert not report.full_group.verdict
        assert not report.collective

    def test_rejects_target_inside_group(self):
        with pytest.raises(ValueError):
            collective_scan(ghz(3), 1, {1, 2})

    @pytest.mark.parametrize("bad", [1.5, True, "2"])
    def test_rejects_non_integer_sites(self, bad):
        with pytest.raises(ValueError, match="sites must be integers"):
            collective_scan(ghz(3), 3, [bad, 2])
        with pytest.raises(ValueError, match="sites must be integers"):
            collective_scan(ghz(4), bad, [1, 4])
        with pytest.raises(ValueError, match="sites must be integers"):
            collective_scan(cv_ghz(1.0), 1, [bad, 3])

    def test_rejects_mismatched_config(self):
        with pytest.raises(ValueError):
            collective_scan(ghz(3), 3, {1, 2}, CvScanConfig())
        with pytest.raises(ValueError):
            collective_scan(cv_ghz(1.0), 1, {2, 3}, QubitScanConfig())

    def test_cv_angle_budget_guard(self):
        config = CvScanConfig(n_angles=36, max_combinations=10)
        with pytest.raises(ValueError):
            collective_scan(cv_ghz(1.0), 1, {2, 3}, config)

    @pytest.mark.parametrize(
        "n_modes, n_angles, n_plans, admitted",
        # 58 ** 3 fits the default cap, but not with the two- and one-mode
        # subsets; an 18-mode group has 2 ** 18 - 1 subsets at one angle
        [(4, 58, 59**3 - 1, (4, 57)), (19, 1, 2**18 - 1, (18, 1))],
    )
    def test_cv_cap_counts_every_subset_before_the_walk(
        self, monkeypatch, n_modes, n_angles, n_plans, admitted
    ):
        def walked(*args, **kwargs):
            raise AssertionError("the scan walked the grid")

        monkeypatch.setattr(gaussian, "_grid_variances", walked)
        with pytest.raises(ValueError, match=f"has {n_plans} plans over all subsets"):
            collective_scan(vacuum(n_modes), n_modes, range(1, n_modes), CvScanConfig(n_angles))
        n_modes, n_angles = admitted
        with pytest.raises(AssertionError, match="walked"):
            collective_scan(vacuum(n_modes), n_modes, range(1, n_modes), CvScanConfig(n_angles))

    def test_cv_scan_walks_the_grid_once(self, monkeypatch):
        calls = []
        walk = gaussian._grid_variances

        def counted(*args):
            calls.append(args[2])
            return walk(*args)

        monkeypatch.setattr(gaussian, "_grid_variances", counted)
        state = gaussian.random_pure_gaussian(5, np.random.default_rng(21))
        report = collective_scan(state, 2, {1, 3, 4, 5}, CvScanConfig(6))
        assert len(report.subsets) == 14
        assert calls == [[1, 3, 4, 5]]

    def test_qubit_scan_cost_counts_every_subset_and_state_entry(self):
        # a depolarized pure state is one component plus noise: 2^4 entries
        for state, entries in ((ghz(4), 16), (depolarize_global(ghz(4), 0.5), 16)):
            for menu_size in (1, 2, 3):
                subsets = sum(menu_size**j * math.comb(3, j) for j in range(1, 4))
                cost = criteria._qubit_scan_cost(state, 3, menu_size)
                assert cost == entries * subsets
        # the largest admitted GHZ scan: about 33 s on a 2-vCPU machine
        assert criteria._qubit_scan_cost(ghz(10), 9, 3) <= criteria.QUBIT_SCAN_BUDGET

    @pytest.mark.parametrize("n, mixed", [(11, False), (8, True)])
    def test_qubit_scan_budget_refuses_before_any_work(self, monkeypatch, n, mixed):
        # 2.1e9 and 1.1e9 entries (a full-rank mixed state has 2^n components),
        # minutes of work
        state = random_density_matrix(n, np.random.default_rng(8)) if mixed else ghz(n)

        def started(*args, **kwargs):
            raise AssertionError("the scan evaluated settings")

        monkeypatch.setattr(qubits, "optimal_inference_variance", started)
        monkeypatch.setattr(qubits, "_outcome_tables", started)
        with pytest.raises(ValueError, match="QUBIT_SCAN_BUDGET"):
            collective_scan(state, n, range(1, n))

    def test_cv_scan_values_come_from_the_grid_walk(self, monkeypatch):
        def solved(*args, **kwargs):
            raise AssertionError("the scan re-solved a plan with the eigh kernel")

        monkeypatch.setattr(gaussian, "optimal_conditional_variance", solved)
        monkeypatch.setattr(gaussian, "_conditional_variances", solved)
        assert collective_scan(cv_ghz(1.0), 1, {2, 3}).collective
        assert scenarios.secret_sharing_demo("cv").all_collective

    @pytest.mark.parametrize("n_angles", [2.5, True, "12", None])
    def test_cv_config_rejects_non_integer_angle_count(self, n_angles):
        with pytest.raises(ValueError, match="n_angles"):
            CvScanConfig(n_angles=n_angles)

    @pytest.mark.parametrize("cap", [None, "10", True, 2.5, -3])
    def test_cv_config_rejects_a_cap_that_is_not_a_count(self, cap):
        with pytest.raises(ValueError, match="max_combinations"):
            CvScanConfig(max_combinations=cap)

    def test_cv_config_cap_accepts_numpy_integer(self):
        config = CvScanConfig(max_combinations=np.int32(10))
        assert type(config.max_combinations) is int and config.max_combinations == 10

    def test_cv_config_accepts_numpy_integer(self):
        config = CvScanConfig(n_angles=np.int64(10**6), max_combinations=10)
        assert type(config.n_angles) is int
        with pytest.raises(ValueError, match="max_combinations"):
            # 10**24 combinations; as an int64 power this would wrap around
            collective_scan(gaussian.eavesdrop_scenario(1.0, 0.5), 1, {2, 3, 4, 5}, config)

    def test_four_party_ghz_subsets_cannot_steer(self):
        report = collective_scan(ghz(4), 4, {1, 2, 3})
        assert report.full_group.value == pytest.approx(0.0, abs=1e-12)
        assert len(report.subsets) == 6
        for value in report.subsets:
            assert value.value >= 1.0 - 1e-9
        assert report.collective

    def test_full_group_on_the_bound_is_not_collective(self):
        # x-only homodyning (one angle) leaves the cv_ghz full-group product
        # exactly on the bound, where rounding lands it either side of 1
        values = []
        for i in range(41):
            state = cv_ghz(0.1 * i)
            for target in (1, 2, 3):
                rest = [s for s in (1, 2, 3) if s != target]
                report = collective_scan(state, target, rest, CvScanConfig(1))
                values.append(report.full_group.value)
                assert not report.collective, (i, target, report.full_group.value)
        assert max(abs(v - 1.0) for v in values) < 1e-9

    def test_report_guards_the_full_group_like_the_subsets(self):
        just_under = SteeringValue.of(CriterionId.CV_PRODUCT, partition([2, 3], 1), 1.0 - 1e-10)
        assert not just_under.verdict
        assert not criteria.CollectiveSteeringReport(just_under, (), False).collective
        with pytest.raises(ValueError, match="collective flag"):
            criteria.CollectiveSteeringReport(just_under, (), True)
        clear = SteeringValue.of(CriterionId.CV_PRODUCT, partition([2, 3], 1), 0.5)
        lone = SteeringValue.of(CriterionId.CV_PRODUCT, partition([2], 1), 1.0 - 1e-10)
        assert criteria.CollectiveSteeringReport(clear, (lone,), True).collective


def _subset_values(report):
    return {v.partition.steering_group: v.value for v in (report.full_group, *report.subsets)}


def _brute_force_spin_sum(state, group, target, menu):
    n = qubits.state_qubits(state)
    sites = sorted(group)
    part = SitePartition(frozenset(group), target)
    return sum(
        min(
            qubits.optimal_inference_variance(
                state, part, PauliString.single(n, target, label), dict(zip(sites, choice))
            )
            for choice in product(menu, repeat=len(sites))
        )
        for label in "XY"
    )


def _brute_force_cv_product(state, group, target, n_angles):
    n = state.n_modes
    modes = sorted(group)
    angles = [k * math.pi / n_angles for k in range(n_angles)]
    best = [
        min(
            gaussian.optimal_conditional_variance(
                state, quadrature(n, target), HomodynePlan.of(dict(zip(modes, choice)))
            )
            for choice in product(angles, repeat=len(modes))
        )
        for quadrature in (gaussian.x_quadrature, gaussian.p_quadrature)
    ]
    return math.sqrt(best[0]) * math.sqrt(best[1])


class TestScanMatchesBruteForce:
    """Each subset value of the batched scan equals the minimum over one
    kernel call per setting assignment or homodyne plan."""

    MENUS = [("X",), ("Y", "Y"), ("Z", "X"), ("X", "Z", "X"), ("X", "Y", "Z"), ("Z", "Y", "X")]

    def test_qubit_scans(self):
        rng = np.random.default_rng(811)
        for trial in range(16):
            mixed = trial % 2 == 1
            n = int(rng.integers(2, 5 if mixed else 6))
            state = (
                qubits.random_density_matrix(n, rng) if mixed else qubits.random_pure_state(n, rng)
            )
            target = int(rng.integers(1, n + 1))
            group = [s for s in range(1, n + 1) if s != target]
            menu = self.MENUS[int(rng.integers(len(self.MENUS)))]
            report = collective_scan(state, target, group, QubitScanConfig(menu))
            values = _subset_values(report)
            assert len(values) == 2 ** len(group) - 1
            for subset, value in values.items():
                want = _brute_force_spin_sum(state, subset, target, menu)
                assert abs(value - want) <= 1e-12, (trial, sorted(subset), menu)

    @pytest.mark.parametrize("n_angles", [1, 2, 5, 12])
    def test_cv_scans(self, n_angles):
        rng = np.random.default_rng(812 + n_angles)
        for trial in range(4):
            state = gaussian.random_pure_gaussian(3, rng)
            if trial % 2:
                state = gaussian.loss_channel(
                    state, int(rng.integers(1, 4)), float(rng.uniform(0.2, 0.9))
                )
            target = int(rng.integers(1, 4))
            group = sorted({1, 2, 3} - {target})
            report = collective_scan(state, target, group, CvScanConfig(n_angles))
            targets = [quadrature(3, target) for quadrature in (x_quadrature, p_quadrature)]
            for subset, value in _subset_values(report).items():
                walk = gaussian._grid_variances(state, targets, sorted(subset), n_angles)
                walk = walk[(slice(None),) + (slice(-1),) * len(subset)].reshape(2, -1)
                assert value == math.sqrt(walk[0].min()) * math.sqrt(walk[1].min())
                want = _brute_force_cv_product(state, subset, target, n_angles)
                assert abs(value - want) <= 1e-12, (trial, sorted(subset))


class TestTripartiteScan:
    def test_ghz_qubit_genuine_under_purity(self):
        report = pure_state_tripartite_scan(ghz(3))
        assert report.purity_asserted
        assert report.genuine_under_purity
        assert all(v.verdict for v in report.per_site)

    def test_cv_ghz_genuine_under_purity(self):
        report = pure_state_tripartite_scan(cv_ghz(1.0))
        assert report.genuine_under_purity
        for value in report.per_site:
            assert value.value == pytest.approx(math.sqrt(6.0) * math.exp(-2.0), abs=1e-10)

    def test_vacuum_is_not_genuine(self):
        report = pure_state_tripartite_scan(vacuum(3))
        assert not report.genuine_under_purity

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            pure_state_tripartite_scan(ghz(4))
        with pytest.raises(ValueError):
            pure_state_tripartite_scan(vacuum(4))

    @pytest.mark.parametrize("menu", [("X", "Y", "Z"), ("Z",)])
    def test_qubit_values_are_the_collective_scans_full_groups(self, menu):
        rng = np.random.default_rng(18)
        config = QubitScanConfig(menu)
        for state in (ghz(3), depolarize_global(ghz(3), 0.8), random_density_matrix(3, rng, 2)):
            report = pure_state_tripartite_scan(state, config)
            for value, part in zip(report.per_site, STEERED_BY_COMPLEMENT):
                scan = collective_scan(state, part.target_site, part.steering_group, config)
                assert value == scan.full_group


class TestScanTableChunks:
    """A scan reads its subsets from the full group's outcome tables, built
    chunk by chunk when they exceed _TABLE_CHUNK_BYTES."""

    @staticmethod
    def _whole_table_bytes(n_group, menu_size=3, n_targets=2):
        return 8 * (1 + n_targets) * menu_size**n_group * 2**n_group

    @staticmethod
    def _count_chunks(monkeypatch):
        built = []
        tables = qubits._outcome_tables

        def counting(state, partition, targets, menus):
            # the argmin re-evaluations ask for one target at a time
            if len(targets) == 2:
                built.append(len(partition.steering_group))
            return tables(state, partition, targets, menus)

        monkeypatch.setattr(qubits, "_outcome_tables", counting)
        return built

    @pytest.mark.parametrize("cap", [1, 2000, 10_000])
    @pytest.mark.parametrize("kind", ["ghz6", "mixed5"])
    def test_chunked_scan_matches_one_chunk(self, monkeypatch, kind, cap):
        rng = np.random.default_rng(71)
        if kind == "ghz6":
            state, n = ghz(6), 6
        else:
            state, n = depolarize_global(random_density_matrix(5, rng, 3), 0.8), 5
        targets = [PauliString.single(n, n, label) for label in "XYZ"]
        group = SitePartition(frozenset(range(1, n)), n)
        assert self._whole_table_bytes(n - 1) <= qubits._TABLE_CHUNK_BYTES
        one_chunk = collective_scan(state, n, range(1, n))
        one_chunk_variances = qubits._subset_variances(state, group, targets, "XYZ")
        monkeypatch.setattr(qubits, "_TABLE_CHUNK_BYTES", cap)
        built = self._count_chunks(monkeypatch)
        assert collective_scan(state, n, range(1, n)) == one_chunk
        assert len(built) > 3 and set(built) == {n - 1}
        # a chunk holds the same products row for row as the one-chunk table
        variances = qubits._subset_variances(state, group, targets, "XYZ")
        assert variances.keys() == one_chunk_variances.keys()
        for subset, values in variances.items():
            assert np.array_equal(values, one_chunk_variances[subset]), subset

    def test_chunked_scan_stays_below_the_whole_table(self, monkeypatch):
        state = ghz(7)
        collective_scan(state, 7, range(1, 7))
        monkeypatch.setattr(qubits, "_TABLE_CHUNK_BYTES", 1 << 16)
        built = self._count_chunks(monkeypatch)
        tracemalloc.start()
        try:
            collective_scan(state, 7, range(1, 7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(built) == 27
        assert peak < self._whole_table_bytes(6)

    def test_scan_deck_groups_fit_one_chunk(self):
        assert self._whole_table_bytes(6) <= qubits._TABLE_CHUNK_BYTES
