"""End-to-end scenarios: thresholds, secret sharing, eavesdropping, sampling."""

import math

import numpy as np
import pytest

from steerkit import qubits
from steerkit.core import SitePartition
from steerkit.gaussian import cv_ghz, p_quadrature, quadrature_combo
from steerkit.qubits import depolarize_global, ghz
from steerkit.scenarios import (
    THRESHOLD_SCENARIOS,
    ComboShotPlan,
    SpinSumShotPlan,
    SweepConfig,
    ThresholdNotFoundError,
    eavesdrop_sweep,
    find_threshold,
    run_sweep,
    run_threshold_scenario,
    secret_sharing_demo,
    simulate_shots,
)


class TestFindThreshold:
    def test_bisects_a_known_flip(self):
        result = find_threshold(lambda x: x > 0.25, (0.0, 1.0), "x")
        assert result.critical == pytest.approx(0.25, abs=1e-4)
        assert result.bracket[1] - result.bracket[0] <= 1e-4

    def test_refining_tolerance_is_stable(self):
        coarse = find_threshold(lambda x: x > 0.25, (0.0, 1.0), tolerance=1e-4)
        fine = find_threshold(lambda x: x > 0.25, (0.0, 1.0), tolerance=1e-5)
        assert abs(coarse.critical - fine.critical) < 1e-3

    def test_no_flip_raises(self):
        with pytest.raises(ThresholdNotFoundError):
            find_threshold(lambda x: True, (0.0, 1.0))

    def test_rejects_inverted_bracket(self):
        with pytest.raises(ValueError):
            find_threshold(lambda x: x > 0.5, (1.0, 0.0))

    def test_three_obs_efficiency_threshold(self):
        result = run_threshold_scenario("three-obs-eta")
        assert result.critical == pytest.approx(1.0 / 3.0, abs=1e-4)
        assert result.parameter == "eta"

    def test_two_obs_efficiency_threshold(self):
        result = run_threshold_scenario("two-obs-eta")
        assert result.critical == pytest.approx(0.5, abs=1e-4)

    def test_cv_genuine_squeezing_threshold(self):
        result = run_threshold_scenario("cv-genuine-r")
        assert result.critical == pytest.approx(math.log(3.0 * math.sqrt(6.0)) / 2.0, abs=1e-4)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            run_threshold_scenario("warp-drive")


class TestSecretSharing:
    def test_qubit_demo(self):
        report = secret_sharing_demo("qubit", 3)
        assert report.all_collective
        assert len(report.collective) == 3
        for result in report.monogamy:
            assert result.satisfied

    def test_cv_demo(self):
        report = secret_sharing_demo("cv", 3, r=1.0)
        assert report.all_collective
        for scan in report.collective:
            for value in scan.subsets:
                assert value.value >= 1.0 - 1e-9

    # up to MAX_GHZ_SQUEEZING = 4, where the lone modes sit ~1.5e-10 under 1
    @pytest.mark.parametrize("r", [0.25 * k for k in range(1, 17)])
    def test_cv_demo_across_squeezing(self, r):
        report = secret_sharing_demo("cv", 3, r)
        assert report.all_collective
        for result in report.monogamy:
            assert result.satisfied

    def test_cv_vacuum_fails(self):
        report = secret_sharing_demo("cv", 3, r=0.0)
        assert not report.all_collective

    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError):
            secret_sharing_demo("qubit", 4)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            secret_sharing_demo("trapped-ion", 3)


class TestEavesdropSweep:
    def test_full_transmission_keeps_steering(self):
        (record,) = eavesdrop_sweep(1.5, [1.0])
        assert record.accomplice_value < 1.0
        assert record.accomplice_verdict
        assert not record.eavesdropper_verdict

    def test_half_transmission_symmetry(self):
        for r in (0.5, 1.0, 1.5):
            (record,) = eavesdrop_sweep(r, [0.5])
            assert abs(record.accomplice_value - record.eavesdropper_value) <= 1e-9
            assert record.accomplice_value >= 1.0 - 1e-9
            assert record.eavesdropper_value >= 1.0 - 1e-9

    def test_zero_transmission_unconditioned_mode(self):
        state = cv_ghz(1.5)
        (record,) = eavesdrop_sweep(1.5, [0.0])
        var_x = state.cov[0, 0]
        var_p = state.cov[1, 1]
        assert record.accomplice_value == pytest.approx(math.sqrt(var_x * var_p), abs=1e-10)

    def test_accomplice_value_decreases_with_eta(self):
        records = eavesdrop_sweep(1.5, [0.0, 0.25, 0.5, 0.75, 1.0])
        values = [rec.accomplice_value for rec in records]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_monogamy_floor_on_grid(self):
        for record in eavesdrop_sweep(1.0, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]):
            assert record.monogamy_product >= 1.0 - 1e-9

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            eavesdrop_sweep(1.0, [])
        with pytest.raises(ValueError):
            eavesdrop_sweep(1.0, [0.5, 0.4])
        with pytest.raises(ValueError):
            eavesdrop_sweep(1.0, [0.5, 1.5])

    @pytest.mark.parametrize("r", [-0.1, math.nan, math.inf])
    def test_rejects_bad_squeezing(self, r):
        with pytest.raises(ValueError, match="finite"):
            eavesdrop_sweep(r, [0.0, 1.0])


class TestSimulateShots:
    def _spin_plan(self):
        return SpinSumShotPlan(
            SitePartition(frozenset({1, 2}), 3),
            qubits.ghz_predictor(3, "x"),
            qubits.ghz_predictor(3, "y"),
        )

    def test_deterministic_given_seed(self):
        a = simulate_shots(ghz(3), self._spin_plan(), 5000, seed=11)
        b = simulate_shots(ghz(3), self._spin_plan(), 5000, seed=11)
        assert a == b

    def test_different_seeds_differ(self):
        state = depolarize_global(ghz(3), 0.5)
        a = simulate_shots(state, self._spin_plan(), 5000, seed=11)
        b = simulate_shots(state, self._spin_plan(), 5000, seed=12)
        assert a.estimate != b.estimate

    def test_ghz_estimate_is_exactly_zero(self):
        result = simulate_shots(ghz(3), self._spin_plan(), 10_000, seed=0)
        assert result.estimate <= 5.0 * max(result.standard_error, 1e-12)

    def test_depolarized_estimate_matches_exact(self):
        state = depolarize_global(ghz(3), 0.5)
        result = simulate_shots(state, self._spin_plan(), 100_000, seed=1)
        assert abs(result.estimate - 2.0) <= 5.0 * result.standard_error

    def test_gaussian_combo_estimate(self):
        state = cv_ghz(1.0)
        combo = quadrature_combo(3, p={1: 1.0, 2: 1.0, 3: 1.0})
        result = simulate_shots(state, ComboShotPlan(combo), 100_000, seed=2)
        exact = 3.0 * math.exp(-2.0)
        assert abs(result.estimate - exact) <= 5.0 * result.standard_error

    def test_error_shrinks_like_root_shots(self):
        state = depolarize_global(ghz(3), 0.5)
        shots = [400, 1600, 6400, 25_600, 102_400]
        errors = [
            simulate_shots(state, self._spin_plan(), s, seed=5).standard_error for s in shots
        ]
        slope = np.polyfit(np.log(shots), np.log(errors), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_rejects_too_few_shots(self):
        with pytest.raises(ValueError):
            simulate_shots(ghz(3), self._spin_plan(), 1, seed=0)

    @pytest.mark.parametrize("shots", [3.9, True, "10", None])
    def test_rejects_shot_counts_that_are_not_integers(self, shots):
        combo = quadrature_combo(3, p={1: 1.0})
        for state, plan in ((ghz(3), self._spin_plan()), (cv_ghz(1.0), ComboShotPlan(combo))):
            with pytest.raises(ValueError, match="shots must be an integer"):
                simulate_shots(state, plan, shots, seed=0)

    @pytest.mark.parametrize("seed", [True, 2.5, "3", -1])
    def test_rejects_seeds_that_are_not_non_negative_integers(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            simulate_shots(ghz(3), self._spin_plan(), 100, seed=seed)

    def test_accepts_numpy_integers(self):
        result = simulate_shots(ghz(3), self._spin_plan(), np.int64(100), seed=np.uint8(3))
        assert type(result.shots) is int and type(result.seed) is int
        assert result == simulate_shots(ghz(3), self._spin_plan(), 100, seed=3)

    def test_gaussian_plan_needs_gaussian_state(self):
        combo = quadrature_combo(3, p={1: 1.0})
        with pytest.raises(ValueError):
            simulate_shots(ghz(3), ComboShotPlan(combo), 100, seed=0)

    def test_predictor_outside_the_group(self):
        # a predictor on site 2 cannot stand in for a measurement of site 1
        part = SitePartition(frozenset({1}), 3)
        px, py = qubits.ghz_predictor(3, "x"), qubits.ghz_predictor(3, "y")
        for plan in (SpinSumShotPlan(part, px, py), SpinSumShotPlan(part, py, px)):
            with pytest.raises(ValueError, match=r"outside the steering group at sites \[2\]$"):
                simulate_shots(ghz(3), plan, 1000, seed=1)


class TestSweeps:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig("qubit", "noise-genuine-sum", "p", ())
        with pytest.raises(ValueError):
            SweepConfig("qubit", "noise-genuine-sum", "p", (0.5, 0.5))
        with pytest.raises(ValueError):
            SweepConfig("abacus", "noise-genuine-sum", "p", (0.1,))

    def test_config_seed_is_a_python_int(self):
        config = SweepConfig("qubit", "noise-genuine-sum", "p", (0.1,), seed=np.int64(4))
        assert type(config.seed) is int and config.seed == 4

    def test_unknown_scenario(self):
        config = SweepConfig("qubit", "unknown", "p", (0.1, 0.2))
        with pytest.raises(ValueError):
            run_sweep(config)

    def test_backend_mismatch(self):
        config = SweepConfig("cv", "noise-genuine-sum", "p", (0.1, 0.2))
        with pytest.raises(ValueError):
            run_sweep(config)

    def test_parameter_mismatch(self):
        config = SweepConfig("qubit", "noise-genuine-sum", "eta", (0.1, 0.2))
        with pytest.raises(ValueError):
            run_sweep(config)

    def test_noise_sweep_rows(self):
        config = SweepConfig("qubit", "noise-genuine-sum", "p", (0.0, 0.5, 1.0))
        rows = run_sweep(config)
        assert [row["param_value"] for row in rows] == [0.0, 0.5, 1.0]
        assert rows[0]["value"] == pytest.approx(12.0)
        assert rows[1]["value"] == pytest.approx(6.0)
        assert rows[2]["value"] == pytest.approx(0.0, abs=1e-12)
        assert rows[2]["verdict"] is True

    # threshold scenario -> (backend, parameter, sweep scenario it bisects)
    THRESHOLD_LINKS = {
        "three-obs-eta": ("qubit", "eta", "three-obs-eta"),
        "two-obs-eta": ("qubit", "eta", "two-obs-eta"),
        "cv-genuine-r": ("cv", "r", "cv-genuine-sum"),
    }

    def test_threshold_names_are_linked(self):
        assert set(THRESHOLD_SCENARIOS) == set(self.THRESHOLD_LINKS)

    @pytest.mark.parametrize("name", sorted(THRESHOLD_LINKS))
    def test_threshold_bracket_straddles_sweep_flip(self, name):
        backend, parameter, scenario = self.THRESHOLD_LINKS[name]
        result = run_threshold_scenario(name)
        rows = run_sweep(SweepConfig(backend, scenario, parameter, result.bracket))
        assert rows[0]["verdict"] != rows[1]["verdict"]

    def test_cv_sweep_flips_at_known_squeezing(self):
        grid = (0.9, 0.95, 1.0, 1.05)
        rows = run_sweep(SweepConfig("cv", "cv-genuine-sum", "r", grid))
        verdicts = [row["verdict"] for row in rows]
        critical = math.log(3.0 * math.sqrt(6.0)) / 2.0
        assert verdicts == [value > critical for value in grid]
