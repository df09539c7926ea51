"""Gaussian backend: symplectic circuit ops, CV resource, conditional variances."""

import math

import numpy as np
import pytest

from steerkit import gaussian
from steerkit.gaussian import (
    GaussianState,
    HomodynePlan,
    QuadratureCombo,
    beamsplitter,
    beamsplitter_matrix,
    combo_variance,
    cv_ghz,
    eavesdrop_scenario,
    fixed_combo_steering,
    loss_channel,
    optimal_conditional_variance,
    p_quadrature,
    quadrature_combo,
    random_pure_gaussian,
    squeeze,
    squeeze_matrix,
    steering_product_cv,
    symplectic_eigenvalues,
    symplectic_form,
    vacuum,
    x_quadrature,
)

import oracles


def two_mode_squeezed(r):
    """x-squeezed plus p-squeezed combined on a balanced beamsplitter."""
    state = vacuum(2)
    state = squeeze(state, 1, r, angle=0.0)
    state = squeeze(state, 2, r, angle=math.pi / 2.0)
    return beamsplitter(state, 1, 2, 0.5)


class TestVacuumAndValidation:
    def test_vacuum_covariance_is_identity(self):
        np.testing.assert_array_equal(vacuum(3).cov, np.eye(6))

    def test_vacuum_is_pure(self):
        np.testing.assert_allclose(symplectic_eigenvalues(vacuum(2).cov), [1.0, 1.0])

    def test_rejects_asymmetric_covariance(self):
        cov = np.eye(2)
        cov[0, 1] = 0.5
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), cov)

    def test_rejects_unphysical_covariance(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), 0.5 * np.eye(2))

    @pytest.mark.parametrize(
        "mean, cov",
        [
            ([math.nan, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
            ([0.0, 0.0], [[math.nan, 0.0], [0.0, 1.0]]),
            ([0.0, 0.0], [[math.inf, 0.0], [0.0, 1.0]]),
        ],
    )
    def test_rejects_non_finite_moments(self, mean, cov):
        with pytest.raises(ValueError, match="finite"):
            GaussianState(np.array(mean), np.array(cov))

    def test_arrays_are_frozen(self):
        state = vacuum(1)
        with pytest.raises(ValueError):
            state.cov[0, 0] = 2.0


class TestCircuitOperations:
    def test_squeeze_x_axis(self):
        state = squeeze(vacuum(1), 1, 0.5, angle=0.0)
        assert state.cov[0, 0] == pytest.approx(math.exp(-1.0))
        assert state.cov[1, 1] == pytest.approx(math.exp(1.0))

    def test_squeeze_p_axis(self):
        state = squeeze(vacuum(1), 1, 0.5, angle=math.pi / 2.0)
        assert state.cov[1, 1] == pytest.approx(math.exp(-1.0))
        assert state.cov[0, 0] == pytest.approx(math.exp(1.0))

    def test_squeeze_zero_is_identity(self):
        state = squeeze(cv_ghz(0.7), 2, 0.0)
        np.testing.assert_allclose(state.cov, cv_ghz(0.7).cov, atol=1e-14)

    def test_squeeze_rejects_negative_r(self):
        with pytest.raises(ValueError):
            squeeze(vacuum(1), 1, -0.1)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_squeezing_rejects_non_finite_r(self, r):
        with pytest.raises(ValueError, match="finite"):
            squeeze(vacuum(1), 1, r)
        with pytest.raises(ValueError, match="finite"):
            cv_ghz(r)

    def test_beamsplitter_full_transmission_passes_modes_through(self):
        # T=1 reflects mode j's quadratures (x_j, p_j) -> -(x_j, p_j), so the
        # pair is identical up to that unobservable local sign: all marginals
        # survive, any product state is exactly unchanged, and applying the
        # splitter twice is the identity.
        state = squeeze(squeeze(vacuum(2), 1, 0.8), 2, 0.5, angle=0.7)
        after = beamsplitter(state, 1, 2, 1.0)
        np.testing.assert_allclose(after.cov, state.cov, atol=1e-12)

        correlated = two_mode_squeezed(0.8)
        twice = beamsplitter(beamsplitter(correlated, 1, 2, 1.0), 1, 2, 1.0)
        np.testing.assert_allclose(twice.cov, correlated.cov, atol=1e-12)
        once = beamsplitter(correlated, 1, 2, 1.0)
        for mode in (1, 2):
            k = 2 * (mode - 1)
            np.testing.assert_allclose(
                once.cov[k : k + 2, k : k + 2],
                correlated.cov[k : k + 2, k : k + 2],
                atol=1e-12,
            )

    def test_beamsplitter_preserves_vacuum(self):
        after = beamsplitter(vacuum(2), 1, 2, 0.5)
        np.testing.assert_allclose(after.cov, np.eye(4), atol=1e-14)

    def test_beamsplitter_mixes_squeezed_and_vacuum(self):
        r = 0.9
        state = squeeze(vacuum(2), 1, r, angle=0.0)
        after = beamsplitter(state, 1, 2, 0.5)
        assert after.cov[0, 0] == pytest.approx((math.exp(-2.0 * r) + 1.0) / 2.0)

    def test_beamsplitter_rejects_bad_transmissivity(self):
        with pytest.raises(ValueError):
            beamsplitter(vacuum(2), 1, 2, 1.5)
        with pytest.raises(ValueError):
            beamsplitter(vacuum(2), 1, 1, 0.5)

    def test_symplectic_matrices(self):
        omega = symplectic_form(2)
        for transform in (
            squeeze_matrix(2, 1, 0.7, 0.3),
            beamsplitter_matrix(2, 1, 2, 0.3),
        ):
            np.testing.assert_allclose(transform @ omega @ transform.T, omega, atol=1e-10)

    def test_loss_full_efficiency_is_identity(self):
        state = two_mode_squeezed(0.8)
        np.testing.assert_allclose(loss_channel(state, 1, 1.0).cov, state.cov, atol=1e-14)

    def test_loss_zero_replaces_with_vacuum(self):
        state = squeeze(vacuum(1), 1, 1.0)
        after = loss_channel(state, 1, 0.0)
        np.testing.assert_allclose(after.cov, np.eye(2), atol=1e-14)

    def test_loss_half_on_squeezed_mode(self):
        state = squeeze(vacuum(1), 1, 1.0)
        after = loss_channel(state, 1, 0.5)
        assert after.cov[0, 0] == pytest.approx((math.exp(-2.0) + 1.0) / 2.0)

    def test_loss_matches_beamsplitter_with_traced_ancilla(self):
        state = squeeze(vacuum(2), 1, 1.2, angle=0.4)
        eta = 0.3
        direct = loss_channel(state, 1, eta)
        # same channel via an explicit vacuum ancilla on mode 3
        big = GaussianState(
            np.concatenate([state.mean, np.zeros(2)]),
            np.block([[state.cov, np.zeros((4, 2))], [np.zeros((2, 4)), np.eye(2)]]),
        )
        mixed = beamsplitter(big, 1, 3, eta)
        np.testing.assert_allclose(mixed.cov[:4, :4], direct.cov, atol=1e-12)


class TestCvGhzResource:
    def test_zero_squeezing_is_vacuum(self):
        np.testing.assert_allclose(cv_ghz(0.0).cov, np.eye(6), atol=1e-12)

    @pytest.mark.parametrize("r", [0.3, 1.0, 1.7])
    def test_difference_and_sum_variances(self, r):
        state = cv_ghz(r)
        for j, k in ((1, 2), (1, 3), (2, 3)):
            combo = quadrature_combo(3, x={j: 1.0, k: -1.0})
            assert combo_variance(state, combo) == pytest.approx(2.0 * math.exp(-2.0 * r), abs=1e-12)
        total_p = quadrature_combo(3, p={1: 1.0, 2: 1.0, 3: 1.0})
        assert combo_variance(state, total_p) == pytest.approx(3.0 * math.exp(-2.0 * r), abs=1e-12)

    def test_single_mode_variance_grows(self):
        r = 1.0
        state = cv_ghz(r)
        want = math.exp(2.0 * r) / 3.0 + 2.0 * math.exp(-2.0 * r) / 3.0
        for mode in (1, 2, 3):
            assert state.cov[2 * (mode - 1), 2 * (mode - 1)] == pytest.approx(want, abs=1e-12)

    def test_output_is_pure(self):
        nu = symplectic_eigenvalues(cv_ghz(1.3).cov)
        np.testing.assert_allclose(nu, np.ones(3), atol=1e-9)

    def test_rejects_negative_squeezing(self):
        with pytest.raises(ValueError):
            cv_ghz(-0.5)


class TestCombosAndPlans:
    def test_combo_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            QuadratureCombo(np.zeros(6))

    def test_combo_rejects_odd_length(self):
        with pytest.raises(ValueError):
            QuadratureCombo(np.ones(5))

    def test_combo_support(self):
        combo = quadrature_combo(3, x={1: 1.0}, p={3: -2.0})
        assert combo.support == (1, 3)

    def test_vacuum_difference_variance(self):
        combo = quadrature_combo(3, x={1: 1.0, 2: -1.0})
        assert combo_variance(vacuum(3), combo) == pytest.approx(2.0)

    def test_plan_rejects_duplicate_mode(self):
        with pytest.raises(ValueError):
            HomodynePlan(((2, 0.0), (2, 1.0)))

    def test_plan_rejects_empty(self):
        with pytest.raises(ValueError):
            HomodynePlan(())

    def test_plan_vectors_at_angles(self):
        plan = HomodynePlan.of({2: 0.0, 3: math.pi / 2.0})
        rows = plan.vectors(3)
        np.testing.assert_allclose(rows[0], [0, 0, 1, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(rows[1], [0, 0, 0, 0, 0, 1], atol=1e-15)


class TestConditionalVariance:
    def test_vacuum_is_unconditioned(self):
        got = optimal_conditional_variance(
            vacuum(3), x_quadrature(3, 1), HomodynePlan.x_on(2, 3)
        )
        assert got == pytest.approx(1.0)

    @pytest.mark.parametrize("r", [0.4, 1.0, 1.6])
    def test_two_mode_squeezed_closed_form(self, r):
        state = two_mode_squeezed(r)
        got = optimal_conditional_variance(state, x_quadrature(2, 1), HomodynePlan.x_on(2))
        assert got == pytest.approx(1.0 / math.cosh(2.0 * r), abs=1e-12)

    def test_beats_fixed_unit_gain_on_ghz(self):
        r = 0.8
        state = cv_ghz(r)
        got = optimal_conditional_variance(state, x_quadrature(3, 1), HomodynePlan.x_on(2, 3))
        assert got <= 2.0 * math.exp(-2.0 * r) + 1e-12

    def test_rejects_plan_overlapping_target(self):
        with pytest.raises(ValueError):
            optimal_conditional_variance(
                vacuum(3), x_quadrature(3, 1), HomodynePlan.x_on(1, 2)
            )

    def test_matches_gain_search_oracle(self):
        rng = np.random.default_rng(31)
        for trial in range(12):
            state = random_pure_gaussian(3, rng)
            target = x_quadrature(3, 1)
            plan = HomodynePlan.of({2: float(rng.uniform(0, math.pi)), 3: float(rng.uniform(0, math.pi))})
            got = optimal_conditional_variance(state, target, plan)
            want = oracles.nelder_mead_conditional_variance(
                state.cov, target.coefficients, plan.vectors(3)
            )
            assert got == pytest.approx(want, abs=1e-6)

    def test_never_above_fixed_gain(self):
        rng = np.random.default_rng(37)
        for trial in range(25):
            state = random_pure_gaussian(3, rng)
            target = x_quadrature(3, 1)
            plan = HomodynePlan.x_on(2, 3)
            optimal = optimal_conditional_variance(state, target, plan)
            gains = rng.normal(size=2)
            combo = QuadratureCombo(
                target.coefficients - gains @ plan.vectors(3)
            )
            assert optimal <= combo_variance(state, combo) + 1e-10


class TestSteeringProduct:
    def test_vacuum_product_is_one(self):
        value = steering_product_cv(
            vacuum(3), 1, HomodynePlan.x_on(2, 3), HomodynePlan.p_on(2, 3)
        )
        assert value.value == pytest.approx(1.0)
        assert not value.verdict

    def test_ghz_pair_steers(self):
        value = steering_product_cv(
            cv_ghz(1.0), 1, HomodynePlan.x_on(2, 3), HomodynePlan.p_on(2, 3)
        )
        assert value.value < 1.0
        assert value.verdict

    def test_two_mode_squeezed_product(self):
        r = 0.9
        state = two_mode_squeezed(r)
        value = steering_product_cv(state, 1, HomodynePlan.x_on(2), HomodynePlan.p_on(2))
        assert value.value == pytest.approx(1.0 / math.cosh(2.0 * r), abs=1e-12)


class TestFixedCombo:
    def test_vacuum_value(self):
        value = fixed_combo_steering(vacuum(3), 1, 2, 3)
        assert value.value == pytest.approx(math.sqrt(6.0))
        assert not value.verdict

    @pytest.mark.parametrize("r", [0.25, 0.75, 1.5])
    def test_ghz_closed_form(self, r):
        value = fixed_combo_steering(cv_ghz(r), 1, 2, 3)
        assert value.value == pytest.approx(math.sqrt(6.0) * math.exp(-2.0 * r), abs=1e-12)

    def test_threshold_squeezing_sits_on_bound(self):
        r_star = math.log(6.0) / 4.0
        value = fixed_combo_steering(cv_ghz(r_star), 1, 2, 3)
        assert value.value == pytest.approx(1.0, abs=1e-12)
        assert not value.verdict

    def test_permutation_symmetry(self):
        state = cv_ghz(0.8)
        values = [
            fixed_combo_steering(state, j, k, m).value
            for j, k, m in ((1, 2, 3), (2, 3, 1), (3, 1, 2), (1, 3, 2))
        ]
        assert max(values) - min(values) <= 1e-10

    def test_rejects_repeated_modes(self):
        with pytest.raises(ValueError):
            fixed_combo_steering(vacuum(3), 1, 1, 2)


class TestEavesdropScenario:
    def test_full_transmission_leaves_taps_in_vacuum(self):
        state = eavesdrop_scenario(1.2, 1.0)
        np.testing.assert_allclose(state.cov[6:, 6:], np.eye(4), atol=1e-12)
        np.testing.assert_allclose(state.cov[:6, 6:], 0.0, atol=1e-12)
        np.testing.assert_allclose(state.cov[:6, :6], cv_ghz(1.2).cov, atol=1e-12)

    def test_half_transmission_swap_symmetry(self):
        state = eavesdrop_scenario(1.5, 0.5)
        swap = np.zeros((10, 10))
        swap[:2, :2] = np.eye(2)
        for a, b in ((2, 4), (3, 5)):
            swap[2 * (a - 1): 2 * a, 2 * (b - 1): 2 * b] = np.eye(2)
            swap[2 * (b - 1): 2 * b, 2 * (a - 1): 2 * a] = np.eye(2)
        np.testing.assert_allclose(swap @ state.cov @ swap.T, state.cov, atol=1e-12)

    def test_output_stays_physical(self):
        for eta in (0.0, 0.3, 0.7, 1.0):
            nu = symplectic_eigenvalues(eavesdrop_scenario(1.0, eta).cov)
            assert nu.min() >= 1.0 - 1e-9


class TestRandomGaussian:
    def test_pure_and_seeded(self):
        a = random_pure_gaussian(3, np.random.default_rng(77))
        b = random_pure_gaussian(3, np.random.default_rng(77))
        np.testing.assert_array_equal(a.cov, b.cov)
        np.testing.assert_allclose(symplectic_eigenvalues(a.cov), np.ones(3), atol=1e-9)

    def test_passive_layer_is_symplectic(self):
        transform = gaussian._haar_orthosymplectic(4, np.random.default_rng(3))
        omega = symplectic_form(4)
        np.testing.assert_allclose(transform @ omega @ transform.T, omega, atol=1e-10)
