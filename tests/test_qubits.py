"""Qubit backend: states, Pauli expectations, predictors, inference, loss."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from steerkit import qubits
from steerkit.core import SitePartition
from steerkit.criteria import monogamy_check, spin_three_obs, spin_two_obs
from steerkit.qubits import (
    DensityMatrix,
    DetectionModel,
    PauliString,
    PureState,
    depolarize_global,
    expectation,
    ghz,
    ghz_predictor,
    ghz_predictor_for_target,
    ghz_z_predictor,
    inference_variance_with_loss,
    optimal_inference_variance,
    random_density_matrix,
    random_pure_state,
    variance_of_difference,
)

import oracles


class TestGhzState:
    def test_amplitudes_n3(self):
        state = ghz(3)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0 / math.sqrt(2.0)
        expected[7] = -1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(state.amplitudes, expected, atol=0)

    def test_amplitudes_n2(self):
        state = ghz(2)
        assert state.amplitudes[0] == pytest.approx(1.0 / math.sqrt(2.0))
        assert state.amplitudes[3] == pytest.approx(-1.0 / math.sqrt(2.0))
        assert np.all(state.amplitudes[1:3] == 0)

    def test_normalized(self):
        for n in range(2, 9):
            assert np.linalg.norm(ghz(n).amplitudes) == pytest.approx(1.0)

    def test_rejects_n_below_2(self):
        with pytest.raises(ValueError):
            ghz(1)

    def test_rejects_n_above_cap(self):
        with pytest.raises(ValueError):
            ghz(qubits.MAX_QUBITS + 1)


class TestStateValidation:
    def test_pure_state_must_be_normalized(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_pure_state_length_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 0.0, 0.0]) / 1.0)

    def test_density_must_be_hermitian(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            DensityMatrix(bad)

    def test_density_must_have_unit_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_density_must_be_positive(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix(bad)

    @pytest.mark.parametrize(
        "cls, data",
        [
            (PureState, [1.0, math.nan]),
            (PureState, [math.inf, 0.0]),
            (DensityMatrix, [[math.nan, 0.0], [0.0, 1.0]]),
            (DensityMatrix, [[0.5, math.nan], [math.nan, 0.5]]),
        ],
    )
    def test_rejects_non_finite_entries(self, cls, data):
        with pytest.raises(ValueError, match="finite"):
            cls(np.array(data))

    def test_arrays_are_frozen(self):
        state = ghz(2)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    @pytest.mark.parametrize(
        "build", [lambda: ghz(3), lambda: depolarize_global(ghz(3), 0.5)], ids=["pure", "mixed"]
    )
    def test_states_compare_by_identity(self, build):
        # a dataclass == would compare the arrays, whose truth value is ambiguous
        state, twin = build(), build()
        assert state == state and state != twin
        assert state in [twin, state] and twin not in [state]
        assert len({state, twin, state}) == 2
        assert hash(state) == hash(state)


class TestPauliString:
    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            PauliString(("X", "Q"))

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            PauliString(("X", "X"), sign=2)

    def test_from_sites_places_labels(self):
        string = PauliString.from_sites(4, {2: "Y", 4: "X"}, sign=-1)
        assert string.factors == ("I", "Y", "I", "X")
        assert string.sign == -1
        assert string.support == (2, 4)

    def test_squares_to_identity(self):
        string = PauliString(("X", "Y", "Z"), sign=-1)
        dense = string.dense()
        np.testing.assert_allclose(dense @ dense, np.eye(8), atol=1e-12)


class TestExpectation:
    def test_ghz3_xyy_is_plus_one(self):
        assert expectation(ghz(3), PauliString(("X", "Y", "Y"))) == pytest.approx(1.0)

    def test_identity_string_is_one(self):
        rho = random_density_matrix(2, np.random.default_rng(5))
        assert expectation(rho, PauliString(("I", "I"))) == pytest.approx(1.0)

    def test_ghz3_single_site_z_is_zero(self):
        assert expectation(ghz(3), PauliString.single(3, 1, "Z")) == pytest.approx(0.0, abs=1e-12)

    def test_ghz3_xxx_is_minus_one(self):
        assert expectation(ghz(3), PauliString(("X", "X", "X"))) == pytest.approx(-1.0)

    def test_ghz3_zz_correlation(self):
        assert expectation(ghz(3), PauliString(("Z", "Z", "I"))) == pytest.approx(1.0)

    def test_sign_carries_through(self):
        assert expectation(ghz(3), PauliString(("X", "Y", "Y"), sign=-1)) == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(ghz(3), PauliString(("X", "X")))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dense_oracle_on_random_states(self, n):
        rng = np.random.default_rng(100 + n)
        labels = "IXYZ"
        for trial in range(30):
            rho = random_density_matrix(n, rng)
            factors = tuple(rng.choice(list(labels)) for _ in range(n))
            sign = int(rng.choice([1, -1]))
            string = PauliString(factors, sign)
            want = oracles.dense_expectation(rho.matrix, factors, sign)
            assert expectation(rho, string) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_dense_oracle_on_pure_states(self, n):
        rng = np.random.default_rng(200 + n)
        for trial in range(30):
            psi = random_pure_state(n, rng)
            factors = tuple(rng.choice(list("IXYZ")) for _ in range(n))
            string = PauliString(factors)
            want = oracles.dense_expectation(psi.density_matrix().matrix, factors)
            assert expectation(psi, string) == pytest.approx(want, abs=1e-12)

    @staticmethod
    def _band_expectation(state, string):
        """expectation computed with a fresh array per step of the band."""
        flip, phase_mask, prefactor = qubits._string_masks(string)
        components, weights, noise = qubits._ensemble(state)
        idx = np.arange(components.shape[1], dtype=np.uint64)
        conj_flipped = np.conj(components[:, idx ^ np.uint64(flip)])
        band = (weights[:, None] * (components * conj_flipped)).sum(axis=0)
        if flip == 0:
            band += noise / components.shape[1]
        raw = np.sum(qubits._parity_signs(idx & np.uint64(phase_mask)) * band)
        return float((prefactor * raw).real)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_in_place_band_keeps_the_bits(self, n):
        rng = np.random.default_rng(300 + n)
        states = [random_pure_state(n, rng), depolarize_global(ghz(n), 0.4)]
        states += [random_density_matrix(n, rng, rank) for rank in (1, 2, 4)]
        for state in states:
            for _ in range(20):
                string = PauliString(tuple(rng.choice(list("IXYZ"), size=n)), int(rng.choice([1, -1])))
                assert expectation(state, string) == self._band_expectation(state, string)


class TestVarianceOfDifference:
    def test_ghz3_x_predictor_is_zero(self):
        target = PauliString.single(3, 3, "X")
        predictor = PauliString.from_sites(3, {1: "Y", 2: "Y"})
        assert variance_of_difference(ghz(3), target, predictor) == pytest.approx(0.0, abs=1e-12)

    def test_half_depolarized_closed_form(self):
        rho = depolarize_global(ghz(3), 0.5)
        target = PauliString.single(3, 3, "X")
        predictor = PauliString.from_sites(3, {1: "Y", 2: "Y"})
        assert variance_of_difference(rho, target, predictor) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_deterministic_pair(self):
        zero_zero = PureState(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
        target = PauliString.single(2, 2, "Z")
        predictor = PauliString.single(2, 1, "Z")
        assert variance_of_difference(zero_zero, target, predictor) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_overlapping_support(self):
        target = PauliString.single(3, 3, "X")
        predictor = PauliString.from_sites(3, {2: "Y", 3: "Y"})
        with pytest.raises(ValueError):
            variance_of_difference(ghz(3), target, predictor)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(40):
            n = int(rng.integers(2, 5))
            rho = random_density_matrix(n, rng)
            target_site = int(rng.integers(1, n + 1))
            t_label = str(rng.choice(["X", "Y", "Z"]))
            target = PauliString.single(n, target_site, t_label)
            p_factors = tuple(
                "I" if site == target_site else str(rng.choice(list("IXYZ")))
                for site in range(1, n + 1)
            )
            p_sign = int(rng.choice([1, -1]))
            predictor = PauliString(p_factors, p_sign)
            got = variance_of_difference(rho, target, predictor)
            want = oracles.dense_difference_variance(
                rho.matrix, target.factors, target.sign, p_factors, p_sign
            )
            assert got == pytest.approx(want, abs=1e-10)


class TestGhzPredictors:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_zero_difference_variance(self, n):
        state = ghz(n)
        for component in ("x", "y"):
            target = PauliString.single(n, n, component.upper())
            predictor = ghz_predictor(n, component)
            assert variance_of_difference(state, target, predictor) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_n3_x_matches_stated_form(self):
        predictor = ghz_predictor(3, "x")
        assert predictor.sign == 1
        assert predictor.factors == ("Y", "Y", "I")

    def test_n3_y_is_mixed_xy_string(self):
        predictor = ghz_predictor(3, "y")
        assert predictor.sign == 1
        assert sorted(predictor.factors) == ["I", "X", "Y"]
        assert predictor.factors[2] == "I"

    def test_supported_off_target_only(self):
        for n in range(2, 7):
            for component in ("x", "y"):
                assert n not in ghz_predictor(n, component).support

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("target_site", [1, 2])
    def test_any_target_site(self, n, target_site):
        if target_site > n:
            pytest.skip("site outside range")
        state = ghz(n)
        for component in ("x", "y"):
            target = PauliString.single(n, target_site, component.upper())
            predictor = ghz_predictor_for_target(n, target_site, component)
            assert target_site not in predictor.support
            assert variance_of_difference(state, target, predictor) == pytest.approx(
                0.0, abs=1e-12
            )

    @pytest.mark.parametrize("n", range(2, 7))
    def test_z_predictor(self, n):
        state = ghz(n)
        target = PauliString.single(n, n, "Z")
        predictor = ghz_z_predictor(n)
        assert n not in predictor.support
        assert variance_of_difference(state, target, predictor) == pytest.approx(0.0, abs=1e-12)


class TestDepolarize:
    def test_p_one_is_identity(self):
        rho = depolarize_global(ghz(3), 1.0)
        np.testing.assert_allclose(rho.matrix, ghz(3).density_matrix().matrix, atol=1e-14)

    def test_p_zero_is_maximally_mixed(self):
        rho = depolarize_global(ghz(3), 0.0)
        np.testing.assert_allclose(rho.matrix, np.eye(8) / 8.0, atol=1e-14)

    def test_scales_traceless_expectations(self):
        rho = depolarize_global(ghz(3), 0.5)
        assert expectation(rho, PauliString(("X", "Y", "Y"))) == pytest.approx(0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            depolarize_global(ghz(3), 1.5)
        with pytest.raises(ValueError):
            depolarize_global(ghz(3), -0.1)


class TestOptimalInference:
    def test_ghz3_pair_settings_perfect(self):
        partition = SitePartition(frozenset({1, 2}), 3)
        target = PauliString.single(3, 3, "X")
        got = optimal_inference_variance(ghz(3), partition, target, {1: "Y", 2: "Y"})
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_single_party_gains_nothing(self):
        partition = SitePartition(frozenset({2}), 3)
        target = PauliString.single(3, 3, "X")
        got = optimal_inference_variance(ghz(3), partition, target, {2: "Y"})
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_half_depolarized_closed_form(self):
        rho = depolarize_global(ghz(3), 0.5)
        partition = SitePartition(frozenset({1, 2}), 3)
        target = PauliString.single(3, 3, "X")
        got = optimal_inference_variance(rho, partition, target, {1: "Y", 2: "Y"})
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_settings_must_cover_group_exactly(self):
        partition = SitePartition(frozenset({1, 2}), 3)
        target = PauliString.single(3, 3, "X")
        with pytest.raises(ValueError):
            optimal_inference_variance(ghz(3), partition, target, {1: "Y"})
        with pytest.raises(ValueError):
            optimal_inference_variance(ghz(3), partition, target, {1: "Y", 2: "Y", 3: "X"})

    def test_never_exceeds_predictor_variance(self):
        rng = np.random.default_rng(7)
        partition = SitePartition(frozenset({1, 2}), 3)
        target = PauliString.single(3, 3, "X")
        predictor = PauliString.from_sites(3, {1: "Y", 2: "Y"})
        for trial in range(25):
            rho = random_density_matrix(3, rng)
            optimal = optimal_inference_variance(rho, partition, target, {1: "Y", 2: "Y"})
            fixed = variance_of_difference(rho, target, predictor)
            assert optimal <= fixed + 1e-10

    def test_partly_seen_outcomes_match_brute_oracle(self):
        # support only where sites 1 and 2 agree, so settings with Z on both
        # leave some group outcomes unseen; the kernel sums only seen ones
        rng = np.random.default_rng(12)
        for n in (4, 5):
            bits = (np.arange(2**n) >> (n - 2)) & 3
            amplitudes = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            amplitudes[(bits == 1) | (bits == 2)] = 0.0
            pure = qubits.PureState(amplitudes / np.linalg.norm(amplitudes))
            rho = np.outer(pure.amplitudes, pure.amplitudes.conj())
            mixed = qubits.DensityMatrix(0.7 * rho + 0.3 * np.diag(np.diag(rho)))
            partition = SitePartition(frozenset(range(1, n)), n)
            for state in (pure, mixed):
                matrix = rho if state is pure else state.matrix
                for trial in range(6):
                    settings = {1: "Z", 2: "Z"}
                    settings.update({s: str(rng.choice(["X", "Y", "Z"])) for s in range(3, n)})
                    target = PauliString.single(n, n, str(rng.choice(["X", "Y"])))
                    got = optimal_inference_variance(state, partition, target, settings)
                    want = oracles.brute_inference_variance(
                        matrix, target.factors, target.sign, settings
                    )
                    assert abs(got - want) <= 1e-12

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            n = int(rng.integers(2, 4))
            rho = random_density_matrix(n, rng)
            target_site = int(rng.integers(1, n + 1))
            group = frozenset(range(1, n + 1)) - {target_site}
            settings = {site: str(rng.choice(["X", "Y", "Z"])) for site in group}
            target = PauliString.single(n, target_site, str(rng.choice(["X", "Y", "Z"])))
            partition = SitePartition(group, target_site)
            got = optimal_inference_variance(rho, partition, target, settings)
            want = oracles.brute_inference_variance(
                rho.matrix, target.factors, target.sign, settings
            )
            assert got == pytest.approx(want, abs=1e-10)


class TestDetectionModel:
    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            DetectionModel(1.5)
        with pytest.raises(ValueError):
            DetectionModel(-0.1)

    def test_constant_guess_needs_value(self):
        with pytest.raises(ValueError):
            DetectionModel(0.5, "constant-guess")

    def test_marginal_mean_rejects_guess(self):
        with pytest.raises(ValueError):
            DetectionModel(0.5, "marginal-mean", 1.0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            DetectionModel(0.5, "coin-flip")


class TestInferenceWithLoss:
    def _ghz3_pieces(self):
        partition = SitePartition(frozenset({1, 2}), 3)
        target = PauliString.single(3, 3, "X")
        predictor = PauliString.from_sites(3, {1: "Y", 2: "Y"})
        return ghz(3), partition, target, predictor

    def test_full_efficiency_reduces_to_lossless(self):
        state, partition, target, predictor = self._ghz3_pieces()
        for policy, guess in (("marginal-mean", None), ("constant-guess", 1.0)):
            model = DetectionModel(1.0, policy, guess)
            got = inference_variance_with_loss(state, partition, target, predictor, model)
            assert got == pytest.approx(0.0, abs=1e-12)

    def test_marginal_mean_closed_form(self):
        state, partition, target, predictor = self._ghz3_pieces()
        model = DetectionModel(0.5)
        got = inference_variance_with_loss(state, partition, target, predictor, model)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_constant_guess_closed_form(self):
        state, partition, target, predictor = self._ghz3_pieces()
        model = DetectionModel(0.5, "constant-guess", 1.0)
        got = inference_variance_with_loss(state, partition, target, predictor, model)
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_matches_two_branch_mixture_oracle(self):
        rng = np.random.default_rng(23)
        state, partition, target, predictor = self._ghz3_pieces()
        for trial in range(20):
            rho = random_density_matrix(3, rng)
            eta = float(rng.uniform(0.0, 1.0))
            model = DetectionModel(eta)
            got = inference_variance_with_loss(rho, partition, target, predictor, model)
            e_t = oracles.dense_expectation(rho.matrix, target.factors, target.sign)
            var_click = oracles.dense_difference_variance(
                rho.matrix, target.factors, target.sign, predictor.factors, predictor.sign
            )
            mean_click = e_t - oracles.dense_expectation(
                rho.matrix, predictor.factors, predictor.sign
            )
            # no-click branch predicts <T>, so its error is T - <T>
            m2_noclick = 1.0 - e_t * e_t
            m2_click = var_click + mean_click * mean_click
            mixture_mean = eta * mean_click
            want = eta * m2_click + (1.0 - eta) * m2_noclick - mixture_mean**2
            assert got == pytest.approx(want, abs=1e-10)


class TestRandomStates:
    def test_pure_state_is_normalized_and_seeded(self):
        a = random_pure_state(3, np.random.default_rng(9))
        b = random_pure_state(3, np.random.default_rng(9))
        assert np.linalg.norm(a.amplitudes) == pytest.approx(1.0)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_density_matrix_valid_and_seeded(self):
        a = random_density_matrix(3, np.random.default_rng(9))
        b = random_density_matrix(3, np.random.default_rng(9))
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert np.trace(a.matrix).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(a.matrix).min() >= -1e-12

    def test_rank_control(self):
        rho = random_density_matrix(3, np.random.default_rng(1), rank=2)
        eigs = np.sort(np.linalg.eigvalsh(rho.matrix))
        assert np.all(np.abs(eigs[:-2]) < 1e-12)


def _random_ensemble(n, rng):
    """Mixed state of random rank, random weights and white noise: the
    normalized Ginibre columns of random_density_matrix, depolarized."""
    rank = int(rng.integers(1, 2**n + 1))
    return depolarize_global(random_density_matrix(n, rng, rank), float(rng.uniform(0.1, 0.9)))


class TestEnsembleStates:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_kernels_match_dense_oracles(self, n):
        rng = np.random.default_rng(300 + n)
        for trial in range(8):
            rho = _random_ensemble(n, rng)
            assert rho.noise > 0.0
            matrix = rho.matrix
            target_site = int(rng.integers(1, n + 1))
            group = frozenset(range(1, n + 1)) - {target_site}
            partition = SitePartition(group, target_site)
            # I and Z targets flip no bit, so the noise adds to their values
            target = PauliString.single(n, target_site, str(rng.choice(list("IXYZ"))))
            p_factors = tuple(
                "I" if site == target_site else str(rng.choice(list("IXYZ")))
                for site in range(1, n + 1)
            )
            predictor = PauliString(p_factors, int(rng.choice([1, -1])))
            factors = tuple(str(rng.choice(list("IXYZ"))) for _ in range(n))
            want = oracles.dense_expectation(matrix, factors, -1)
            assert abs(expectation(rho, PauliString(factors, -1)) - want) <= 1e-12

            got = variance_of_difference(rho, target, predictor)
            want = oracles.dense_difference_variance(
                matrix, target.factors, target.sign, p_factors, predictor.sign
            )
            assert abs(got - max(want, 0.0)) <= 1e-12

            eta = float(rng.uniform(0.0, 1.0))
            got = inference_variance_with_loss(
                rho, partition, target, predictor, DetectionModel(eta)
            )
            e_t = oracles.dense_expectation(matrix, target.factors, target.sign)
            mean_click = e_t - oracles.dense_expectation(matrix, p_factors, predictor.sign)
            m2_click = want + mean_click * mean_click
            mixture = eta * m2_click + (1.0 - eta) * (1.0 - e_t * e_t) - (eta * mean_click) ** 2
            assert abs(got - max(mixture, 0.0)) <= 1e-12

            settings = {site: str(rng.choice(["X", "Y", "Z"])) for site in group}
            got = optimal_inference_variance(rho, partition, target, settings)
            want = oracles.brute_inference_variance(matrix, target.factors, target.sign, settings)
            assert abs(got - want) <= 1e-12

    def test_dense_matrix_round_trips(self):
        rng = np.random.default_rng(310)
        for n in (1, 2, 3, 4):
            for rank in (1, 2, 2**n):
                matrix = random_density_matrix(n, rng, rank).matrix
                rebuilt = DensityMatrix(matrix).matrix
                np.testing.assert_allclose(rebuilt, matrix, rtol=0, atol=1e-12)

    def test_dense_matrix_keeps_only_positive_weights(self):
        rho = DensityMatrix(ghz(3).density_matrix().matrix)
        assert rho.noise == 0.0
        assert np.all(rho.weights > 0.0)
        assert rho.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matrix_is_read_only(self):
        rho = depolarize_global(ghz(2), 0.5)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0

    @pytest.mark.parametrize(
        "components, weights, noise, match",
        [
            ([[1.0, 0.0]], [1.2], -0.2, "non-negative"),
            ([[1.0, 0.0], [0.0, 1.0]], [-0.1, 1.1], 0.0, "non-negative"),
            ([[1.0, 0.0]], [0.5], 0.4, "sum to 1"),
            ([[1.0, 0.0]], [0.5], 0.5 + 1e-9, "sum to 1"),
            ([[1.0, 1.0]], [1.0], 0.0, "normalized"),
            ([[1.0, 0.0], [0.6, 0.8 + 1e-9]], [0.5, 0.5], 0.0, "normalized"),
            ([[math.nan, 0.0]], [1.0], 0.0, "finite"),
            ([[1.0, 0.0]], [math.nan], 0.0, "finite"),
            ([[1.0, 0.0]], [1.0], math.nan, "finite"),
        ],
    )
    def test_ensemble_constructor_rejects(self, components, weights, noise, match):
        with pytest.raises(ValueError, match=match):
            DensityMatrix._from_ensemble(np.array(components), np.array(weights), noise)

    def test_ensemble_constructor_accepts_noise_only_weighting(self):
        rho = DensityMatrix._from_ensemble(np.array([[0.6, 0.8j]]), np.array([0.0]), 1.0)
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, rtol=0, atol=1e-15)


class TestDenseBytesBudget:
    def test_largest_dense_matrix_admitted_is_n_12(self):
        assert 16 * 4**12 <= qubits.DENSE_BYTES_BUDGET < 16 * 4**13

    def test_matrix_refused_past_budget(self):
        rho = depolarize_global(ghz(13), 0.9)
        with pytest.raises(ValueError, match="DENSE_BYTES_BUDGET"):
            rho.matrix

    def test_dense_constructor_checks_shape_before_copying(self):
        # a zero-memory view of a 2^13 x 2^13 matrix
        view = np.broadcast_to(np.complex128(0.0), (2**13, 2**13))
        with pytest.raises(ValueError, match="DENSE_BYTES_BUDGET"):
            DensityMatrix(view)

    @pytest.mark.parametrize("n", [11, 12])
    def test_dense_constructor_refuses_large_eigen_solves(self, n, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("eigh was called")

        monkeypatch.setattr(np.linalg, "eigh", no_solve)
        # a zero-memory view that DENSE_BYTES_BUDGET admits
        view = np.broadcast_to(np.complex128(0.0), (2**n, 2**n))
        with pytest.raises(ValueError, match="DENSE_EIGH_MAX_DIM = 1024"):
            DensityMatrix(view)

    def test_dense_constructor_solves_up_to_n_10(self, monkeypatch):
        class Solved(Exception):
            pass

        def solve(matrix):
            raise Solved

        monkeypatch.setattr(np.linalg, "eigh", solve)
        assert qubits.DENSE_EIGH_MAX_DIM == 2**10
        with pytest.raises(Solved):
            DensityMatrix(np.eye(2**10, dtype=complex) / 2**10)

    @pytest.mark.parametrize("n, rank", [(13, None), (14, 1025)])
    def test_random_state_refused_before_drawing(self, n, rank):
        class NoDraws:
            def normal(self, size):
                raise AssertionError("the Ginibre matrix was drawn")

        with pytest.raises(ValueError, match="DENSE_BYTES_BUDGET"):
            random_density_matrix(n, NoDraws(), rank)

    def test_low_rank_states_fit_at_max_qubits(self):
        n = qubits.MAX_QUBITS
        rho = random_density_matrix(n, np.random.default_rng(4), rank=3)
        assert rho.components.shape == (3, 2**n)
        noisy = depolarize_global(ghz(n), 0.9)
        assert noisy.components.shape == (1, 2**n)
        assert noisy.noise == pytest.approx(0.1)


def _fresh(state):
    """A new state object with the same arrays, and so an empty moment memo."""
    if isinstance(state, PureState):
        return PureState(state.amplitudes)
    return DensityMatrix._from_ensemble(state.components, state.weights, state.noise)


def _noisy_operation(state, kind):
    """The criterion calls of one noisy-qubit benchmark operation on an n-qubit
    state: both spin sums with and without a detection model, then on random
    states the two single-site values and their monogamy product."""
    n = qubits.state_qubits(state)
    group = SitePartition(frozenset(range(1, n)), n)
    px, py, pz = ghz_predictor(n, "x"), ghz_predictor(n, "y"), ghz_z_predictor(n)
    model = DetectionModel(0.8)
    values = [
        spin_two_obs(state, group, px, py).value,
        spin_two_obs(state, group, px, py, model).value,
        spin_three_obs(state, group, px, py, pz).value,
        spin_three_obs(state, group, px, py, pz, model).value,
    ]
    if kind == "random":
        singles = [
            spin_two_obs(state, SitePartition(frozenset({site}), n),
                         PauliString.single(n, site, "X"), PauliString.single(n, site, "Y"))
            for site in (1, 2)
        ]
        values += [v.value for v in singles] + [monogamy_check(*singles).product]
    return values


class TestMomentMemo:
    """Each state keeps the raw Pauli moments read from it, up to
    _MOMENT_MEMO_ENTRIES of them; a warm state gives a fresh state's bits."""

    def test_memo_stops_at_its_cap(self):
        rng = np.random.default_rng(71)
        cap = qubits._MOMENT_MEMO_ENTRIES
        for state in (random_pure_state(7, rng), _random_ensemble(7, rng)):
            pairs = rng.choice(4**7, size=cap + 500, replace=False)
            masks = [(int(p) >> 7, int(p) & 127, 1j ** int(p % 4)) for p in pairs]
            warm = []
            for start in range(0, len(masks), 250):
                warm += qubits._mask_expectations(state, masks[start : start + 250])
            assert len(state._moments) == cap
            # the first cap moments come from the memo, the rest are read again
            again = qubits._mask_expectations(state, masks[cap - 100 :])
            assert len(state._moments) == cap
            fresh = qubits._mask_expectations(_fresh(state), masks)
            assert [v.hex() for v in warm] == [v.hex() for v in fresh]
            assert [v.hex() for v in again] == [v.hex() for v in fresh[cap - 100 :]]

    @pytest.mark.parametrize("n", [3, 6])
    def test_states_sharing_components_keep_their_own_moments(self, n):
        strings = (PauliString.from_sites(n, {1: "Z", 2: "Z"}), PauliString(("X",) * n))
        fresh_pure = [expectation(ghz(n), obs) for obs in strings]
        fresh_noisy = [expectation(depolarize_global(ghz(n), 0.25), obs) for obs in strings]
        assert fresh_pure == pytest.approx([1.0, -1.0])
        assert fresh_noisy == pytest.approx([0.25 * v for v in fresh_pure])
        for first in (0, 1):
            pure = ghz(n)
            noisy = depolarize_global(pure, 0.25)
            assert np.shares_memory(noisy.components, pure.amplitudes)
            states = (pure, noisy)
            for state in states[first:] + states[:first]:
                for obs in strings:
                    expectation(state, obs)
            assert pure._moments is not noisy._moments
            for state, fresh in ((pure, fresh_pure), (noisy, fresh_noisy)):
                warm = [expectation(state, obs) for obs in strings]
                assert [v.hex() for v in warm] == [v.hex() for v in fresh]

    @pytest.mark.parametrize(
        "build, names",
        [
            (lambda: random_pure_state(3, np.random.default_rng(5)), ["amplitudes"]),
            (lambda: _random_ensemble(3, np.random.default_rng(5)),
             ["components", "weights", "noise"]),
        ],
        ids=["pure", "mixed"],
    )
    def test_memo_is_not_part_of_the_value(self, build, names):
        state, twin = build(), build()
        expectation(state, PauliString(("X", "Y", "Z")))
        assert state._moments and not twin._moments
        assert [field.name for field in dataclasses.fields(state)] == names
        assert repr(state) == repr(twin)
        assert "_moments" not in repr(state)
        assert state == state and state != twin
        assert hash(state) == object.__hash__(state)

    @pytest.mark.parametrize(
        "kind, memo, counts",
        [
            ("random", True, (8, 17)),
            ("random", False, (20, 42)),
            ("depolarized", True, (4, 9)),
            ("depolarized", False, (14, 30)),
        ],
    )
    def test_noisy_operation_reads_each_moment_once(self, kind, memo, counts, monkeypatch):
        # band gathers and signed sums of one n = 10 noisy-qubit benchmark
        # operation; without the memo every call reads the state again
        if kind == "random":
            state = random_density_matrix(10, np.random.default_rng(3), 8)
        else:
            state = depolarize_global(ghz(10), 0.6)
        want = _noisy_operation(_fresh(state), kind)
        calls = {"_band": 0, "_phase_signs": 0}
        for name in calls:
            def counted(*args, _inner=getattr(qubits, name), _name=name):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(qubits, name, counted)
        if not memo:
            monkeypatch.setattr(qubits, "_MOMENT_MEMO_ENTRIES", 0)
        got = _noisy_operation(state, kind)
        assert (calls["_band"], calls["_phase_signs"]) == counts
        assert [v.hex() for v in got] == [v.hex() for v in want]


_KERNEL_CACHES = (qubits._outcome_pattern, qubits._flip_kernel, qubits._gate_stack)


class TestKernelCaches:
    """The per-(n, sites), per-(n, flip, phase mask) and per-menu arrays
    shared between kernel calls."""

    def test_import_fills_no_cache(self):
        # the mask tables are built on first use, not at start-up
        code = (
            "import steerkit.cli\n"
            "from steerkit import qubits\n"
            "caches = (qubits._basis_index, qubits._phase_signs, qubits._outcome_pattern,\n"
            "          qubits._flip_kernel)\n"
            "print([cache.cache_info().currsize for cache in caches])\n"
        )
        src = Path(qubits.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "[0, 0, 0, 0]"

    @staticmethod
    def _calls():
        rng = np.random.default_rng(61)
        states = [ghz(3), random_pure_state(5, rng), _random_ensemble(4, rng), ghz(5)]
        calls = []
        # the same site tuples and targets recur at different n
        for state, target, settings in (
            (states[0], 3, {1: "Y", 2: "X"}),
            (states[1], 3, {1: "Y", 2: "X"}),
            (states[2], 3, {1: "Z", 2: "Y", 4: "X"}),
            (states[3], 3, {1: "Y", 2: "X"}),
            (states[1], 5, {1: "X", 3: "Z"}),
            (states[3], 5, {1: "X", 3: "Z"}),
            (states[2], 1, {2: "X"}),
            (states[0], 1, {2: "X"}),
        ):
            n = qubits.state_qubits(state)
            for label in "XYZ":
                calls.append((
                    state,
                    SitePartition(frozenset(settings), target),
                    PauliString.single(n, target, label),
                    settings,
                ))
        return calls

    def test_interleaved_calls_match_fresh_caches(self):
        calls = self._calls()
        interleaved = [optimal_inference_variance(*call) for call in calls]
        interleaved_reversed = [optimal_inference_variance(*call) for call in reversed(calls)]
        fresh = []
        for call in calls:
            for cache in _KERNEL_CACHES:
                cache.cache_clear()
            fresh.append(optimal_inference_variance(*call))
        assert interleaved == fresh
        assert interleaved_reversed[::-1] == fresh

    def test_cached_arrays_are_read_only(self):
        src, phases = qubits._flip_kernel(3, 1, 4, 1j)
        arrays = (qubits._outcome_pattern(3, (1, 2)), src, phases, qubits._gate_stack(("X", "Y")))
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 0

    def test_expectations_match_fresh_sign_caches(self):
        rng = np.random.default_rng(67)
        cases = [
            (state, PauliString(tuple(rng.choice(list("IXYZ"), size=n)), int(rng.choice([1, -1]))))
            for n in (3, 5, 3, 4) for state in (random_pure_state(n, rng), _random_ensemble(n, rng))
            for _ in range(4)
        ]
        interleaved = [expectation(*case) for case in cases]
        fresh = []
        for case in cases:
            qubits._basis_index.cache_clear()
            qubits._phase_signs.cache_clear()
            fresh.append(expectation(*case))
        assert [v.hex() for v in interleaved] == [v.hex() for v in fresh]

    def test_sign_cache_arrays(self):
        for array in (qubits._basis_index(3), qubits._phase_signs(3, 5)):
            with pytest.raises(ValueError):
                array[0] = 0
        assert qubits._phase_signs(3, 5).tolist() == [1, -1, 1, -1, -1, 1, -1, 1]
        assert qubits._phase_signs(14, 0).nbytes == 128 * 1024

    def test_pattern_puts_the_first_site_most_significant(self):
        pattern = qubits._outcome_pattern(3, (1, 3))
        assert pattern.tolist() == [0, 1, 0, 1, 2, 3, 2, 3]
        assert qubits._outcome_pattern(14, tuple(range(1, 15)))[-1] == 2**14 - 1
