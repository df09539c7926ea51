"""Property and fuzz tests: invariants that must hold on whole state families."""

import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steerkit import gaussian, qubits
from steerkit.cli import UsageError, _parse_eta_grid
from steerkit.core import CriterionId, SitePartition, SteeringValue
from steerkit.criteria import (
    MONOGAMY_TOLERANCE,
    CvScanConfig,
    collective_scan,
    cv3_genuine_report,
    monogamy_check,
    spin_three_obs,
    spin_two_obs,
)
from steerkit.gaussian import (
    HomodynePlan,
    beamsplitter,
    beamsplitter_matrix,
    loss_channel,
    random_pure_gaussian,
    squeeze,
    squeeze_matrix,
    steering_product_cv,
    symplectic_eigenvalues,
    symplectic_form,
    vacuum,
)
from steerkit.qubits import (
    DetectionModel,
    PauliString,
    depolarize_global,
    expectation,
    ghz,
    inference_variance_with_loss,
    random_density_matrix,
    random_pure_state,
    variance_of_difference,
)
from steerkit.scenarios import (
    EavesdropRecord,
    SpinSumShotPlan,
    eavesdrop_sweep,
    find_threshold,
    simulate_shots,
)

import oracles


class TestSteeringValueInvariant:
    @given(
        value=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        bound=st.sampled_from([1.0, 2.0]),
    )
    def test_verdict_is_strict_comparison(self, value, bound):
        part = SitePartition(frozenset({1, 2}), 3)
        criterion = (
            CriterionId.SPIN_SUM_3OBS if bound == 2.0 else CriterionId.SPIN_SUM_2OBS
        )
        steering = SteeringValue.of(criterion, part, value, bound)
        assert steering.verdict == (value < bound)

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=25, deadline=None)
    def test_threshold_finder_recovers_cutoff(self, cutoff):
        result = find_threshold(lambda x: x > cutoff, (0.0, 1.0))
        assert abs(result.critical - cutoff) <= 1e-4


class TestQubitUncertaintyFloor:
    def test_two_observable_floor_on_random_single_qubits(self):
        rng = np.random.default_rng(2024)
        sx = PauliString(("X",))
        sy = PauliString(("Y",))
        for trial in range(1200):
            state = (
                random_pure_state(1, rng)
                if trial % 2
                else random_density_matrix(1, rng)
            )
            var_x = 1.0 - expectation(state, sx) ** 2
            var_y = 1.0 - expectation(state, sy) ** 2
            assert var_x + var_y >= 1.0 - 1e-9

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_depolarizing_scales_traceless_expectations(self, p):
        string = PauliString(("X", "Y", "Y"))
        noisy = depolarize_global(ghz(3), p)
        assert expectation(noisy, string) == pytest.approx(p, abs=1e-10)

    def test_expectations_stay_in_unit_interval(self):
        rng = np.random.default_rng(55)
        for trial in range(150):
            n = int(rng.integers(1, 5))
            state = random_density_matrix(n, rng)
            factors = tuple(rng.choice(list("IXYZ")) for _ in range(n))
            assert abs(expectation(state, PauliString(factors))) <= 1.0 + 1e-10


class TestRelabelInvariance:
    def test_difference_variance_under_site_permutation(self):
        rng = np.random.default_rng(97)
        for trial in range(25):
            n = 3
            rho = random_density_matrix(n, rng)
            perm = rng.permutation(n)
            target = PauliString.single(n, 3, "X")
            predictor = PauliString.from_sites(n, {1: "Y", 2: "Y"})
            base = variance_of_difference(rho, target, predictor)

            # permute the state and both observables consistently
            axes = list(perm) + [n + int(a) for a in perm]
            permuted = qubits.DensityMatrix(
                rho.matrix.reshape((2,) * (2 * n)).transpose(axes).reshape(2**n, 2**n)
            )
            relabel = {int(old) + 1: new + 1 for new, old in enumerate(perm)}
            target_p = PauliString.from_sites(n, {relabel[3]: "X"})
            predictor_p = PauliString.from_sites(
                n, {relabel[1]: "Y", relabel[2]: "Y"}
            )
            moved = variance_of_difference(permuted, target_p, predictor_p)
            assert moved == pytest.approx(base, abs=1e-10)


class TestSpinSumPermutationCovariance:
    """Relabelling the qubits of a state, its partition and the predictors
    the same way leaves both spin sums unchanged, with or without loss."""

    @staticmethod
    def _relabelled(string, relabel):
        labels = {relabel[site]: string.factors[site - 1] for site in string.support}
        return PauliString.from_sites(string.n_sites, labels, string.sign)

    def test_random_ensembles(self):
        rng = np.random.default_rng(141)
        models = (None, DetectionModel(0.6), DetectionModel(0.8, "constant-guess", 0.5))
        for trial in range(12):
            n = int(rng.integers(2, 6))
            rank = int(rng.integers(1, 2**n + 1))
            state = depolarize_global(random_density_matrix(n, rng, rank), rng.uniform(0.2, 1.0))
            perm = rng.permutation(n)
            relabel = {int(old) + 1: new + 1 for new, old in enumerate(perm)}
            axes = [0] + [1 + int(a) for a in perm]
            permuted = qubits.DensityMatrix._from_ensemble(
                state.components.reshape((rank,) + (2,) * n).transpose(axes).reshape(rank, -1),
                state.weights,
                state.noise,
            )
            target = int(rng.integers(1, n + 1))
            group = frozenset(range(1, n + 1)) - {target}
            part = SitePartition(group, target)
            moved_part = SitePartition(frozenset(relabel[s] for s in group), relabel[target])
            predictors = []
            for _ in range(3):
                labels = {s: str(rng.choice(list("IXYZ"))) for s in group}
                predictors.append(PauliString.from_sites(n, labels, int(rng.choice([1, -1]))))
            moved = [self._relabelled(pred, relabel) for pred in predictors]
            for model in models:
                pairs = (
                    (spin_two_obs(state, part, *predictors[:2], model),
                     spin_two_obs(permuted, moved_part, *moved[:2], model)),
                    (spin_three_obs(state, part, *predictors, model),
                     spin_three_obs(permuted, moved_part, *moved, model)),
                )
                for base, value in pairs:
                    assert value.partition == moved_part
                    assert abs(value.value - base.value) <= 1e-12


def _moment_case(seed, n, kind, policy):
    """A state of the kind, a detection model of the policy (None for no
    model) and a random generator for drawing strings."""
    rng = np.random.default_rng(seed)
    if kind == "pure":
        state = random_pure_state(n, rng)
    else:
        state = random_density_matrix(n, rng, int(rng.integers(1, 5)))
        if kind == "depolarized":
            state = depolarize_global(state, float(rng.uniform(0.0, 1.0)))
    eta = float(rng.uniform(0.0, 1.0))
    model = {
        None: None,
        "marginal-mean": DetectionModel(eta),
        "constant-guess": DetectionModel(eta, "constant-guess", float(rng.uniform(-1.5, 1.5))),
    }[policy]
    return state, model, rng


_MOMENT_CASES = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=8),
    kind=st.sampled_from(["pure", "mixed", "depolarized"]),
    policy=st.sampled_from([None, "marginal-mean", "constant-guess"]),
)


class TestBatchedMoments:
    """qubits._expectations and the spin sums built on it give the same bits
    as the public batch-of-one kernels."""

    @given(**_MOMENT_CASES)
    @settings(max_examples=60, deadline=None)
    def test_each_entry_equals_expectation(self, seed, n, kind, policy):
        state, _, rng = _moment_case(seed, n, kind, policy)
        # few sites, so that strings often share their flip mask
        strings = [
            PauliString(tuple(rng.choice(list("IXYZ"), size=n)), int(rng.choice([1, -1])))
            for _ in range(int(rng.integers(1, 13)))
        ]
        got = qubits._expectations(state, strings)
        assert [v.hex() for v in got] == [expectation(state, s).hex() for s in strings]

    @given(**_MOMENT_CASES)
    @settings(max_examples=60, deadline=None)
    def test_spin_sums_add_the_public_terms(self, seed, n, kind, policy):
        state, model, rng = _moment_case(seed, n, kind, policy)
        target = int(rng.integers(1, n + 1))
        others = [s for s in range(1, n + 1) if s != target]
        size = int(rng.integers(1, n))
        group = frozenset(int(s) for s in rng.choice(others, size, replace=False))
        part = SitePartition(group, target)
        predictors = [
            PauliString.from_sites(n, {s: str(rng.choice(list("IXYZ"))) for s in group},
                                   int(rng.choice([1, -1])))
            for _ in range(3)
        ]
        terms = []
        for label, predictor in zip("XYZ", predictors):
            observable = PauliString.single(n, target, label)
            if model is None:
                terms.append(variance_of_difference(state, observable, predictor))
            else:
                terms.append(
                    inference_variance_with_loss(state, part, observable, predictor, model)
                )
        for value, count in (
            (spin_two_obs(state, part, *predictors[:2], model), 2),
            (spin_three_obs(state, part, *predictors, model), 3),
        ):
            want = 0.0
            for term in terms[:count]:
                want += term
            assert value.value.hex() == want.hex()

    @given(**_MOMENT_CASES)
    @settings(max_examples=60, deadline=None)
    def test_warm_state_gives_fresh_bits(self, seed, n, kind, policy):
        # each call reads the moments that earlier calls left in the state's
        # memo; a fresh copy of the state starts with an empty memo
        state, model, rng = _moment_case(seed, n, kind, policy)
        target = int(rng.integers(1, n + 1))
        others = [s for s in range(1, n + 1) if s != target]
        group = frozenset(int(s) for s in rng.choice(others, int(rng.integers(1, n)), replace=False))
        part = SitePartition(group, target)

        def predictor():
            labels = {s: str(rng.choice(list("IXYZ"))) for s in group}
            return PauliString.from_sites(n, labels, int(rng.choice([1, -1])))

        calls = []
        for _ in range(int(rng.integers(1, 4))):
            px, py, pz = predictor(), predictor(), predictor()
            obs = PauliString(tuple(rng.choice(list("IXYZ"), size=n)), int(rng.choice([1, -1])))
            calls += [
                (expectation, (obs,)),
                (spin_two_obs, (part, px, py)),
                (spin_two_obs, (part, px, py, model)),
                (spin_three_obs, (part, px, py, pz)),
                (spin_three_obs, (part, px, py, pz, model)),
                (simulate_shots, (SpinSumShotPlan(part, px, py), 20, int(rng.integers(2**16)))),
            ]
        calls = [calls[i] for i in rng.permutation(len(calls))]

        def bits(result):
            if isinstance(result, float):
                return [result.hex()]
            if isinstance(result, SteeringValue):
                return [result.value.hex()]
            return [result.estimate.hex(), result.standard_error.hex()]

        fresh = [bits(call(_fresh_copy(state), *args)) for call, args in calls]
        assert [bits(call(state, *args)) for call, args in calls] == fresh
        # and again, every moment now read from the memo
        assert [bits(call(state, *args)) for call, args in calls] == fresh


def _fresh_copy(state):
    """A new state object with the same arrays, and so an empty moment memo."""
    if isinstance(state, qubits.PureState):
        return qubits.PureState(state.amplitudes)
    return qubits.DensityMatrix._from_ensemble(state.components, state.weights, state.noise)


def _masks_dense(n, masks):
    """The 2^n x 2^n matrix of the string with these masks: it maps basis
    state x to prefactor * (-1)**popcount(x & phase) times basis state
    x ^ flip."""
    flip, phase, prefactor = masks
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for x in range(1 << n):
        out[x ^ flip, x] = prefactor * (-1) ** (x & phase).bit_count()
    return out


def _complex_hex(z):
    return z.real.hex(), z.imag.hex()


class TestMaskAlgebra:
    """A Pauli string is a flip mask, a phase mask and a prefactor; a product
    of strings with disjoint supports ORs their masks."""

    @given(
        n=st.integers(min_value=1, max_value=6),
        signs=st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])),
        data=st.data(),
    )
    def test_disjoint_product_rebuilds_the_matrix_product(self, n, signs, data):
        owners = data.draw(st.lists(st.sampled_from("ab-"), min_size=n, max_size=n))
        labels = data.draw(st.lists(st.sampled_from("XYZ"), min_size=n, max_size=n))
        a, b = (
            PauliString(tuple(l if o == who else "I" for o, l in zip(owners, labels)), sign)
            for who, sign in zip("ab", signs)
        )
        *_, product = qubits._difference_masks(
            qubits._string_masks(a), qubits._string_masks(b), a.sign * b.sign
        )
        assert np.array_equal(_masks_dense(n, product), a.dense() @ b.dense())
        joined = PauliString(tuple(l if o != "-" else "I" for o, l in zip(owners, labels)),
                             a.sign * b.sign)
        want = qubits._string_masks(joined)
        assert product[:2] == want[:2]
        assert _complex_hex(product[2]) == _complex_hex(want[2])

    def test_site_masks_match_single_strings(self):
        for n in range(1, qubits.MAX_QUBITS + 1):
            for site in range(1, n + 1):
                for label in "IXYZ":
                    got = qubits._site_masks(n, site, label)
                    want = qubits._string_masks(PauliString.single(n, site, label))
                    assert got[:2] == want[:2]
                    assert _complex_hex(got[2]) == _complex_hex(want[2])


def _scan_values(report):
    return {v.partition.steering_group: v.value for v in (report.full_group, *report.subsets)}


class TestSubsetTablesAreMarginals:
    """Every subset's inference variances read from the full group's outcome
    tables equal those of outcome tables built on that subset directly:
    tracing a site out sums its outcomes under any measurement."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_group=st.integers(min_value=1, max_value=4),
        extra_sites=st.integers(min_value=0, max_value=1),
        rank=st.integers(min_value=0, max_value=4),
        noise=st.sampled_from([0.0, 0.3, 1.0]),
        menu=st.lists(st.sampled_from("XYZ"), min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_subset(self, seed, n_group, extra_sites, rank, noise, menu):
        rng = np.random.default_rng(seed)
        n = n_group + 1 + extra_sites
        # rank 0 draws a pure state; noise 1 leaves only the white noise
        state = random_density_matrix(n, rng, rank) if rank else random_pure_state(n, rng)
        if noise:
            state = depolarize_global(state, 1.0 - noise)
        target = int(rng.integers(1, n + 1))
        others = [s for s in range(1, n + 1) if s != target]
        group = tuple(sorted(int(s) for s in rng.choice(others, n_group, replace=False)))
        # Z and the identity flip no bit, so the white noise adds to their values
        targets = [PauliString.single(n, target, label) for label in "XYZI"]
        tables = qubits._subset_variances(
            state, SitePartition(frozenset(group), target), targets, tuple(menu)
        )
        subsets = [group] + [s for k in range(1, n_group) for s in combinations(group, k)]
        assert list(tables) == subsets
        for subset, got in tables.items():
            want = qubits._table_variances(*qubits._outcome_tables(
                state, SitePartition(frozenset(subset), target), targets,
                dict.fromkeys(subset, menu),
            ))
            assert got.shape == (4,) + (len(menu),) * len(subset)
            got = got.reshape(want.shape)
            assert np.abs(got - want).max() <= 1e-12, subset
            # identity: E[I | a] = 1, variance 0
            assert np.abs(got[3]).max() <= 1e-12

    def test_white_noise_marginalises_to_its_share_per_outcome(self):
        # the maximally mixed state: every outcome of a k-site group has
        # probability 1 / 2^k, and each target is unbiased
        state = depolarize_global(ghz(4), 0.0)
        group = SitePartition(frozenset({1, 2, 3}), 4)
        probs, values = qubits._outcome_tables(
            state, group, [PauliString.single(4, 4, "Z")], dict.fromkeys((1, 2, 3), "XZ")
        )
        assert np.array_equal(probs, np.full((8, 8), 1 / 8))
        assert not values.any()
        tables = qubits._subset_variances(
            state, group, [PauliString.single(4, 4, label) for label in "XZ"], "XZ"
        )
        for variances in tables.values():
            assert np.array_equal(variances, np.ones_like(variances))


def _permuted_gaussian(state, perm):
    """The state with old mode perm[i] + 1 moved to mode i + 1."""
    index = [2 * int(m) + quadrature for m in perm for quadrature in (0, 1)]
    return gaussian.GaussianState(state.mean[index], state.cov[np.ix_(index, index)])


class TestScanPermutationCovariance:
    """Relabelling sites (modes) and the scan's target and group the same
    way leaves every subset value unchanged."""

    @staticmethod
    def _check(state, permuted, relabel, target, group, config=None):
        base = _scan_values(collective_scan(state, target, group, config))
        moved = _scan_values(
            collective_scan(permuted, relabel[target], [relabel[s] for s in group], config)
        )
        assert len(moved) == len(base)
        for subset, value in base.items():
            assert abs(moved[frozenset(relabel[s] for s in subset)] - value) <= 1e-12

    def test_qubit_states(self):
        rng = np.random.default_rng(131)
        for trial in range(10):
            mixed = trial % 2 == 1
            n = 3 if mixed else 4
            perm = rng.permutation(n)
            relabel = {int(old) + 1: new + 1 for new, old in enumerate(perm)}
            if mixed:
                state = random_density_matrix(n, rng)
                axes = list(perm) + [n + int(a) for a in perm]
                permuted = qubits.DensityMatrix(
                    state.matrix.reshape((2,) * (2 * n)).transpose(axes).reshape(2**n, 2**n)
                )
            else:
                state = random_pure_state(n, rng)
                permuted = qubits.PureState(
                    state.amplitudes.reshape((2,) * n).transpose(perm).reshape(-1)
                )
            target = int(rng.integers(1, n + 1))
            group = [s for s in range(1, n + 1) if s != target]
            self._check(state, permuted, relabel, target, group)

    def test_gaussian_states(self):
        rng = np.random.default_rng(132)
        for trial in range(6):
            state = random_pure_gaussian(3, rng)
            if trial % 2:
                state = loss_channel(state, int(rng.integers(1, 4)), float(rng.uniform(0.2, 0.9)))
            perm = rng.permutation(3)
            relabel = {int(old) + 1: new + 1 for new, old in enumerate(perm)}
            permuted = _permuted_gaussian(state, perm)
            target = int(rng.integers(1, 4))
            group = sorted({1, 2, 3} - {target})
            self._check(state, permuted, relabel, target, group, CvScanConfig(12))


    def test_gaussian_three_mode_groups(self):
        # the walk measures the group's modes in sorted order, so relabelling
        # changes the order in which the same plans are conditioned on
        rng = np.random.default_rng(133)
        for trial in range(6):
            state = random_pure_gaussian(4, rng)
            if trial % 2:
                state = loss_channel(state, int(rng.integers(1, 5)), float(rng.uniform(0.2, 0.9)))
            perm = rng.permutation(4)
            relabel = {int(old) + 1: new + 1 for new, old in enumerate(perm)}
            target = int(rng.integers(1, 5))
            group = sorted({1, 2, 3, 4} - {target})
            permuted = _permuted_gaussian(state, perm)
            self._check(state, permuted, relabel, target, group, CvScanConfig(8))


class TestGaussianPermutationCovariance:
    """Relabelling the modes of a state, and every mode a criterion names, the
    same way leaves the criterion's value unchanged."""

    def test_product_fixed_combo_and_genuine_report(self):
        rng = np.random.default_rng(134)
        for trial in range(20):
            n = 3 if trial % 2 else 4
            state = random_pure_gaussian(n, rng, max_squeezing=1.5)
            for mode in range(1, n + 1):
                state = loss_channel(state, mode, float(rng.uniform(0.3, 1.0)))
            perm = rng.permutation(n)
            relabel = {int(old) + 1: new + 1 for new, old in enumerate(perm)}
            back = {new: old for old, new in relabel.items()}
            permuted = _permuted_gaussian(state, perm)
            target, *others = (int(m) + 1 for m in rng.permutation(n))
            plans = [
                HomodynePlan.of({m: float(rng.uniform(0.0, math.pi)) for m in others})
                for _ in range(2)
            ]
            moved = [HomodynePlan.of({relabel[m]: a for m, a in plan.angles}) for plan in plans]
            base = steering_product_cv(state, target, *plans)
            value = steering_product_cv(permuted, relabel[target], *moved)
            assert value.partition.steering_group == frozenset(relabel[m] for m in others)
            assert abs(value.value - base.value) <= 1e-12
            j, k, m = target, *others[:2]
            base = gaussian.fixed_combo_steering(state, j, k, m)
            value = gaussian.fixed_combo_steering(permuted, relabel[j], relabel[k], relabel[m])
            assert abs(value.value - base.value) <= 1e-12
            if n == 3:
                # each relabelled target pairs with the smaller of its two
                # relabelled partners: the same criterion with the roles mapped back
                report = cv3_genuine_report(permuted)
                want = []
                for moved_value in report.values:
                    t = moved_value.partition.target_site
                    k2, m2 = sorted({1, 2, 3} - {t})
                    want.append(gaussian.fixed_combo_steering(state, back[t], back[k2], back[m2]))
                    assert abs(moved_value.value - want[-1].value) <= 1e-12
                assert abs(report.sum - math.fsum(v.value for v in want)) <= 1e-12


def _plan_stack(n_modes, modes, n_angles):
    """Measured rows of every plan on the angle grid, one plan at a time, in
    itertools.product order over the modes."""
    angles = [a * math.pi / n_angles for a in range(n_angles)]
    plans = list(product(angles, repeat=len(modes)))
    out = np.zeros((len(plans), len(modes), 2 * n_modes))
    for p, plan in enumerate(plans):
        for row, (mode, angle) in enumerate(zip(modes, plan)):
            out[p, row, 2 * (mode - 1)] = math.cos(angle)
            out[p, row, 2 * (mode - 1) + 1] = math.sin(angle)
    return out


class TestGridVariances:
    """The angle-grid walk of rank-one Schur updates gives the batched
    eigen-solve's conditional variances on the explicit plan stack."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_measured=st.integers(min_value=1, max_value=3),
        extra_modes=st.integers(min_value=0, max_value=2),
        lossy=st.booleans(),
        n_angles=st.integers(min_value=1, max_value=13),
        order=st.sampled_from(["sorted", "reversed", "drawn"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_explicit_plans(self, seed, n_measured, extra_modes, lossy, n_angles, order):
        rng = np.random.default_rng(seed)
        n = min(n_measured + 1 + extra_modes, 5)
        state = random_pure_gaussian(n, rng, max_squeezing=float(rng.uniform(0.1, 1.5)))
        if lossy:
            for mode in range(1, n + 1):
                state = loss_channel(state, mode, float(rng.uniform(0.2, 1.0)))
        drawn = [int(m) + 1 for m in rng.permutation(n)]
        target, modes, rest = drawn[0], drawn[1 : 1 + n_measured], drawn[1 + n_measured :]
        if order != "drawn":
            modes = sorted(modes, reverse=order == "reversed")
        free = [target, *rest]
        mix = rng.normal(size=(len(free), 2))
        targets = [
            gaussian.x_quadrature(n, target),
            gaussian.p_quadrature(n, target),
            gaussian.quadrature_combo(
                n,
                x={m: float(c) for m, c in zip(free, mix[:, 0])},
                p={m: float(c) for m, c in zip(free, mix[:, 1])},
            ),
        ]
        got = gaussian._grid_variances(state, targets, modes, n_angles)
        assert got.shape == (3,) + (n_angles + 1,) * n_measured
        # a subset's plans sit at the skip index n_angles on the other modes'
        # axes, bit-equal to the plans that measure every mode of its own walk
        for size in range(1, n_measured + 1):
            for subset in combinations(modes, size):
                own = gaussian._grid_variances(state, targets, subset, n_angles)
                own = own[(slice(None),) + (slice(-1),) * size]
                plans = (slice(None),) + tuple(slice(-1) if m in subset else -1 for m in modes)
                assert got[plans].tobytes() == own.tobytes()
                stack = _plan_stack(n, subset, n_angles)
                want = gaussian._conditional_variances(state, targets, stack)
                assert np.abs(own.reshape(3, -1) - want).max() <= 1e-12

    def test_refuses_to_measure_a_target_mode(self):
        state = random_pure_gaussian(3, np.random.default_rng(5))
        with pytest.raises(ValueError, match=r"target's modes \[2\]"):
            gaussian._grid_variances(state, [gaussian.x_quadrature(3, 2)], [3, 2], 4)
        with pytest.raises(ValueError, match="outside"):
            gaussian._grid_variances(state, [gaussian.x_quadrature(3, 1)], [4], 4)


class TestGaussianSchurFloor:
    """Conditioning on every quadrature of the group gives the Schur complement
    M_B = s_B - s_BA s_A^-1 s_AB, so no homodyne plan infers the target better:
    each product is at least sqrt(det M_B) (a Reid violation implies Gaussian
    steerability)."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        efficiency=st.floats(min_value=0.05, max_value=1.0),
        lossy_mode=st.integers(min_value=1, max_value=3),
        target=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=12, deadline=None)
    def test_scan_products_stay_above_floor(self, seed, efficiency, lossy_mode, target):
        state = random_pure_gaussian(3, np.random.default_rng(seed))
        state = loss_channel(state, lossy_mode, efficiency)
        group = sorted({1, 2, 3} - {target})
        report = collective_scan(state, target, group, CvScanConfig(12))
        b = [2 * (target - 1), 2 * (target - 1) + 1]
        for subset, value in _scan_values(report).items():
            a = [2 * (m - 1) + quadrature for m in sorted(subset) for quadrature in (0, 1)]
            cov = state.cov
            schur = cov[np.ix_(b, b)] - cov[np.ix_(b, a)] @ np.linalg.solve(
                cov[np.ix_(a, a)], cov[np.ix_(a, b)]
            )
            assert value >= math.sqrt(np.linalg.det(schur)) - 1e-12


class TestSymplecticClosure:
    @given(
        r=st.floats(min_value=0.0, max_value=2.0),
        angle=st.floats(min_value=0.0, max_value=math.pi),
        transmissivity=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_circuit_generators_preserve_form(self, r, angle, transmissivity):
        omega = symplectic_form(2)
        for transform in (
            squeeze_matrix(2, 1, r, angle),
            beamsplitter_matrix(2, 1, 2, transmissivity),
        ):
            np.testing.assert_allclose(
                transform @ omega @ transform.T, omega, atol=1e-10
            )

    def test_random_circuits_stay_physical(self):
        rng = np.random.default_rng(4)
        state = vacuum(3)
        for step in range(300):
            op = rng.integers(3)
            if op == 0:
                state = gaussian.squeeze(
                    state, int(rng.integers(1, 4)), float(rng.uniform(0, 1.5)),
                    float(rng.uniform(0, math.pi)),
                )
            elif op == 1:
                i, j = rng.choice([1, 2, 3], size=2, replace=False)
                state = gaussian.beamsplitter(
                    state, int(i), int(j), float(rng.uniform(0, 1))
                )
            else:
                state = loss_channel(
                    state, int(rng.integers(1, 4)), float(rng.uniform(0, 1))
                )
            assert symplectic_eigenvalues(state.cov).min() >= 1.0 - 1e-9


class TestMonogamyTheorems:
    def test_cv_product_bound_on_random_pure_states(self):
        rng = np.random.default_rng(501)
        for trial in range(150):
            state = random_pure_gaussian(3, rng, max_squeezing=1.2)
            by_2 = steering_product_cv(state, 1, HomodynePlan.x_on(2), HomodynePlan.p_on(2))
            by_3 = steering_product_cv(state, 1, HomodynePlan.x_on(3), HomodynePlan.p_on(3))
            result = monogamy_check(by_2, by_3)
            assert result.satisfied, f"trial {trial}: product {result.product}"

    def test_qubit_additive_floor_on_random_pure_states(self):
        # the two-observable sums of two disjoint single-party groups cannot
        # jointly drop below 2, even with the best settings for each
        rng = np.random.default_rng(502)
        for trial in range(40):
            state = random_pure_state(3, rng)
            scan = collective_scan(state, 1, {2, 3})
            singles = [v.value for v in scan.subsets if len(v.partition.steering_group) == 1]
            assert sum(singles) >= 2.0 - 1e-9

    def test_qubit_product_bound_on_random_mixed_states(self):
        rng = np.random.default_rng(503)
        for trial in range(60):
            state = random_density_matrix(3, rng)
            scan = collective_scan(state, 1, {2, 3})
            singles = [v for v in scan.subsets if len(v.partition.steering_group) == 1]
            result = monogamy_check(singles[0], singles[1])
            assert result.satisfied, f"trial {trial}: product {result.product}"


class TestLatticeMonogamy:
    """Two disjoint subsets of one CV scan's group cannot both infer the
    target's x and p beyond the uncertainty bound: the product of their
    values is at least 1, whatever plans the one grid walk gave each."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_modes=st.integers(min_value=3, max_value=5),
        lossy=st.booleans(),
        n_angles=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_disjoint_subsets_of_one_scan(self, seed, n_modes, lossy, n_angles):
        rng = np.random.default_rng(seed)
        state = random_pure_gaussian(n_modes, rng, max_squeezing=float(rng.uniform(0.2, 1.5)))
        if lossy:
            mode = int(rng.integers(1, n_modes + 1))
            state = loss_channel(state, mode, float(rng.uniform(0.2, 0.9)))
        target = int(rng.integers(1, n_modes + 1))
        group = [m for m in range(1, n_modes + 1) if m != target]
        report = collective_scan(state, target, group, CvScanConfig(n_angles))
        for a, b in combinations((report.full_group, *report.subsets), 2):
            if not a.partition.steering_group & b.partition.steering_group:
                result = monogamy_check(a, b)
                assert result.satisfied, (sorted(a.partition.steering_group), result.product)


class TestSteeringImpliesEntanglement:
    def test_noisy_ghz_family_is_npt_when_steering(self):
        px = qubits.ghz_predictor(3, "x")
        py = qubits.ghz_predictor(3, "y")
        part = SitePartition(frozenset({1, 2}), 3)
        hits = 0
        for p in (0.2, 0.5, 0.8, 0.9, 1.0):
            state = depolarize_global(ghz(3), p)
            value = spin_two_obs(state, part, px, py)
            if value.verdict:
                hits += 1
                assert oracles.min_ppt_eigenvalue(state.matrix, 3, [3]) < -1e-12
        assert hits >= 2  # the check must not be vacuous

    def test_random_suite_respects_hierarchy(self):
        rng = np.random.default_rng(19)
        for trial in range(40):
            state = random_density_matrix(3, rng, rank=int(rng.integers(1, 3)))
            scan = collective_scan(state, 3, {1, 2})
            if scan.full_group.verdict:
                assert oracles.min_ppt_eigenvalue(state.matrix, 3, [3]) < -1e-12


class TestCliGridParsing:
    @given(
        data=st.data(),
        start=st.floats(min_value=0.0, max_value=0.5),
        count=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=50)
    def test_count_matches_closed_form(self, data, start, count):
        # steps that keep stop <= 1; a grid beyond 1 is refused (test_cli.py)
        widest = (1.0 - start) / max(count - 1, 1) * (1.0 - 1e-9)
        step = data.draw(st.floats(min_value=0.01, max_value=min(0.3, widest)))
        stop = start + (count - 1) * step
        grid = _parse_eta_grid(f"{start}:{stop}:{step}")
        assert len(grid) == count
        assert grid[0] == pytest.approx(start)
        assert start <= min(grid)
        assert max(grid) <= stop

    @given(st.floats(max_value=0.0, allow_nan=False, min_value=-10.0))
    def test_nonpositive_step_rejected(self, step):
        with pytest.raises(UsageError):
            _parse_eta_grid(f"0:1:{step}")


def _ghz_gate_by_gate(r, n_modes):
    """The GHZ network on modes 1-3, one public, validated call per gate."""
    state = vacuum(n_modes)
    state = squeeze(state, 1, r, math.pi / 2.0)
    state = squeeze(state, 2, r, 0.0)
    state = squeeze(state, 3, r, 0.0)
    state = beamsplitter(state, 1, 2, 1.0 / 3.0)
    return beamsplitter(state, 2, 3, 0.5)


def _eavesdrop_point(r, eta):
    """One sweep record from the public per-point API."""
    state = gaussian.eavesdrop_scenario(r, eta)
    accomplices = steering_product_cv(state, 1, HomodynePlan.x_on(2, 3), HomodynePlan.p_on(2, 3))
    taps = steering_product_cv(state, 1, HomodynePlan.x_on(4, 5), HomodynePlan.p_on(4, 5))
    product = monogamy_check(accomplices, taps)
    return EavesdropRecord(
        eta, accomplices.value, taps.value, product.product,
        accomplices.verdict, taps.verdict,
    )


class TestEavesdropSweep:
    @given(
        r=st.floats(min_value=0.0, max_value=2.0),
        inner=st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
            max_size=6, unique=True,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_sweep_matches_per_point_evaluation(self, r, inner):
        grid = [0.0, *sorted(inner), 1.0]
        assert eavesdrop_sweep(r, grid) == tuple(_eavesdrop_point(r, eta) for eta in grid)
        chain = _ghz_gate_by_gate(r, 3)
        assert np.array_equal(gaussian.cv_ghz(r).cov, chain.cov)
        network = _ghz_gate_by_gate(r, 5)
        for eta in grid:
            tapped = beamsplitter(beamsplitter(network, 2, 4, eta), 3, 5, eta)
            assert np.array_equal(gaussian.eavesdrop_scenario(r, eta).cov, tapped.cov)

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.0])
    def test_taps_at_eta_mirror_the_partners_at_one_minus_eta(self, r):
        # a tap holds the signal weighted by sqrt(1 - eta) and the vacuum by
        # -sqrt(eta): the legitimate mode at 1 - eta up to the vacuum's sign
        records = eavesdrop_sweep(r, _parse_eta_grid("0:1:0.01"))
        for record, mirror in zip(records, reversed(records)):
            assert math.isclose(
                record.eavesdropper_value, mirror.accomplice_value, rel_tol=1e-12
            )
            assert record.monogamy_product >= 1.0 - MONOGAMY_TOLERANCE
