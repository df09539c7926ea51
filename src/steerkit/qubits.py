"""Dense N-qubit states, Pauli-string observables, and inference variances.

Conventions: site 1 is the most significant bit of the computational-basis
index, and spin-up is |0>.  Everything here is exact linear algebra on NumPy
arrays; no sampling is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .core import SitePartition, freeze

MAX_QUBITS = 14

_PAULI_LABELS = ("I", "X", "Y", "Z")

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)

# Single-qubit rotations U with U sigma U^dag = Z for each measured Pauli.
_TO_Z_BASIS = {
    "X": _HADAMARD,
    "Y": _HADAMARD @ np.diag([1.0, -1.0j]),
    "Z": np.eye(2, dtype=complex),
}


def _check_n_qubits(n: int) -> None:
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over n qubits."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex)
        # every check below compares with >, which is false for NaN
        if not np.isfinite(amp).all():
            raise ValueError("amplitudes must be finite")
        if amp.ndim != 1 or amp.size < 2 or amp.size & (amp.size - 1):
            raise ValueError("amplitude vector length must be a power of two, at least 2")
        _check_n_qubits(amp.size.bit_length() - 1)
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state must be normalized, got norm {norm!r}")
        object.__setattr__(self, "amplitudes", freeze(amp))

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over n qubits."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if not np.isfinite(mat).all():
            raise ValueError("density matrix entries must be finite")
        dim = mat.shape[0] if mat.ndim == 2 else 0
        if mat.ndim != 2 or mat.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
            raise ValueError("density matrix must be square with power-of-two dimension")
        _check_n_qubits(dim.bit_length() - 1)
        if np.abs(mat - mat.conj().T).max() > 1e-10:
            raise ValueError("density matrix must be Hermitian within 1e-10")
        trace = mat.trace()
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"density matrix must have unit trace, got {trace!r}")
        if np.linalg.eigvalsh(mat).min() < -1e-9:
            raise ValueError("density matrix must be positive semidefinite within 1e-9")
        object.__setattr__(self, "matrix", freeze(mat))

    @property
    def n_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


State = Union[PureState, DensityMatrix]


def state_qubits(state: State) -> int:
    if isinstance(state, (PureState, DensityMatrix)):
        return state.n_qubits
    raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")


@dataclass(frozen=True)
class PauliString:
    """Signed tensor product of single-site Pauli operators.

    Squares to the identity, so its spectrum is {-1, +1} whenever at least
    one factor is not the identity.
    """

    factors: tuple[str, ...]
    sign: int = 1

    def __post_init__(self) -> None:
        factors = tuple(str(f).upper() for f in self.factors)
        if not factors:
            raise ValueError("factors must be non-empty")
        bad = [f for f in factors if f not in _PAULI_LABELS]
        if bad:
            raise ValueError(f"factors must be one of I, X, Y, Z; got {bad}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "sign", int(self.sign))

    @classmethod
    def from_sites(
        cls, n_qubits: int, labels: Mapping[int, str], sign: int = 1
    ) -> "PauliString":
        """Identity everywhere except at the given 1-based sites."""
        factors = ["I"] * n_qubits
        for site, label in labels.items():
            if not 1 <= site <= n_qubits:
                raise ValueError(f"site {site} outside 1..{n_qubits}")
            factors[site - 1] = label
        return cls(tuple(factors), sign)

    @classmethod
    def single(cls, n_qubits: int, site: int, label: str, sign: int = 1) -> "PauliString":
        return cls.from_sites(n_qubits, {site: label}, sign)

    @property
    def n_sites(self) -> int:
        return len(self.factors)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, f in enumerate(self.factors) if f != "I")

    def dense(self) -> np.ndarray:
        """Full 2^n x 2^n matrix; meant for small n and cross-checks."""
        out = np.array([[complex(self.sign)]])
        for f in self.factors:
            out = np.kron(out, PAULI_MATRICES[f])
        return out


def _string_masks(obs: PauliString) -> tuple[int, int, complex]:
    """(flip_mask, phase_mask, prefactor) with site 1 as the most significant
    bit; the prefactor is the sign times i**(number of Y factors)."""
    n = obs.n_sites
    flip = phase = y_count = 0
    for i, f in enumerate(obs.factors):
        bit = 1 << (n - 1 - i)
        if f in ("X", "Y"):
            flip |= bit
        if f in ("Y", "Z"):
            phase |= bit
        if f == "Y":
            y_count += 1
    return flip, phase, obs.sign * 1j ** (y_count % 4)


def _parity_signs(values: np.ndarray) -> np.ndarray:
    """(-1)**popcount per element."""
    return 1.0 - 2.0 * (np.bitwise_count(values) & np.uint64(1)).astype(np.float64)


def disjoint_product(a: PauliString, b: PauliString) -> PauliString:
    """Product of two strings with disjoint supports (no phase bookkeeping needed)."""
    if a.n_sites != b.n_sites:
        raise ValueError("strings act on different numbers of sites")
    if set(a.support) & set(b.support):
        raise ValueError("supports overlap")
    factors = tuple(fa if fb == "I" else fb for fa, fb in zip(a.factors, b.factors))
    return PauliString(factors, a.sign * b.sign)


def expectation(state: State, obs: PauliString) -> float:
    """Exact <obs> = Tr(rho obs) for a Pauli-string observable."""
    n = state_qubits(state)
    if obs.n_sites != n:
        raise ValueError(
            f"observable acts on {obs.n_sites} sites but state has {n} qubits"
        )
    flip, phase_mask, prefactor = _string_masks(obs)
    dim = 1 << n
    idx = np.arange(dim, dtype=np.uint64)
    if isinstance(state, PureState):
        amp = state.amplitudes
        src = idx ^ np.uint64(flip)
        signs = _parity_signs(src & np.uint64(phase_mask))
        raw = np.sum(np.conj(amp) * signs * amp[src])
    else:
        signs = _parity_signs(idx & np.uint64(phase_mask))
        raw = np.sum(signs * state.matrix[idx, idx ^ np.uint64(flip)])
    return float((prefactor * raw).real)


def variance_of_difference(
    state: State, target: PauliString, predictor: PauliString
) -> float:
    """Var(T - P) for Pauli strings T, P with disjoint supports.

    Both strings square to the identity, so the second moment reduces to
    2 - 2<TP> and only three expectation values are needed.
    """
    product = disjoint_product(target, predictor)
    e_t = expectation(state, target)
    e_p = expectation(state, predictor)
    e_tp = expectation(state, product)
    var = 2.0 - 2.0 * e_tp - (e_t - e_p) ** 2
    return max(var, 0.0)


def ghz(n: int) -> PureState:
    """The n-qubit state (|0...0> - |1...1>)/sqrt(2)."""
    if n < 2:
        raise ValueError(f"ghz needs at least 2 qubits, got {n}")
    _check_n_qubits(n)
    amp = np.zeros(1 << n, dtype=complex)
    amp[0] = 1.0 / math.sqrt(2.0)
    amp[-1] = -1.0 / math.sqrt(2.0)
    return PureState(amp)


def ghz_predictor_for_target(n: int, target_site: int, target_component: str) -> PauliString:
    """Pauli string on the other n-1 sites predicting sigma_x or sigma_y of
    the target site on ghz(n) with zero error.

    The string and its sign come from the GHZ stabilizer group: a product of
    X/Y factors with an even number of Y factors fixes the state up to a sign,
    and that sign is absorbed into the predictor.
    """
    if n < 2:
        raise ValueError(f"ghz predictors need at least 2 qubits, got {n}")
    _check_n_qubits(n)
    if not 1 <= target_site <= n:
        raise ValueError(f"target site {target_site} outside 1..{n}")
    component = target_component.lower()
    if component not in ("x", "y"):
        raise ValueError(f"target component must be 'x' or 'y', got {target_component!r}")
    others = [s for s in range(1, n + 1) if s != target_site]
    if n % 2 == 1:
        sign = (-1) ** ((n + 1) // 2)
        if component == "x":
            labels = {s: "Y" for s in others}
        else:
            labels = {s: "Y" for s in others[:-1]}
            labels[others[-1]] = "X"
    else:
        if component == "x":
            sign = (-1) ** (n // 2)
            labels = {s: "Y" for s in others[:-1]}
            labels[others[-1]] = "X"
        else:
            sign = -((-1) ** (n // 2))
            labels = {s: "Y" for s in others}
    return PauliString.from_sites(n, labels, sign)


def ghz_predictor(n: int, target_component: str) -> PauliString:
    """Predictor for the last site of ghz(n); see ghz_predictor_for_target."""
    return ghz_predictor_for_target(n, n, target_component)


def ghz_z_predictor(n: int, site: int | None = None) -> PauliString:
    """sigma_z of any single other site predicts sigma_z of site n exactly on ghz(n)."""
    if n < 2:
        raise ValueError(f"ghz predictors need at least 2 qubits, got {n}")
    _check_n_qubits(n)
    if site is None:
        site = n - 1
    if not 1 <= site <= n - 1:
        raise ValueError(f"predictor site {site} outside 1..{n - 1}")
    return PauliString.single(n, site, "Z")


def depolarize_global(state: State, p: float) -> DensityMatrix:
    """Mix with the maximally mixed state: p*rho + (1-p)*I/2^n."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing weight must lie in [0, 1], got {p}")
    dim = 1 << state_qubits(state)
    # the input is already validated: only the mixture pays for the PSD check
    if isinstance(state, PureState):
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
    else:
        rho = state.matrix
    return DensityMatrix(p * rho + (1.0 - p) * np.eye(dim) / dim)


@dataclass(frozen=True)
class DetectionModel:
    """Collective detection efficiency of the steering group.

    With probability `efficiency` the predictor reading is available; with
    the complementary probability the estimate falls back to the no-click
    policy: the target's marginal mean, or a fixed constant guess.
    """

    efficiency: float
    no_click_policy: str = "marginal-mean"
    guess: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "efficiency", float(self.efficiency))
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {self.efficiency}")
        if self.no_click_policy not in ("marginal-mean", "constant-guess"):
            raise ValueError(
                "no_click_policy must be 'marginal-mean' or 'constant-guess', "
                f"got {self.no_click_policy!r}"
            )
        if self.no_click_policy == "constant-guess":
            if self.guess is None or not math.isfinite(float(self.guess)):
                raise ValueError("constant-guess policy needs a finite guess value")
            object.__setattr__(self, "guess", float(self.guess))
        elif self.guess is not None:
            raise ValueError("guess is only meaningful for the constant-guess policy")


def check_partition(partition: SitePartition, n_qubits: int) -> None:
    if max(partition.sites) > n_qubits:
        raise ValueError(f"partition uses sites outside 1..{n_qubits}")


def _require_target_support(target: PauliString, partition: SitePartition) -> None:
    extra = set(target.support) - {partition.target_site}
    if extra:
        raise ValueError(f"target observable must act on site {partition.target_site} only")


def _require_group_support(predictor: PauliString, partition: SitePartition) -> None:
    extra = set(predictor.support) - set(partition.steering_group)
    if extra:
        raise ValueError(f"predictor acts outside the steering group at sites {sorted(extra)}")


def inference_variance_with_loss(
    state: State,
    partition: SitePartition,
    target: PauliString,
    predictor: PauliString,
    model: DetectionModel,
) -> float:
    """Variance of (T - P~) where P~ is the predictor reading when the group's
    collective detector clicks and the no-click policy value otherwise.

    Computed exactly over the two-branch mixture, including the cross-term
    between the branch means.
    """
    n = state_qubits(state)
    check_partition(partition, n)
    _require_target_support(target, partition)
    _require_group_support(predictor, partition)
    e_t = expectation(state, target)
    e_p = expectation(state, predictor)
    e_tp = expectation(state, disjoint_product(target, predictor))
    eta = model.efficiency
    fallback = e_t if model.no_click_policy == "marginal-mean" else model.guess
    second_click = 2.0 - 2.0 * e_tp
    mean_click = e_t - e_p
    second_miss = 1.0 - 2.0 * fallback * e_t + fallback * fallback
    mean_miss = e_t - fallback
    second = eta * second_click + (1.0 - eta) * second_miss
    mean = eta * mean_click + (1.0 - eta) * mean_miss
    return max(second - mean * mean, 0.0)


def _apply_on_axis(tensor: np.ndarray, gate: np.ndarray, axis: int) -> np.ndarray:
    moved = np.tensordot(gate, tensor, axes=([1], [axis]))
    return np.moveaxis(moved, 0, axis)


def _rotate_sites_to_z(
    array: np.ndarray, n: int, settings: Mapping[int, str], density: bool
) -> np.ndarray:
    """Conjugate the state so each measured Pauli becomes Z on its site."""
    shape = (2,) * (2 * n if density else n)
    tensor = array.reshape(shape)
    for site, label in settings.items():
        gate = _TO_Z_BASIS[label]
        tensor = _apply_on_axis(tensor, gate, site - 1)
        if density:
            tensor = _apply_on_axis(tensor, gate.conj(), n + site - 1)
    return tensor.reshape(array.shape)


def optimal_inference_variance(
    state: State,
    partition: SitePartition,
    target: PauliString,
    settings: Mapping[int, str],
) -> float:
    """Minimum variance of (T - g(a)) over all real-valued estimators g.

    The group measures one Pauli per site (the settings); the optimal
    estimator is the conditional mean, so the result is
    sum_a P(a) * Var(T | a).
    """
    n = state_qubits(state)
    if target.n_sites != n:
        raise ValueError("target observable and state disagree on the number of sites")
    check_partition(partition, n)
    _require_target_support(target, partition)
    sites = sorted(partition.steering_group)
    if set(settings) != set(sites):
        raise ValueError("settings must cover exactly the steering group")
    labels = {site: str(settings[site]).upper() for site in sites}
    bad = [lab for lab in labels.values() if lab not in ("X", "Y", "Z")]
    if bad:
        raise ValueError(f"measurement settings must be X, Y, or Z; got {bad}")

    flip, phase_mask, prefactor = _string_masks(target)
    dim = 1 << n
    idx = np.arange(dim, dtype=np.uint64)
    src = idx ^ np.uint64(flip)

    if isinstance(state, PureState):
        psi = _rotate_sites_to_z(state.amplitudes, n, labels, density=False)
        probs = (np.conj(psi) * psi).real
        signs = _parity_signs(src & np.uint64(phase_mask))
        values = (prefactor * np.conj(psi) * signs * psi[src]).real
    else:
        rho = _rotate_sites_to_z(state.matrix, n, labels, density=True)
        probs = np.diagonal(rho).real
        signs = _parity_signs(idx & np.uint64(phase_mask))
        values = (prefactor * signs * rho[idx, src]).real

    # Group basis indices by the steering group's outcome pattern.
    pattern = np.zeros(dim, dtype=np.int64)
    for site in sites:
        bit = ((idx >> np.uint64(n - site)) & np.uint64(1)).astype(np.int64)
        pattern = (pattern << 1) | bit
    n_outcomes = 1 << len(sites)
    outcome_probs = np.bincount(pattern, weights=probs, minlength=n_outcomes)
    outcome_values = np.bincount(pattern, weights=values, minlength=n_outcomes)

    seen = outcome_probs > 1e-14
    explained = np.sum(outcome_values[seen] ** 2 / outcome_probs[seen])
    return max(1.0 - explained, 0.0)


def random_pure_state(n: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state on n qubits."""
    _check_n_qubits(n)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return PureState(vec / np.linalg.norm(vec))


def random_density_matrix(
    n: int, rng: np.random.Generator, rank: int | None = None
) -> DensityMatrix:
    """Random mixed state: normalized G G^dag with Ginibre-distributed G."""
    _check_n_qubits(n)
    dim = 1 << n
    if rank is None:
        rank = dim
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must lie in 1..{dim}, got {rank}")
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return DensityMatrix(rho / rho.trace().real)
