"""N-qubit states, Pauli-string observables, and inference variances.

A pure state is a vector of 2^n amplitudes; a mixed state is a weighted
ensemble of such vectors plus white noise, so no kernel needs a 4^n matrix.
Conventions: site 1 is the most significant bit of the computational-basis
index, and spin-up is |0>.  Everything here is exact linear algebra on NumPy
arrays; no sampling is involved.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, product
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .core import SitePartition, as_integer, as_real, as_site, freeze

MAX_QUBITS = 14

_PAULI_LABELS = ("I", "X", "Y", "Z")
_LABEL_SET = frozenset(_PAULI_LABELS)
# Each factor's bit of a string's flip and phase masks.
_FLIP_BITS = str.maketrans("IXYZ", "0110")
_PHASE_BITS = str.maketrans("IXYZ", "0011")

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


def _check_n_qubits(n: int) -> int:
    """n as a Python int (see core.as_integer) if it lies in 1..MAX_QUBITS."""
    if type(n) is int and 1 <= n <= MAX_QUBITS:  # every state constructor's case
        return n
    requirement = f"qubit count must be an integer in 1..{MAX_QUBITS}"
    n = as_integer(n, requirement, 1)
    if n > MAX_QUBITS:
        raise ValueError(f"{requirement}, got {n}")
    return n


# Dense complex arrays (a matrix handed to DensityMatrix, `.matrix`, the
# Ginibre draw of random_density_matrix) are refused before they are
# allocated past this many bytes; a 2^12 x 2^12 matrix, 256 MiB, still fits.
DENSE_BYTES_BUDGET = 1 << 28


def _check_dense_bytes(shape: tuple[int, ...]) -> None:
    nbytes = 16 * math.prod(shape)
    if nbytes > DENSE_BYTES_BUDGET:
        raise ValueError(
            f"a dense complex array of shape {shape} takes {nbytes} bytes, more than "
            f"DENSE_BYTES_BUDGET = {DENSE_BYTES_BUDGET}"
        )


# DensityMatrix(matrix) solves a dense Hermitian eigenproblem, whose time grows
# as dim^3: on one core of a 2-vCPU machine it took 1.3 s at dim 2^10, 9.7 s at
# 2^11 and about 3 minutes at 2^12.  Matrices past this limit are refused
# before they are copied, although DENSE_BYTES_BUDGET admits them up to 2^12.
DENSE_EIGH_MAX_DIM = 1 << 10


def _power_of_two_dim(dim: int) -> bool:
    return dim >= 2 and not dim & (dim - 1)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over n qubits."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex)
        # every check below compares with >, which is false for NaN
        if not np.isfinite(amp).all():
            raise ValueError("amplitudes must be finite")
        if amp.ndim != 1 or not _power_of_two_dim(amp.size):
            raise ValueError("amplitude vector length must be a power of two, at least 2")
        _check_n_qubits(amp.size.bit_length() - 1)
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state must be normalized, got norm {norm!r}")
        object.__setattr__(self, "amplitudes", freeze(amp))

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    @functools.cached_property
    def _moments(self) -> dict[tuple[int, int], np.complex128]:
        """Raw Pauli moments kept by _mask_expectations."""
        return {}

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix._from_ensemble(self.amplitudes[None], _UNIT_WEIGHT, 0.0)


_UNIT_WEIGHT = freeze(np.ones(1))


@dataclass(frozen=True, init=False, eq=False)
class DensityMatrix:
    """Mixed state over n qubits: rho = sum_i weights[i] |c_i><c_i| + noise * I / 2^n,
    with the unit-norm c_i as the rows of the (r, 2^n) `components`.

    DensityMatrix(matrix) checks a Hermitian, unit-trace, positive-semidefinite
    matrix of at most DENSE_EIGH_MAX_DIM rows and keeps its eigenpairs as the
    ensemble; `.matrix` rebuilds the dense matrix on first use.
    """

    components: np.ndarray
    weights: np.ndarray
    noise: float

    def __init__(self, matrix: np.ndarray) -> None:
        shape = np.shape(matrix)
        if len(shape) != 2 or shape[0] != shape[1] or not _power_of_two_dim(shape[0]):
            raise ValueError("density matrix must be square with power-of-two dimension")
        _check_n_qubits(shape[0].bit_length() - 1)
        _check_dense_bytes(shape)
        if shape[0] > DENSE_EIGH_MAX_DIM:
            raise ValueError(
                f"a {shape[0]} x {shape[0]} density matrix needs an eigen-solve past "
                f"DENSE_EIGH_MAX_DIM = {DENSE_EIGH_MAX_DIM}; build larger mixed states as "
                f"ensembles (depolarize_global, random_density_matrix)"
            )
        mat = np.array(matrix, dtype=complex)
        if not np.isfinite(mat).all():
            raise ValueError("density matrix entries must be finite")
        if np.abs(mat - mat.conj().T).max() > 1e-10:
            raise ValueError("density matrix must be Hermitian within 1e-10")
        trace = mat.trace()
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"density matrix must have unit trace, got {trace!r}")
        eigenvalues, eigenvectors = np.linalg.eigh(mat)
        if eigenvalues[0] < -1e-9:
            raise ValueError("density matrix must be positive semidefinite within 1e-9")
        # rounding leaves null eigenvalues slightly negative; they carry no weight
        keep = eigenvalues > 0.0
        self._set(np.ascontiguousarray(eigenvectors[:, keep].T), eigenvalues[keep], 0.0)

    @classmethod
    def _from_ensemble(
        cls, components: np.ndarray, weights: np.ndarray, noise: float
    ) -> "DensityMatrix":
        """The state with these (r, 2^n) components, r weights and noise weight,
        which must be finite and non-negative, sum to 1 and have unit-norm
        components, each within 1e-10.  The arrays are kept, not copied."""
        components = np.asarray(components, dtype=complex)
        weights = np.asarray(weights, dtype=float)
        noise = float(noise)
        if not all(np.isfinite(part).all() for part in (components, weights, noise)):
            raise ValueError("ensemble entries must be finite")
        if (
            components.ndim != 2
            or not len(components)
            or weights.shape != components.shape[:1]
            or not _power_of_two_dim(components.shape[1])
        ):
            raise ValueError("ensemble needs (r, 2^n) components and r weights, r >= 1")
        _check_n_qubits(components.shape[1].bit_length() - 1)
        if (weights < 0.0).any() or noise < 0.0:
            raise ValueError("ensemble weights and noise must be non-negative")
        total = weights.sum() + noise
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"ensemble weights and noise must sum to 1, got {total!r}")
        norms = np.linalg.norm(components, axis=1)
        if np.abs(norms - 1.0).max() > 1e-10:
            raise ValueError("ensemble components must be normalized within 1e-10")
        state = object.__new__(cls)
        state._set(components, weights, noise)
        return state

    def _set(self, components: np.ndarray, weights: np.ndarray, noise: float) -> None:
        object.__setattr__(self, "components", freeze(components))
        object.__setattr__(self, "weights", freeze(weights))
        object.__setattr__(self, "noise", noise)

    @property
    def n_qubits(self) -> int:
        return self.components.shape[1].bit_length() - 1

    @functools.cached_property
    def _moments(self) -> dict[tuple[int, int], np.complex128]:
        """Raw Pauli moments kept by _mask_expectations."""
        return {}

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense 2^n x 2^n matrix, read-only; for cross-checks, no kernel
        reads it."""
        dim = self.components.shape[1]
        _check_dense_bytes((dim, dim))
        mat = (self.components.T * self.weights) @ self.components.conj()
        mat[np.diag_indices(dim)] += self.noise / dim
        return freeze(mat)


State = Union[PureState, DensityMatrix]


def state_qubits(state: State) -> int:
    return _ensemble(state)[0].shape[1].bit_length() - 1


def _ensemble(state: State) -> tuple[np.ndarray, np.ndarray, float]:
    """(components, weights, noise) of the state; a pure state is the
    one-component ensemble of weight 1 without noise."""
    if isinstance(state, PureState):
        return state.amplitudes[None], _UNIT_WEIGHT, 0.0
    if isinstance(state, DensityMatrix):
        return state.components, state.weights, state.noise
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
        factors = tuple(map(str.upper, map(str, self.factors)))
        if not factors:
            raise ValueError("factors must be non-empty")
        if not _LABEL_SET.issuperset(factors):
            bad = [f for f in factors if f not in _PAULI_LABELS]
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
        n_qubits = as_integer(n_qubits, "qubit count must be a positive integer", 1)
        factors = ["I"] * n_qubits
        for site, label in labels.items():
            factors[as_site(site, n_qubits) - 1] = label
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


Masks = tuple[int, int, complex]


def _prefactor(sign: int, flip: int, phase: int) -> complex:
    """sign * i**(number of Y factors), a Y factor setting both masks' bits."""
    return sign * 1j ** ((flip & phase).bit_count() % 4)


def _string_masks(obs: PauliString) -> Masks:
    """(flip_mask, phase_mask, prefactor) with site 1 as the most significant
    bit; the prefactor is the sign times i**(number of Y factors)."""
    word = "".join(obs.factors)
    flip = int(word.translate(_FLIP_BITS), 2)
    phase = int(word.translate(_PHASE_BITS), 2)
    return flip, phase, _prefactor(obs.sign, flip, phase)


def _site_masks(n: int, site: int, label: str) -> Masks:
    """_string_masks(PauliString.single(n, site, label)), from the site's bit."""
    bit = 1 << (n - site)
    flip, phase = bit * (label in "XY"), bit * (label in "YZ")
    return flip, phase, _prefactor(1, flip, phase)


def _difference_masks(t: Masks, p: Masks, sign: int) -> tuple[Masks, Masks, Masks]:
    """Masks of (T, P, TP) for strings T, P with disjoint supports and masks
    t, p, where TP has the given sign: each site of TP takes the factor of the
    one string acting on it, so its masks are the ORs."""
    flip, phase = t[0] | p[0], t[1] | p[1]
    return t, p, (flip, phase, _prefactor(sign, flip, phase))


def _parity_signs(values: np.ndarray) -> np.ndarray:
    """(-1)**popcount per element."""
    return 1.0 - 2.0 * (np.bitwise_count(values) & np.uint64(1)).astype(np.float64)


def _check_n_sites(strings: Sequence[PauliString], n: int) -> None:
    for obs in strings:
        if obs.n_sites != n:
            raise ValueError(f"observable acts on {obs.n_sites} sites but state has {n} qubits")


# Read-only basis indices and parity signs shared by every expectation, in
# bounded caches.  At n = 14 either array takes 128 KiB, so the sign cache
# holds at most 16 MiB.  A spin sum reads at most nine sign vectors.  One
# cycle of the noisy-qubit benchmark deck (n = 3..10) reads 84 distinct ones,
# 846 times in all; each state's moment memo saves the other 1434 reads.
@functools.lru_cache(maxsize=MAX_QUBITS)
def _basis_index(n: int) -> np.ndarray:
    return freeze(np.arange(1 << n, dtype=np.uint64))


@functools.lru_cache(maxsize=128)
def _phase_signs(n: int, phase_mask: int) -> np.ndarray:
    """(-1)**popcount(x & phase_mask) for each of the 2^n basis states x."""
    return freeze(_parity_signs(_basis_index(n) & np.uint64(phase_mask)))


# A state's moment memo stops growing at this many entries.  An entry, a
# NumPy complex scalar under its (flip, phase) key, takes 160-220 bytes, so a
# full memo holds under 1 MiB (630 KiB measured with tracemalloc at n = 7).
# Threads that share a state may both read and store one moment; they store
# equal values, and pass the cap by at most one entry per extra thread.
_MOMENT_MEMO_ENTRIES = 1 << 12


def _band(
    n: int, components: np.ndarray, weights: np.ndarray, noise: float, flip: int
) -> np.ndarray:
    """The band rho[x, x ^ flip] of the ensemble, the noise on its diagonal;
    one C-ordered temporary, so that the sum adds in the same order."""
    band = np.take(components, _basis_index(n) ^ np.uint64(flip), axis=1)
    np.conjugate(band, out=band)
    np.multiply(components, band, out=band)
    np.multiply(weights[:, None], band, out=band)
    band = band.sum(axis=0)
    if flip == 0:
        band += noise / (1 << n)
    return band


def _mask_expectations(state: State, masks: Sequence[Masks]) -> list[float]:
    """Exact <obs> of each Pauli string, given by its n-site masks.

    The raw moment sum_x (-1)**popcount(x & phase) * rho[x, x ^ flip] of each
    (flip, phase) pair is kept in the state's memo, until it holds
    _MOMENT_MEMO_ENTRIES, so a later call reads it instead of the state.  A
    moment the memo lacks reads the band of its flip mask, built once per
    call and dropped after it.
    """
    n = state_qubits(state)
    ensemble = _ensemble(state)
    memo = state._moments
    bands: dict[int, np.ndarray] = {}
    out = []
    for flip, phase_mask, prefactor in masks:
        raw = memo.get((flip, phase_mask))
        if raw is None:
            if flip not in bands:
                bands[flip] = _band(n, *ensemble, flip)
            raw = (_phase_signs(n, phase_mask) * bands[flip]).sum()
            if len(memo) < _MOMENT_MEMO_ENTRIES:
                memo[flip, phase_mask] = raw
        out.append(float((prefactor * raw).real))
    return out


def _expectations(state: State, strings: Sequence[PauliString]) -> list[float]:
    """_mask_expectations of Pauli strings, whose sizes are checked first."""
    _check_n_sites(strings, state_qubits(state))
    return _mask_expectations(state, [_string_masks(obs) for obs in strings])


def expectation(state: State, obs: PauliString) -> float:
    """Exact <obs> = Tr(rho obs) for a Pauli-string observable."""
    return _expectations(state, (obs,))[0]


def _difference_variance(
    e_t: float, e_p: float, e_tp: float, model: DetectionModel | None = None
) -> float:
    """variance_of_difference, or with a detection model
    inference_variance_with_loss, from <T>, <P> and <TP>."""
    if model is None:
        return max(2.0 - 2.0 * e_tp - (e_t - e_p) ** 2, 0.0)
    eta = model.efficiency
    fallback = e_t if model.no_click_policy == "marginal-mean" else model.guess
    second_click = 2.0 - 2.0 * e_tp
    mean_click = e_t - e_p
    second_miss = 1.0 - 2.0 * fallback * e_t + fallback * fallback
    mean_miss = e_t - fallback
    second = eta * second_click + (1.0 - eta) * second_miss
    mean = eta * mean_click + (1.0 - eta) * mean_miss
    return max(second - mean * mean, 0.0)


def variance_of_difference(
    state: State, target: PauliString, predictor: PauliString
) -> float:
    """Var(T - P) for Pauli strings T, P with disjoint supports.

    Both strings square to the identity, so the second moment reduces to
    2 - 2<TP> and only three expectation values are needed.
    """
    if target.n_sites != predictor.n_sites:
        raise ValueError("strings act on different numbers of sites")
    t, p = _string_masks(target), _string_masks(predictor)
    if (t[0] | t[1]) & (p[0] | p[1]):
        raise ValueError("supports overlap")
    _check_n_sites((target,), state_qubits(state))
    masks = _difference_masks(t, p, target.sign * predictor.sign)
    return _difference_variance(*_mask_expectations(state, masks))


def ghz(n: int) -> PureState:
    """The n-qubit state (|0...0> - |1...1>)/sqrt(2)."""
    n = _check_n_qubits(n)
    if n < 2:
        raise ValueError(f"ghz needs at least 2 qubits, got {n}")
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
    n = _check_n_qubits(n)
    if n < 2:
        raise ValueError(f"ghz predictors need at least 2 qubits, got {n}")
    target_site = as_site(target_site, n)
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
    n = _check_n_qubits(n)
    if n < 2:
        raise ValueError(f"ghz predictors need at least 2 qubits, got {n}")
    return PauliString.single(n, n - 1 if site is None else as_site(site, n - 1), "Z")


def depolarize_global(state: State, p: float) -> DensityMatrix:
    """Mix with the maximally mixed state: p*rho + (1-p)*I/2^n."""
    p = as_real(p, "depolarizing weight must lie in [0, 1]", 0.0, 1.0)
    components, weights, noise = _ensemble(state)
    return DensityMatrix._from_ensemble(components, p * weights, p * noise + (1.0 - p))


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
        efficiency = as_real(self.efficiency, "efficiency must lie in [0, 1]", 0.0, 1.0)
        object.__setattr__(self, "efficiency", efficiency)
        if self.no_click_policy not in ("marginal-mean", "constant-guess"):
            raise ValueError(
                "no_click_policy must be 'marginal-mean' or 'constant-guess', "
                f"got {self.no_click_policy!r}"
            )
        if self.no_click_policy == "constant-guess":
            guess = as_real(self.guess, "constant-guess policy needs a finite guess value")
            object.__setattr__(self, "guess", guess)
        elif self.guess is not None:
            raise ValueError("guess is only meaningful for the constant-guess policy")


def check_partition(partition: SitePartition, n_qubits: int) -> None:
    as_site(max(partition.sites), n_qubits)


def _require_target_support(target: PauliString, partition: SitePartition) -> None:
    extra = set(target.support) - {partition.target_site}
    if extra:
        raise ValueError(f"target observable must act on site {partition.target_site} only")


def _require_group_support(predictor: PauliString, partition: SitePartition, masks: Masks) -> None:
    # the group's bits in the predictor's own size, which is checked later
    m = predictor.n_sites
    if (masks[0] | masks[1]) & ~sum(1 << (m - s) for s in partition.steering_group if s <= m):
        extra = set(predictor.support) - set(partition.steering_group)
        raise ValueError(f"predictor acts outside the steering group at sites {sorted(extra)}")


def _spin_term_masks(
    n: int, partition: SitePartition, label: str, predictor: PauliString
) -> tuple[Masks, Masks, Masks]:
    """Masks of (T, P, TP) for the target site's Pauli `label` and a predictor,
    checked as inference_variance_with_loss checks them: the group support,
    then the predictor's size."""
    p = _string_masks(predictor)
    _require_group_support(predictor, partition, p)
    _check_n_sites((predictor,), n)
    return _difference_masks(_site_masks(n, partition.target_site, label), p, predictor.sign)


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
    p = _string_masks(predictor)
    _require_group_support(predictor, partition, p)
    _check_n_sites((target, predictor), n)
    masks = _difference_masks(_string_masks(target), p, target.sign * predictor.sign)
    return _difference_variance(*_mask_expectations(state, masks), model)


# One batch of rotated states holds at most this many amplitudes, counted over
# all components of an ensemble; larger menus are walked batch by batch.
_BATCH_ENTRIES = 1 << 12


# Read-only index arrays shared by every kernel call, in bounded caches.  At
# n = 14 a pattern takes 32 KiB and a flip kernel 384 KiB, so the two caches
# hold at most 8 MiB and 6 MiB.  The scan benchmark's deck reads about 150
# patterns per cycle, all of which stay cached.
@functools.lru_cache(maxsize=256)
def _outcome_pattern(n: int, sites: tuple[int, ...]) -> np.ndarray:
    """Outcome index of the sites, first site most significant, for each of
    the 2^n basis states."""
    idx = np.arange(1 << n, dtype=np.uint64)
    pattern = np.zeros(1 << n, dtype=np.uint16)
    for site in sites:
        bit = ((idx >> np.uint64(n - site)) & np.uint64(1)).astype(np.uint16)
        pattern = (pattern << 1) | bit
    return freeze(pattern)


@functools.lru_cache(maxsize=16)
def _flip_kernel(
    n: int, flip: int, phase_mask: int, prefactor: complex
) -> tuple[np.ndarray, np.ndarray]:
    """(src, phases): the Pauli string with these masks and prefactor maps
    basis state src[x] to phases[x] times basis state x."""
    src = np.arange(1 << n) ^ flip
    return freeze(src), freeze(prefactor * _parity_signs(src & phase_mask))


@functools.lru_cache(maxsize=64)
def _gate_stack(menu: tuple[str, ...]) -> np.ndarray:
    """(len(menu), 2, 2) rotations to the Z basis of the menu's Paulis, in
    either case."""
    labels = [str(label).upper() for label in menu]
    bad = [label for label in labels if label not in _TO_Z_BASIS]
    if bad:
        raise ValueError(f"measurement settings must be X, Y, or Z; got {bad}")
    return freeze(np.stack([_TO_Z_BASIS[label] for label in labels]))


def _rotate_site(batch: np.ndarray, site: int, gates: np.ndarray) -> np.ndarray:
    """Rotate every (2^n,) state of the batch by every gate of the (m, 2, 2)
    stack on one site, as one matrix product; the gate index varies fastest
    in the (B * m) result."""
    count = len(batch)
    tensor = batch.reshape(count, 1 << (site - 1), 2, -1)
    out = gates.reshape(-1, 2) @ tensor.transpose(2, 0, 1, 3).reshape(2, -1)
    out = out.reshape(len(gates), 2, count, tensor.shape[1], tensor.shape[3])
    return out.transpose(2, 0, 3, 1, 4).reshape(count * len(gates), -1)


def _rotated_batches(
    batch: np.ndarray, stacks: Sequence[tuple[int, np.ndarray]]
) -> Iterator[np.ndarray]:
    """The (r, 2^n) batch rotated by every assignment of the per-site gate
    stacks, in itertools.product order with the row index slowest, as batches
    of at most _BATCH_ENTRIES entries unless the r rows alone are larger: the
    trailing sites are vectorised and the labels of the leading sites are
    walked one by one."""
    if not stacks or batch.size * math.prod(len(g) for _, g in stacks) <= _BATCH_ENTRIES:
        for site, gates in stacks:
            batch = _rotate_site(batch, site, gates)
        yield batch
        return
    (site, gates), rest = stacks[0], stacks[1:]
    for pick in range(len(gates)):
        yield from _rotated_batches(_rotate_site(batch, site, gates[pick : pick + 1]), rest)


def _outcome_sums(values: np.ndarray, bins: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sums of the (rows, 2^n) values into the (assignments, outcomes) bins."""
    sums = np.bincount(bins, weights=values.ravel(), minlength=shape[0] * shape[1])
    return sums.reshape(shape)


def _outcome_tables(
    state: State,
    partition: SitePartition,
    targets: Sequence[PauliString],
    menus: Mapping[int, Sequence[str]],
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities P(a), shape (A, 2^k), and target values
    P(a) * E[T | a], shape (len(targets), A, 2^k), of the k group sites for
    each of the A assignments of their menu labels.

    Assignments run in itertools.product order over the sorted group sites
    and outcomes a run over the group's bits, first site most significant
    in both.  Summing out a site's outcome bits traces it out whatever its
    label, so any subset's tables are marginals of these.
    """
    n = state_qubits(state)
    if any(target.n_sites != n for target in targets):
        raise ValueError("target observable and state disagree on the number of sites")
    check_partition(partition, n)
    for target in targets:
        _require_target_support(target, partition)
    sites = tuple(sorted(partition.steering_group))
    if set(menus) != set(sites):
        raise ValueError("settings must cover exactly the steering group")
    stacks = [(site, _gate_stack(tuple(menus[site]))) for site in sites]

    dim = 1 << n
    # Group basis indices by the steering group's outcome pattern.
    pattern = _outcome_pattern(n, sites)
    n_outcomes = 1 << len(sites)
    n_assignments = math.prod(len(gates) for _, gates in stacks)
    masks = [_string_masks(target) for target in targets]
    kernels = [_flip_kernel(n, *mask) for mask in masks]

    components, weights, noise = _ensemble(state)
    probs = np.empty((n_assignments, n_outcomes))
    values = np.empty((len(targets), n_assignments, n_outcomes))
    start = 0
    scaled = np.sqrt(weights)[:, None] * components
    for batch in _rotated_batches(scaled, stacks):
        # rows run over (component, assignment): each assignment's outcome
        # sums collect every component
        shape = (len(batch) // len(components), n_outcomes)
        rows = slice(start, start + shape[0])
        bins = np.add.outer(np.arange(len(batch)) % shape[0] * n_outcomes, pattern).ravel()
        conj = np.conj(batch)
        probs[rows] = _outcome_sums((conj * batch).real, bins, shape)
        for target_values, (src, phases) in zip(values, kernels):
            terms = (conj * phases * batch[:, src]).real
            target_values[rows] = _outcome_sums(terms, bins, shape)
        start = rows.stop
    if noise:
        # The noise I / 2^n is unchanged by the rotations: it adds noise / 2^k
        # to each outcome probability, and to the outcome values of a target
        # that flips no bit.
        probs += noise / n_outcomes
        for target_values, (flip, _, _), (_, phases) in zip(values, masks, kernels):
            if flip == 0:
                target_values += np.bincount(pattern, phases.real, n_outcomes) * noise / dim
    return probs, values


def _table_variances(probs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_a P(a) * Var(T | a) = 1 - sum_a values(a)^2 / P(a) of each row of
    outcome tables, outcomes on the last axis, reduced in place in `values`;
    outcomes of probability up to 1e-14 are left out."""
    seen = probs > 1e-14
    np.divide(np.square(values, out=values), probs, out=values, where=seen)
    values *= seen
    return np.maximum(1.0 - values.sum(axis=-1), 0.0)


# The full group's outcome table is built and read in chunks of at most this
# many bytes, one chunk per label assignment of the leading group sites.  A
# 6-site group with a 3-label menu needs 1.1 MB, so every scan of up to 6
# sites is one chunk.  The 9-site ghz(10) scan (242 MB of table in all) takes
# 81 chunks; on one 2-vCPU machine it peaked at 41 MB of resident memory in
# 3.1 s, against 37 MB in 3.4 s with 1 MiB chunks and 54 MB in 2.6 s with
# 16 MiB chunks.
_TABLE_CHUNK_BYTES = 1 << 22


def _marginal_tables(probs, values, kept, lead, fixed, next_drop) -> Iterator[tuple]:
    """(kept, probs, values) of each nonempty subset of the `kept` group
    positions that drops positions from next_drop on, depth-first, and of
    these tables last, so that each may be reduced in place once yielded.

    probs has a label axis per kept position from `lead` on, then a bit axis
    per kept position; values has a target axis first.  Positions below lead
    hold the `fixed` labels, and only label 0 may be dropped.
    """
    free = sum(i >= lead for i in kept)
    for at, i in enumerate(kept):
        if len(kept) == 1 or i < next_drop or (i < lead and fixed[i]):
            continue
        # the leading kept positions come first and have no label axis
        label_axis = at - (len(kept) - free) if i >= lead else None
        bit_axis = free + at - (label_axis is not None)
        child = []
        for table, extra in ((probs, 0), (values, 1)):
            if label_axis is not None:
                table = table[(slice(None),) * (extra + label_axis) + (0,)]
            head = (slice(None),) * (extra + bit_axis)
            child.append(table[(*head, 0)] + table[(*head, 1)])
        yield from _marginal_tables(*child, kept[:at] + kept[at + 1 :], lead, fixed, i + 1)
    yield kept, probs, values


def _subset_variances(
    state: State,
    partition: SitePartition,
    targets: Sequence[PauliString],
    menu: Sequence[str],
) -> dict[tuple[int, ...], np.ndarray]:
    """optimal_inference_variance of the targets for every assignment of the
    menu labels, as (len(targets), m, ..., m) arrays with one label axis per
    sorted site, for the steering group and then each nonempty proper subset,
    by size in itertools.combinations order; keyed by the sorted sites.

    Tracing a site out sums its outcome bits whatever it measured, so a
    subset's outcome tables are the group's at menu label 0 on its missing
    sites with their bits summed out.  The group's tables are built once, one
    chunk of at most _TABLE_CHUNK_BYTES per label assignment of the `lead`
    leading sites.
    """
    sites = tuple(sorted(partition.steering_group))
    m, k = len(menu), len(sites)
    row_bytes = 8 * (1 + len(targets)) << k
    lead = next((j for j in range(k) if row_bytes * m ** (k - j) <= _TABLE_CHUNK_BYTES), k)
    subsets = [sites] + [s for size in range(1, k) for s in combinations(sites, size)]
    variances = {s: np.empty((len(targets),) + (m,) * len(s)) for s in subsets}
    shape = (m,) * (k - lead) + (2,) * k
    for fixed in product(range(m), repeat=lead):
        menus = {
            site: menu[fixed[j] : fixed[j] + 1] if j < lead else menu
            for j, site in enumerate(sites)
        }
        probs, values = _outcome_tables(state, partition, targets, menus)
        tables = _marginal_tables(
            probs.reshape(shape), values.reshape(-1, *shape), tuple(range(k)), lead, fixed, 0
        )
        for kept, probs, values in tables:
            free = sum(i >= lead for i in kept)
            rows = (slice(None), *(fixed[i] for i in kept if i < lead))
            variances[tuple(sites[i] for i in kept)][rows] = _table_variances(
                probs.reshape(*probs.shape[:free], -1),
                values.reshape(*values.shape[: free + 1], -1),
            )
    return variances


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
    menus = {site: (label,) for site, label in settings.items()}
    return float(_table_variances(*_outcome_tables(state, partition, (target,), menus))[0, 0])


def random_pure_state(n: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state on n qubits."""
    n = _check_n_qubits(n)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return PureState(vec / np.linalg.norm(vec))


def random_density_matrix(
    n: int, rng: np.random.Generator, rank: int | None = None
) -> DensityMatrix:
    """Random mixed state: normalized G G^dag with Ginibre-distributed G, kept
    as the ensemble of G's normalized columns weighted by their squared norms."""
    dim = 1 << _check_n_qubits(n)
    requirement = f"rank must be an integer in 1..{dim}"
    rank = dim if rank is None else as_integer(rank, requirement, 1)
    if rank > dim:
        raise ValueError(f"{requirement}, got {rank}")
    _check_dense_bytes((rank, dim))
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    norms = np.linalg.norm(g, axis=0)
    columns = np.ascontiguousarray((g / norms).T)
    return DensityMatrix._from_ensemble(columns, norms**2 / np.sum(norms**2), 0.0)
