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
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union

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


def _power_of_two_dim(dim: int) -> bool:
    return dim >= 2 and not dim & (dim - 1)


@dataclass(frozen=True)
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

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix._from_ensemble(self.amplitudes[None], _UNIT_WEIGHT, 0.0)


_UNIT_WEIGHT = freeze(np.ones(1))


@dataclass(frozen=True, init=False)
class DensityMatrix:
    """Mixed state over n qubits: rho = sum_i weights[i] |c_i><c_i| + noise * I / 2^n,
    with the unit-norm c_i as the rows of the (r, 2^n) `components`.

    DensityMatrix(matrix) checks a Hermitian, unit-trace, positive-semidefinite
    matrix and keeps its eigenpairs as the ensemble; `.matrix` rebuilds the
    dense matrix on first use.
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
    components, weights, noise = _ensemble(state)
    dim = 1 << n
    idx = np.arange(dim, dtype=np.uint64)
    # the band rho[x, x ^ flip] of the ensemble, the noise on its diagonal
    conj_flipped = np.conj(components[:, idx ^ np.uint64(flip)])
    band = (weights[:, None] * (components * conj_flipped)).sum(axis=0)
    if flip == 0:
        band += noise / dim
    raw = np.sum(_parity_signs(idx & np.uint64(phase_mask)) * band)
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


# One batch of rotated states holds at most this many amplitudes, counted over
# all components of an ensemble; larger menus are walked batch by batch.
_BATCH_ENTRIES = 1 << 12


def _apply_gates(gates: np.ndarray, tensor: np.ndarray, axis: int) -> np.ndarray:
    """Each (2, 2) gate of the stack applied on one axis of the tensor, as one
    matrix product; the gate index is the new leading axis."""
    moved = np.moveaxis(tensor, axis, 0)
    out = gates.reshape(-1, 2) @ moved.reshape(2, -1)
    return np.moveaxis(out.reshape(len(gates), *moved.shape), 1, axis + 1)


def _rotate_site(batch: np.ndarray, site: int, gates: np.ndarray) -> np.ndarray:
    """Rotate every (2^n,) state of the batch by every gate of the (m, 2, 2)
    stack on one site; the gate index varies fastest in the (B * m) result."""
    count = len(batch)
    out = _apply_gates(gates, batch.reshape(count, 1 << (site - 1), 2, -1), 2)
    return np.swapaxes(out.reshape(len(gates), *batch.shape), 0, 1).reshape(
        count * len(gates), -1
    )


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


def _inference_variances(
    state: State,
    partition: SitePartition,
    targets: Sequence[PauliString],
    menus: Mapping[int, Sequence[str]],
) -> np.ndarray:
    """optimal_inference_variance of each target for every assignment of the
    group sites' menu labels, as a (len(targets), prod(len(menu))) array.

    Assignments run in itertools.product order over the sorted group sites,
    first site most significant, so argmin breaks ties like a running min.
    """
    n = state_qubits(state)
    if any(target.n_sites != n for target in targets):
        raise ValueError("target observable and state disagree on the number of sites")
    check_partition(partition, n)
    for target in targets:
        _require_target_support(target, partition)
    sites = sorted(partition.steering_group)
    if set(menus) != set(sites):
        raise ValueError("settings must cover exactly the steering group")
    labels = [[str(label).upper() for label in menus[site]] for site in sites]
    bad = [lab for menu in labels for lab in menu if lab not in _TO_Z_BASIS]
    if bad:
        raise ValueError(f"measurement settings must be X, Y, or Z; got {bad}")
    stacks = [
        (site, np.stack([_TO_Z_BASIS[lab] for lab in menu]))
        for site, menu in zip(sites, labels)
    ]

    dim = 1 << n
    idx = np.arange(dim, dtype=np.uint64)
    # Group basis indices by the steering group's outcome pattern.
    pattern = np.zeros(dim, dtype=np.int64)
    for site in sites:
        bit = ((idx >> np.uint64(n - site)) & np.uint64(1)).astype(np.int64)
        pattern = (pattern << 1) | bit
    n_outcomes = 1 << len(sites)

    components, weights, noise = _ensemble(state)
    kernels = []
    for target in targets:
        flip, phase_mask, prefactor = _string_masks(target)
        src = idx ^ np.uint64(flip)
        signs = _parity_signs(src & np.uint64(phase_mask))
        # The noise I / 2^n is unchanged by the rotations: it adds noise / 2^k
        # to each outcome probability, and to the outcome values of a target
        # that flips no bit.
        identity = 0.0
        if flip == 0 and noise:
            identity = (prefactor * np.bincount(pattern, signs, n_outcomes)).real * noise / dim
        kernels.append((src, signs, prefactor, identity))

    batches = []
    scaled = np.sqrt(weights)[:, None] * components
    for batch in _rotated_batches(scaled, stacks):
        # rows run over (component, assignment): each assignment's outcome
        # sums collect every component
        shape = (len(batch) // len(components), n_outcomes)
        bins = ((np.arange(len(batch)) % shape[0])[:, None] * n_outcomes + pattern).ravel()
        outcome_probs = _outcome_sums((np.conj(batch) * batch).real, bins, shape)
        if noise:
            outcome_probs += noise / n_outcomes
        seen = outcome_probs > 1e-14
        safe_probs = np.where(seen, outcome_probs, 1.0)
        rows = []
        for src, signs, prefactor, identity in kernels:
            values = (prefactor * np.conj(batch) * signs * batch[:, src]).real
            outcome_values = _outcome_sums(values, bins, shape)
            if noise:
                outcome_values += identity
            terms = np.where(seen, outcome_values**2 / safe_probs, 0.0)
            rows.append(np.maximum(1.0 - terms.sum(axis=1), 0.0))
        batches.append(rows)
    return np.concatenate(batches, axis=1)


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
    return float(_inference_variances(state, partition, (target,), menus)[0, 0])


def random_pure_state(n: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state on n qubits."""
    _check_n_qubits(n)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return PureState(vec / np.linalg.norm(vec))


def random_density_matrix(
    n: int, rng: np.random.Generator, rank: int | None = None
) -> DensityMatrix:
    """Random mixed state: normalized G G^dag with Ginibre-distributed G, kept
    as the ensemble of G's normalized columns weighted by their squared norms."""
    _check_n_qubits(n)
    dim = 1 << n
    if rank is None:
        rank = dim
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must lie in 1..{dim}, got {rank}")
    _check_dense_bytes((rank, dim))
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    norms = np.linalg.norm(g, axis=0)
    columns = np.ascontiguousarray((g / norms).T)
    return DensityMatrix._from_ensemble(columns, norms**2 / np.sum(norms**2), 0.0)
