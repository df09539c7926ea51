"""Gaussian continuous-variable states in the covariance-matrix picture.

Quadratures are ordered (x1, p1, x2, p2, ...) and the vacuum covariance is
the identity, so the uncertainty bound reads Delta x * Delta p >= 1.  All
operations act as symplectic matrices on the covariance; losses mix in
vacuum ancillas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import CriterionId, SitePartition, SteeringValue, freeze

# Eigenvalues of the measured covariance block below this are treated as zero
# when inverting; infinite-squeezing limits produce rank-deficient blocks.
PINV_CUTOFF = 1e-12

_PHYSICALITY_TOLERANCE = 1e-9


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal [[0, 1], [-1, 0]] per mode."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        omega[2 * m, 2 * m + 1] = 1.0
        omega[2 * m + 1, 2 * m] = -1.0
    return omega


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix (each value listed once)."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    eigs = np.linalg.eigvals(1j * symplectic_form(n) @ cov)
    return np.sort(np.abs(eigs))[::2]


@dataclass(frozen=True)
class GaussianState:
    """First and second quadrature moments of an n-mode Gaussian state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must be finite")
        if mean.ndim != 1 or mean.size < 2 or mean.size % 2:
            raise ValueError("mean must be a flat vector of length 2 * n_modes")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape must match the mean vector")
        if np.abs(cov - cov.T).max() > 1e-10:
            raise ValueError("covariance must be symmetric within 1e-10")
        if symplectic_eigenvalues(cov).min() < 1.0 - _PHYSICALITY_TOLERANCE:
            raise ValueError(
                "covariance violates the uncertainty principle "
                "(symplectic eigenvalue below 1)"
            )
        object.__setattr__(self, "mean", freeze(mean))
        object.__setattr__(self, "cov", freeze(cov))

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


def vacuum(n_modes: int) -> GaussianState:
    """n-mode vacuum: zero mean, identity covariance."""
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def _check_mode(n_modes: int, mode: int) -> None:
    if not 1 <= mode <= n_modes:
        raise ValueError(f"mode {mode} outside 1..{n_modes}")


def apply_symplectic(state: GaussianState, transform: np.ndarray) -> GaussianState:
    """Apply a symplectic matrix to mean and covariance."""
    cov = transform @ state.cov @ transform.T
    # the sandwich is symmetric up to rounding; resymmetrize so long circuits
    # cannot drift past the constructor's strict symmetry gate
    cov = 0.5 * (cov + cov.T)
    return GaussianState(transform @ state.mean, cov)


def squeeze_matrix(n_modes: int, mode: int, r: float, angle: float = 0.0) -> np.ndarray:
    """Single-mode squeezer: at angle 0, x shrinks by e^-r and p grows by e^r."""
    _check_mode(n_modes, mode)
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    local = rot @ np.diag([math.exp(-r), math.exp(r)]) @ rot.T
    out = np.eye(2 * n_modes)
    k = 2 * (mode - 1)
    out[k : k + 2, k : k + 2] = local
    return out


def beamsplitter_matrix(n_modes: int, mode_i: int, mode_j: int, transmissivity: float) -> np.ndarray:
    """Beamsplitter acting identically on x and p:
    x_i' = sqrt(T) x_i + sqrt(1-T) x_j,  x_j' = sqrt(1-T) x_i - sqrt(T) x_j.
    """
    _check_mode(n_modes, mode_i)
    _check_mode(n_modes, mode_j)
    if mode_i == mode_j:
        raise ValueError("beamsplitter needs two distinct modes")
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {transmissivity}")
    t = math.sqrt(transmissivity)
    u = math.sqrt(1.0 - transmissivity)
    out = np.eye(2 * n_modes)
    for offset in (0, 1):
        a = 2 * (mode_i - 1) + offset
        b = 2 * (mode_j - 1) + offset
        out[a, a] = t
        out[a, b] = u
        out[b, a] = u
        out[b, b] = -t
    return out


def squeeze(state: GaussianState, mode: int, r: float, angle: float = 0.0) -> GaussianState:
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"squeezing strength must be finite and non-negative, got {r}")
    return apply_symplectic(state, squeeze_matrix(state.n_modes, mode, r, angle))


def beamsplitter(
    state: GaussianState, mode_i: int, mode_j: int, transmissivity: float
) -> GaussianState:
    return apply_symplectic(
        state, beamsplitter_matrix(state.n_modes, mode_i, mode_j, transmissivity)
    )


def loss_channel(state: GaussianState, mode: int, efficiency: float) -> GaussianState:
    """Mix the mode with vacuum on a beamsplitter of the given transmissivity
    and trace the ancilla out.
    """
    _check_mode(state.n_modes, mode)
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {efficiency}")
    root = math.sqrt(efficiency)
    cov = state.cov.copy()
    mean = state.mean.copy()
    k = 2 * (mode - 1)
    block = slice(k, k + 2)
    cov[block, :] *= root
    cov[:, block] *= root
    cov[block, block] += (1.0 - efficiency) * np.eye(2)
    mean[block] *= root
    return GaussianState(mean, cov)


def _ghz_network(state: GaussianState, modes: tuple[int, int, int], r: float) -> GaussianState:
    """One p-squeezed and two x-squeezed vacua mixed on a 1:2 then a 50:50
    beamsplitter; produces small Var(x_j - x_k) and Var(p_1 + p_2 + p_3).
    """
    m1, m2, m3 = modes
    state = squeeze(state, m1, r, math.pi / 2.0)
    state = squeeze(state, m2, r, 0.0)
    state = squeeze(state, m3, r, 0.0)
    state = beamsplitter(state, m1, m2, 1.0 / 3.0)
    return beamsplitter(state, m2, m3, 0.5)


def cv_ghz(r: float) -> GaussianState:
    """Three-mode GHZ-type resource with squeezing strength r."""
    return _ghz_network(vacuum(3), (1, 2, 3), r)


def eavesdrop_scenario(r: float, efficiency: float) -> GaussianState:
    """GHZ-type resource on modes 1-3 with modes 2 and 3 each tapped by a
    beamsplitter of the given transmissivity; modes 4 and 5 carry the taps.
    """
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {efficiency}")
    state = _ghz_network(vacuum(5), (1, 2, 3), r)
    state = beamsplitter(state, 2, 4, efficiency)
    return beamsplitter(state, 3, 5, efficiency)


@dataclass(frozen=True)
class QuadratureCombo:
    """Real linear combination of quadratures, one coefficient per x and p."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeff = np.array(self.coefficients, dtype=float)
        if coeff.ndim != 1 or coeff.size < 2 or coeff.size % 2:
            raise ValueError("coefficients must be a flat vector of length 2 * n_modes")
        if not np.any(coeff):
            raise ValueError("combination must not be identically zero")
        object.__setattr__(self, "coefficients", freeze(coeff))

    @property
    def n_modes(self) -> int:
        return self.coefficients.size // 2

    @property
    def support(self) -> tuple[int, ...]:
        """Modes with a nonzero x or p coefficient."""
        coeff = self.coefficients.reshape(-1, 2)
        return tuple(m + 1 for m in range(self.n_modes) if np.any(coeff[m]))


def quadrature_combo(
    n_modes: int,
    x: Mapping[int, float] | None = None,
    p: Mapping[int, float] | None = None,
) -> QuadratureCombo:
    """Build a combination from per-mode x and p coefficients."""
    coeff = np.zeros(2 * n_modes)
    for mapping, offset in ((x, 0), (p, 1)):
        for mode, value in (mapping or {}).items():
            _check_mode(n_modes, mode)
            coeff[2 * (mode - 1) + offset] = value
    return QuadratureCombo(coeff)


def x_quadrature(n_modes: int, mode: int) -> QuadratureCombo:
    return quadrature_combo(n_modes, x={mode: 1.0})


def p_quadrature(n_modes: int, mode: int) -> QuadratureCombo:
    return quadrature_combo(n_modes, p={mode: 1.0})


@dataclass(frozen=True)
class HomodynePlan:
    """One measured quadrature angle per measured mode (0 is x, pi/2 is p)."""

    angles: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        pairs = tuple(sorted((int(m), float(a)) for m, a in self.angles))
        if not pairs:
            raise ValueError("plan must measure at least one mode")
        modes = [m for m, _ in pairs]
        if len(set(modes)) != len(modes):
            raise ValueError("plan measures a mode twice")
        if modes[0] < 1:
            raise ValueError("modes are 1-based positive integers")
        object.__setattr__(self, "angles", pairs)

    @classmethod
    def of(cls, angles: Mapping[int, float]) -> "HomodynePlan":
        return cls(tuple(angles.items()))

    @classmethod
    def x_on(cls, *modes: int) -> "HomodynePlan":
        return cls.of({m: 0.0 for m in modes})

    @classmethod
    def p_on(cls, *modes: int) -> "HomodynePlan":
        return cls.of({m: math.pi / 2.0 for m in modes})

    @property
    def modes(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.angles)

    def vectors(self, n_modes: int) -> np.ndarray:
        """Measured combinations as rows of a (k, 2n) matrix."""
        out = np.zeros((len(self.angles), 2 * n_modes))
        for row, (mode, angle) in enumerate(self.angles):
            _check_mode(n_modes, mode)
            out[row, 2 * (mode - 1)] = math.cos(angle)
            out[row, 2 * (mode - 1) + 1] = math.sin(angle)
        return out


def combo_variance(state: GaussianState, combo: QuadratureCombo) -> float:
    """Variance of the combination: c^T Sigma c."""
    if combo.n_modes != state.n_modes:
        raise ValueError("combination and state disagree on the number of modes")
    c = combo.coefficients
    return float(c @ state.cov @ c)


def optimal_conditional_variance(
    state: GaussianState, target: QuadratureCombo, plan: HomodynePlan
) -> float:
    """Minimum over linear gains g of Var(T - sum_i g_i M_i).

    This is the Schur complement of the measured block; a pseudo-inverse
    handles singular measured covariances.
    """
    n = state.n_modes
    if target.n_modes != n:
        raise ValueError("target combination and state disagree on the number of modes")
    overlap = set(plan.modes) & set(target.support)
    if overlap:
        raise ValueError(f"plan measures the target's modes {sorted(overlap)}")
    t = target.coefficients
    measured = plan.vectors(n)
    var_target = float(t @ state.cov @ t)
    cross = measured @ state.cov @ t
    measured_cov = measured @ state.cov @ measured.T
    eigvals, eigvecs = np.linalg.eigh(measured_cov)
    keep = eigvals > PINV_CUTOFF
    projected = eigvecs.T @ cross
    explained = float(np.sum(projected[keep] ** 2 / eigvals[keep]))
    return max(var_target - explained, 0.0)


def steering_product_cv(
    state: GaussianState,
    target_mode: int,
    plan_x: HomodynePlan,
    plan_p: HomodynePlan,
) -> SteeringValue:
    """Product of inferred x and p uncertainties of the target mode.

    Steering is confirmed when the product drops below the uncertainty
    bound of 1.
    """
    _check_mode(state.n_modes, target_mode)
    n = state.n_modes
    var_x = optimal_conditional_variance(state, x_quadrature(n, target_mode), plan_x)
    var_p = optimal_conditional_variance(state, p_quadrature(n, target_mode), plan_p)
    value = math.sqrt(var_x) * math.sqrt(var_p)
    group = frozenset(plan_x.modes) | frozenset(plan_p.modes)
    return SteeringValue.of(
        CriterionId.CV_PRODUCT, SitePartition(group, target_mode), value, 1.0
    )


def fixed_combo_steering(state: GaussianState, j: int, k: int, m: int) -> SteeringValue:
    """Unit-gain criterion sqrt(Var(x_j - x_k)) * sqrt(Var(p_j + p_k + p_m)) < 1.

    The gains are fixed; see steering_product_cv for the gain-optimized
    product criterion.
    """
    n = state.n_modes
    if len({j, k, m}) != 3:
        raise ValueError("modes j, k, m must be distinct")
    for mode in (j, k, m):
        _check_mode(n, mode)
    var_x = combo_variance(state, quadrature_combo(n, x={j: 1.0, k: -1.0}))
    var_p = combo_variance(state, quadrature_combo(n, p={j: 1.0, k: 1.0, m: 1.0}))
    value = math.sqrt(var_x) * math.sqrt(var_p)
    return SteeringValue.of(
        CriterionId.CV_FIXED_COMBO, SitePartition(frozenset({k, m}), j), value, 1.0
    )


def _haar_orthosymplectic(n_modes: int, rng: np.random.Generator) -> np.ndarray:
    """Random passive (energy-conserving) transformation from a Haar unitary."""
    z = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    out = np.zeros((2 * n_modes, 2 * n_modes))
    re, im = q.real, q.imag
    for a in range(n_modes):
        for b in range(n_modes):
            out[2 * a, 2 * b] = re[a, b]
            out[2 * a, 2 * b + 1] = -im[a, b]
            out[2 * a + 1, 2 * b] = im[a, b]
            out[2 * a + 1, 2 * b + 1] = re[a, b]
    return out


def random_pure_gaussian(
    n_modes: int, rng: np.random.Generator, max_squeezing: float = 1.0
) -> GaussianState:
    """Random pure state: passive layer, squeezers, passive layer."""
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    left = _haar_orthosymplectic(n_modes, rng)
    right = _haar_orthosymplectic(n_modes, rng)
    rs = rng.uniform(-max_squeezing, max_squeezing, size=n_modes)
    diag = np.zeros(2 * n_modes)
    diag[0::2] = np.exp(-rs)
    diag[1::2] = np.exp(rs)
    transform = left @ (diag[:, None] * right)
    return GaussianState(np.zeros(2 * n_modes), transform @ transform.T)
