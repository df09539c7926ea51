"""Gaussian continuous-variable states in the covariance-matrix picture.

Quadratures are ordered (x1, p1, x2, p2, ...) and the vacuum covariance is
the identity, so the uncertainty bound reads Delta x * Delta p >= 1.  All
operations act as symplectic matrices on the covariance; losses mix in
vacuum ancillas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import CriterionId, SitePartition, SteeringValue, freeze

# Eigenvalues of the measured covariance block below this are treated as zero
# when inverting; infinite-squeezing limits produce rank-deficient blocks.
PINV_CUTOFF = 1e-12

_PHYSICALITY_TOLERANCE = 1e-9

# The GHZ network's covariance carries rounding of order eps * e^(4r).  Up to
# this squeezing, cv_ghz and the tapped 5-mode network at every efficiency on
# 0:1:0.01 pass the physicality gate (checked on a 0.001 grid of r); the first
# failure is near r = 4.02.
MAX_GHZ_SQUEEZING = 4.0


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal [[0, 1], [-1, 0]] per mode."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    x = np.arange(0, 2 * n_modes, 2)
    omega[x, x + 1] = 1.0
    omega[x + 1, x] = -1.0
    return omega


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix (each value listed once)."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    eigs = np.linalg.eigvals(1j * symplectic_form(n) @ cov)
    return np.sort(np.abs(eigs))[::2]


@dataclass(frozen=True, eq=False)
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


def _apply_gates(state: GaussianState, transforms: Sequence[np.ndarray]) -> GaussianState:
    """Apply symplectic matrices in order; only the final state is validated."""
    mean, cov = state.mean, state.cov
    for transform in transforms:
        cov = transform @ cov @ transform.T
        # the sandwich is symmetric up to rounding; resymmetrize so long circuits
        # cannot drift past the constructor's strict symmetry gate
        cov = 0.5 * (cov + cov.T)
        mean = transform @ mean
    return GaussianState(mean, cov)


def apply_symplectic(state: GaussianState, transform: np.ndarray) -> GaussianState:
    """Apply a symplectic matrix to mean and covariance."""
    return _apply_gates(state, (transform,))


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


def _check_squeezing(r: float) -> None:
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"squeezing strength must be finite and non-negative, got {r}")


def squeeze(state: GaussianState, mode: int, r: float, angle: float = 0.0) -> GaussianState:
    _check_squeezing(r)
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


def _ghz_network(n_modes: int, r: float) -> GaussianState:
    """One p-squeezed and two x-squeezed vacua on modes 1-3 mixed on a 1:2 then a
    50:50 beamsplitter; produces small Var(x_j - x_k) and Var(p_1 + p_2 + p_3).
    """
    _check_squeezing(r)
    if r > MAX_GHZ_SQUEEZING:
        raise ValueError(
            f"squeezing strength {r} exceeds MAX_GHZ_SQUEEZING = {MAX_GHZ_SQUEEZING}, "
            f"above which rounding breaks the uncertainty check"
        )
    return _apply_gates(vacuum(n_modes), (
        squeeze_matrix(n_modes, 1, r, math.pi / 2.0),
        squeeze_matrix(n_modes, 2, r, 0.0),
        squeeze_matrix(n_modes, 3, r, 0.0),
        beamsplitter_matrix(n_modes, 1, 2, 1.0 / 3.0),
        beamsplitter_matrix(n_modes, 2, 3, 0.5),
    ))


def _tap(network: GaussianState, efficiency: float) -> GaussianState:
    """Tap modes 2 and 3 of the 5-mode network onto the vacua of modes 4 and 5."""
    taps = (beamsplitter_matrix(5, 2, 4, efficiency), beamsplitter_matrix(5, 3, 5, efficiency))
    return _apply_gates(network, taps)


def cv_ghz(r: float) -> GaussianState:
    """Three-mode GHZ-type resource with squeezing strength r."""
    return _ghz_network(3, r)


def eavesdrop_scenario(r: float, efficiency: float) -> GaussianState:
    """GHZ-type resource on modes 1-3 with modes 2 and 3 each tapped by a
    beamsplitter of the given transmissivity; modes 4 and 5 carry the taps.
    """
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {efficiency}")
    return _tap(_ghz_network(5, r), efficiency)


@dataclass(frozen=True, eq=False)
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


def _target_rows(
    state: GaussianState, targets: Sequence[QuadratureCombo], measured_modes: Iterable[int]
) -> np.ndarray:
    """Coefficient rows of the targets, checked against the state and the
    measured modes."""
    n = state.n_modes
    if any(target.n_modes != n for target in targets):
        raise ValueError("target combination and state disagree on the number of modes")
    rows = np.array([t.coefficients for t in targets])
    target_modes = rows.reshape(-1, n, 2).any(axis=(0, 2))
    overlap = [m for m in sorted(set(measured_modes)) if target_modes[m - 1]]
    if overlap:
        raise ValueError(f"plan measures the target's modes {overlap}")
    return rows


def _conditional_variances(
    state: GaussianState, targets: Sequence[QuadratureCombo], measured: np.ndarray
) -> np.ndarray:
    """optimal_conditional_variance of each target for every plan of a
    (P, k, 2n) stack of measured rows, as a (len(targets), P) array."""
    measured_modes = measured.reshape(-1, state.n_modes, 2).any(axis=(0, 2))
    _target_rows(state, targets, (np.flatnonzero(measured_modes) + 1).tolist())
    measured_by_cov = measured @ state.cov
    eigvals, eigvecs = np.linalg.eigh(measured_by_cov @ np.swapaxes(measured, 1, 2))
    keep = eigvals > PINV_CUTOFF
    safe_eigvals = np.where(keep, eigvals, 1.0)
    rows = []
    for target in targets:
        t = target.coefficients
        var_target = float(t @ state.cov @ t)
        cross = measured_by_cov @ t
        projected = (np.swapaxes(eigvecs, 1, 2) @ cross[..., None])[..., 0]
        terms = np.where(keep, projected**2 / safe_eigvals, 0.0)
        rows.append(np.maximum(var_target - terms.sum(axis=1), 0.0))
    return np.array(rows)


def _grid_variances(
    state: GaussianState, targets: Sequence[QuadratureCombo], modes: Sequence[int], n_angles: int
) -> np.ndarray:
    """_conditional_variances of each target for every plan of every subset of
    the modes on the angle grid k*pi/n_angles, as a (len(targets),
    n_angles + 1, ..., n_angles + 1) array, one axis per mode, whose last index
    skips the mode: a subset's plans sit there on every other mode's axis.

    The modes are measured one per level.  Homodyning direction v of a mode
    conditions the covariance S of the quadratures still in play by the
    rank-one Schur update S - u u^T / s, with u = S[:, mode] v and
    s = v^T S[mode, mode] v, so plans that share leading angles share that
    work; the last level computes only the targets' variances.  The skip is
    v = 0: its s = 0 falls under PINV_CUTOFF, so S passes on bit for bit.
    """
    for mode in modes:
        _check_mode(state.n_modes, mode)
    rows = _target_rows(state, targets, modes)
    quadratures = [2 * (mode - 1) + q for mode in modes for q in (0, 1)]
    rows = np.concatenate([np.eye(2 * state.n_modes)[quadratures], rows])
    # one covariance per measured prefix, the next mode's x and p rows first
    cov = (rows @ state.cov @ rows.T)[None]
    angles = np.arange(n_angles) * math.pi / n_angles
    cos, sin = np.append(np.cos(angles), 0.0), np.append(np.sin(angles), 0.0)
    for level in range(len(modes)):
        u = cov[:, None, 0] * cos[:, None]
        u += cov[:, None, 1] * sin[:, None]
        s = u[..., 0] * cos + u[..., 1] * sin
        keep = s > PINV_CUTOFF
        inverse = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        rest = u[..., 2:]
        if level < len(modes) - 1:
            update = rest[..., :, None] * rest[..., None, :]
            update *= inverse[..., None, None]
            np.subtract(cov[:, None, 2:, 2:], update, out=update)
            cov = update.reshape(-1, *update.shape[2:])
    variances = np.diagonal(cov, axis1=1, axis2=2)[:, None, 2:] - rest**2 * inverse[..., None]
    shape = (len(targets),) + cos.shape * len(modes)
    return np.maximum(np.moveaxis(variances, -1, 0), 0.0).reshape(shape)


def optimal_conditional_variance(
    state: GaussianState, target: QuadratureCombo, plan: HomodynePlan
) -> float:
    """Minimum over linear gains g of Var(T - sum_i g_i M_i).

    This is the Schur complement of the measured block; a pseudo-inverse
    handles singular measured covariances.
    """
    measured = plan.vectors(state.n_modes)[None]
    return float(_conditional_variances(state, (target,), measured)[0, 0])


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
    group = frozenset(plan_x.modes) | frozenset(plan_p.modes)
    return _product_value(var_x, var_p, group, target_mode)


def _product_value(var_x: float, var_p: float, group: frozenset[int], target: int) -> SteeringValue:
    """sqrt(var_x) * sqrt(var_p) of the target mode steered by the group, against 1."""
    value = math.sqrt(var_x) * math.sqrt(var_p)
    return SteeringValue.of(CriterionId.CV_PRODUCT, SitePartition(group, target), value, 1.0)


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
    out = np.empty((2 * n_modes, 2 * n_modes))
    out[0::2, 0::2] = out[1::2, 1::2] = q.real
    out[0::2, 1::2] = -q.imag
    out[1::2, 0::2] = q.imag
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
