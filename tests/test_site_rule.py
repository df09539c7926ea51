"""Every public function that takes a site, a mode, a count, a real
parameter or an array of numbers checks it by one rule.  A site, mode or
count is an integer but a bool (numpy integers pass), within its range.  A
real parameter is a real number but a bool (numpy floats and ints pass),
finite and within its range.  An array holds integers or floats, or complex
numbers where the slot is complex; never bools, strings, bytes or objects."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from steerkit import (
    CvScanConfig,
    DensityMatrix,
    DetectionModel,
    GaussianState,
    HomodynePlan,
    PauliString,
    PureState,
    QuadratureCombo,
    SitePartition,
    SweepConfig,
    beamsplitter,
    collective_scan,
    cv_ghz,
    depolarize_global,
    eavesdrop_scenario,
    eavesdrop_sweep,
    find_threshold,
    fixed_combo_steering,
    ghz,
    ghz_predictor_for_target,
    ghz_z_predictor,
    loss_channel,
    p_quadrature,
    quadrature_combo,
    random_density_matrix,
    random_pure_gaussian,
    random_pure_state,
    squeeze,
    steering_product_cv,
    symplectic_eigenvalues,
    vacuum,
    x_quadrature,
)
from steerkit.core import as_array, as_real
from steerkit.gaussian import beamsplitter_matrix, squeeze_matrix
from steerkit.qubits import check_partition

# Each call puts `s` in one site or mode slot whose valid range is 1..3, or
# 1.. for SitePartition alone, which does not know the number of sites.
SITE_CALLS = {
    "HomodynePlan": lambda s: HomodynePlan(((s, 0.0),)).vectors(3),
    "quadrature_combo": lambda s: quadrature_combo(3, x={s: 1.0}),
    "x_quadrature": lambda s: x_quadrature(3, s),
    "p_quadrature": lambda s: p_quadrature(3, s),
    "squeeze": lambda s: squeeze(vacuum(3), s, 0.5),
    "beamsplitter-first": lambda s: beamsplitter(vacuum(3), s, 3, 0.5),
    "beamsplitter-second": lambda s: beamsplitter(vacuum(3), 1, s, 0.5),
    "loss_channel": lambda s: loss_channel(vacuum(3), s, 0.5),
    "fixed_combo_steering": lambda s: fixed_combo_steering(vacuum(3), s, 1, 3),
    "steering_product_cv": lambda s: steering_product_cv(
        vacuum(3), s, HomodynePlan.x_on(1), HomodynePlan.p_on(1)
    ),
    "PauliString.from_sites": lambda s: PauliString.from_sites(3, {s: "X"}),
    "PauliString.single": lambda s: PauliString.single(3, s, "Y"),
    "ghz_predictor_for_target": lambda s: ghz_predictor_for_target(3, s, "x"),
    "ghz_z_predictor": lambda s: ghz_z_predictor(4, s),
    "SitePartition-group": lambda s: SitePartition(frozenset({s}), 5),
    "SitePartition-target": lambda s: SitePartition(frozenset({5}), s),
    "check_partition": lambda s: check_partition(SitePartition(frozenset({s}), 1), 3),
    "collective_scan-qubit-group": lambda s: collective_scan(ghz(3), 1, [s]),
    "collective_scan-qubit-target": lambda s: collective_scan(ghz(3), s, [1]),
    "collective_scan-cv-group": lambda s: collective_scan(cv_ghz(1.0), 1, [s], CvScanConfig(4)),
    "collective_scan-cv-target": lambda s: collective_scan(cv_ghz(1.0), s, [1], CvScanConfig(4)),
}
UNBOUNDED = {"SitePartition-group", "SitePartition-target"}

BAD_SITES = [
    (1.5, "sites must be integers"),
    (True, "sites must be integers"),
    ("2", "sites must be integers"),
    (0, r"^site 0 outside 1\.\."),
]
SITE_CASES = [
    pytest.param(name, bad, message, id=f"{name}-{bad!r}")
    for name in SITE_CALLS
    for bad, message in BAD_SITES + ([] if name in UNBOUNDED else [(4, r"^site 4 outside 1\.\.3$")])
]


@pytest.mark.parametrize("name, bad, message", SITE_CASES)
def test_site_rule_refuses(name, bad, message):
    with pytest.raises(ValueError, match=message):
        SITE_CALLS[name](bad)


@pytest.mark.parametrize("name", SITE_CALLS)
def test_site_rule_accepts_numpy_integers(name):
    SITE_CALLS[name](np.int64(2))


def _rng():
    return np.random.default_rng(0)


# Each call puts `c` in one count slot for which 3 is valid.
COUNT_CALLS = {
    "ghz": lambda c: ghz(c),
    "random_pure_state": lambda c: random_pure_state(c, _rng()),
    "random_density_matrix-n": lambda c: random_density_matrix(c, _rng(), rank=2),
    "random_density_matrix-rank": lambda c: random_density_matrix(3, _rng(), rank=c),
    "vacuum": lambda c: vacuum(c),
    "random_pure_gaussian": lambda c: random_pure_gaussian(c, _rng()),
    "quadrature_combo": lambda c: quadrature_combo(c, x={1: 1.0}),
    "x_quadrature": lambda c: x_quadrature(c, 1),
    "p_quadrature": lambda c: p_quadrature(c, 1),
    "squeeze_matrix": lambda c: squeeze_matrix(c, 1, 0.1),
    "beamsplitter_matrix": lambda c: beamsplitter_matrix(c, 1, 2, 0.5),
    "PauliString.from_sites": lambda c: PauliString.from_sites(c, {1: "X"}),
    "PauliString.single": lambda c: PauliString.single(c, 1, "X"),
}


@pytest.mark.parametrize("bad", [3.0, 2.5, True, "3"])
@pytest.mark.parametrize("name", COUNT_CALLS)
def test_counts_must_be_integers(name, bad):
    with pytest.raises(ValueError, match="must be a.*integer"):
        COUNT_CALLS[name](bad)


@pytest.mark.parametrize("name", COUNT_CALLS)
def test_counts_accept_numpy_integers(name):
    COUNT_CALLS[name](np.int64(3))


UNIT = "must lie in [0, 1]"
SQUEEZING = "squeezing strength must be finite and non-negative"
ANGLE = "squeezing angle must be finite"
COEFFICIENTS = "combination coefficients must be finite"
# Each call puts `x` in one real slot for which 0.5 and 1 are valid: its
# message, and its bounds, None where the slot has none but finiteness.
REAL_CALLS = {
    "depolarize_global": (
        lambda x: depolarize_global(ghz(3), x), f"depolarizing weight {UNIT}", 0.0, 1.0
    ),
    "DetectionModel-efficiency": (lambda x: DetectionModel(x), f"efficiency {UNIT}", 0.0, 1.0),
    "DetectionModel-guess": (
        lambda x: DetectionModel(0.5, "constant-guess", x),
        "constant-guess policy needs a finite guess value", None, None,
    ),
    "beamsplitter_matrix": (
        lambda x: beamsplitter_matrix(3, 1, 2, x), f"transmissivity {UNIT}", 0.0, 1.0
    ),
    "beamsplitter": (
        lambda x: beamsplitter(vacuum(3), 1, 2, x), f"transmissivity {UNIT}", 0.0, 1.0
    ),
    "squeeze": (lambda x: squeeze(vacuum(1), 1, x), SQUEEZING, 0.0, None),
    "squeeze-angle": (lambda x: squeeze(vacuum(1), 1, 0.5, x), ANGLE, None, None),
    "squeeze_matrix-r": (lambda x: squeeze_matrix(1, 1, x), SQUEEZING, 0.0, None),
    "squeeze_matrix-angle": (lambda x: squeeze_matrix(1, 1, 0.5, x), ANGLE, None, None),
    # MAX_GHZ_SQUEEZING is a rule of its own, tested through the CLI
    "cv_ghz": (lambda x: cv_ghz(x), SQUEEZING, 0.0, None),
    "eavesdrop_scenario-r": (lambda x: eavesdrop_scenario(x, 0.5), SQUEEZING, 0.0, None),
    "loss_channel": (lambda x: loss_channel(vacuum(1), 1, x), f"efficiency {UNIT}", 0.0, 1.0),
    "eavesdrop_scenario-efficiency": (
        lambda x: eavesdrop_scenario(1.0, x), f"efficiency {UNIT}", 0.0, 1.0
    ),
    "HomodynePlan": (lambda x: HomodynePlan(((1, x),)), "plan angles must be finite", None, None),
    "random_pure_gaussian": (
        lambda x: random_pure_gaussian(2, _rng(), max_squeezing=x),
        "max_squeezing must be finite and non-negative", 0.0, None,
    ),
    "eavesdrop_sweep": (lambda x: eavesdrop_sweep(1.0, [x]), f"efficiencies {UNIT}", 0.0, 1.0),
    "SweepConfig": (
        lambda x: SweepConfig("cv", "cv-fixed-combo", "r", (x,)),
        "grid points must be finite numbers", None, None,
    ),
    "find_threshold-low": (
        lambda x: find_threshold(lambda v: v > 1.5, (x, 2.0)),
        "bracket ends must be finite", None, None,
    ),
    "find_threshold-high": (
        lambda x: find_threshold(lambda v: v > -0.5, (-1.0, x)),
        "bracket ends must be finite", None, None,
    ),
    "quadrature_combo-x": (lambda x: quadrature_combo(3, x={1: x}), COEFFICIENTS, None, None),
    "quadrature_combo-p": (lambda x: quadrature_combo(3, p={2: x}), COEFFICIENTS, None, None),
}


def _real_cases():
    for name, (_, message, low, high) in REAL_CALLS.items():
        bad = ["0.5", True, math.nan, math.inf, -math.inf]
        bad += [] if low is None else [low - 0.25]
        bad += [] if high is None else [high + 0.25]
        for value in bad:
            yield pytest.param(name, value, message, id=f"{name}-{value!r}")


@pytest.mark.parametrize("name, bad, message", _real_cases())
def test_real_rule_refuses(name, bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}, got {re.escape(repr(bad))}$"):
        REAL_CALLS[name][0](bad)


@pytest.mark.parametrize("good", [np.float64(0.5), np.float32(0.5), 1])
@pytest.mark.parametrize("name", REAL_CALLS)
def test_real_rule_accepts_numpy_floats_and_ints(name, good):
    REAL_CALLS[name][0](good)


def test_as_real_returns_python_floats():
    for value in (np.float64(0.5), np.float32(0.5), np.int64(2), 2, Fraction(1, 4), -0.0):
        assert type(as_real(value, "real")) is float and as_real(value, "real") == value
    assert as_real(1.0, "real", 1.0, 1.0) == 1.0
    for bad in (10**400, np.bool_(True), None, 1j, math.nextafter(1.0, 2.0)):
        with pytest.raises(ValueError, match=r"^real in \[0, 1\], got "):
            as_real(bad, "real in [0, 1]", 0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_combo_array_refuses_coefficients_that_are_not_finite(bad):
    with pytest.raises(ValueError, match=f"^{re.escape(COEFFICIENTS)}, got array"):
        QuadratureCombo(np.array([1.0, 0.0, bad, 0.0]))


def test_combo_coefficient_beyond_the_float_range_is_refused():
    with pytest.raises(ValueError, match=f"^{re.escape(COEFFICIENTS)}, got 1000"):
        quadrature_combo(3, x={1: 10**400})


@pytest.mark.parametrize("bad", [True, -1.0, 1.0, "1", 0, 2])
def test_pauli_sign_is_an_integer_plus_or_minus_one(bad):
    with pytest.raises(ValueError, match=rf"^sign must be \+1 or -1, got {re.escape(repr(bad))}$"):
        PauliString(("X",), bad)


def test_pauli_sign_accepts_numpy_integers():
    string = PauliString(("X",), np.int64(-1))
    assert string.sign == -1 and type(string.sign) is int


AMPLITUDES = "amplitudes must be finite complex numbers"
DENSITY = "density matrix entries must be finite complex numbers"
MOMENTS = "mean and covariance must be finite real numbers"
# Each case puts an array of dtype `dtype` into one array slot: the slot's message.
ARRAY_CASES = {
    "PureState-str": (lambda: PureState(["1", "0"]), AMPLITUDES, "<U1"),
    "PureState-bool": (lambda: PureState([True, False]), AMPLITUDES, "bool"),
    "PureState-beyond-float": (lambda: PureState([10**400, 0]), AMPLITUDES, "object"),
    "DensityMatrix-str": (lambda: DensityMatrix([["1", "0"], ["0", "0"]]), DENSITY, "<U1"),
    "GaussianState-str": (
        lambda: GaussianState(["0", "0"], [["1", "0"], ["0", "1"]]), MOMENTS, "<U1"
    ),
    "GaussianState-complex": (
        lambda: GaussianState(np.array([1j, 0]), np.eye(2)), MOMENTS, "complex128"
    ),
    "GaussianState-beyond-float": (
        lambda: GaussianState([10**400, 0], np.eye(2)), MOMENTS, "object"
    ),
    "QuadratureCombo-str": (lambda: QuadratureCombo(["1", 0.0]), COEFFICIENTS, "<U32"),
    "QuadratureCombo-bool": (lambda: QuadratureCombo([True, False]), COEFFICIENTS, "bool"),
    "QuadratureCombo-complex": (
        lambda: QuadratureCombo(np.array([1 + 2j, 0])), COEFFICIENTS, "complex128"
    ),
    "QuadratureCombo-beyond-float": (
        lambda: QuadratureCombo([10**400, 0.0]), COEFFICIENTS, "object"
    ),
    "symplectic_eigenvalues-str": (
        lambda: symplectic_eigenvalues([["1", "0"], ["0", "1"]]),
        "covariance entries must be finite real numbers", "<U1",
    ),
}


@pytest.mark.parametrize("name", ARRAY_CASES)
def test_array_rule_refuses(name):
    call, message, dtype = ARRAY_CASES[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}, got dtype {re.escape(dtype)}$"):
        call()


def test_array_rule_accepts_integers_and_floats_of_any_width():
    assert PureState(np.array([1, 0], dtype=np.int8)).amplitudes.dtype == complex
    assert GaussianState([0, 0], [[1, 0], [0, 1]]).cov.dtype == float
    combo = QuadratureCombo(np.array([1.0, 0.0], dtype=np.float32))
    assert combo.coefficients.dtype == float
    np.testing.assert_allclose(symplectic_eigenvalues([[1, 0], [0, 1]]), [1.0])


def test_array_rule_copies():
    amplitudes = np.array([1.0, 0.0], dtype=complex)
    state = PureState(amplitudes)
    assert amplitudes.flags.writeable and state.amplitudes is not amplitudes
    floats = np.eye(2)
    assert as_array(floats, "real") is not floats
