"""Every public function that takes a site, a mode or a count checks it by
one rule: an integer but a bool (numpy integers pass), within its range."""

import numpy as np
import pytest

from steerkit import (
    CvScanConfig,
    HomodynePlan,
    PauliString,
    SitePartition,
    beamsplitter,
    collective_scan,
    cv_ghz,
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
    vacuum,
    x_quadrature,
)
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
    "find_threshold-max_iterations": lambda c: find_threshold(
        lambda x: x > 3e-4, (0.0, 8e-4), max_iterations=c
    ),
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
