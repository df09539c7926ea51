"""The public names of the package stay exported and importable."""

import steerkit

PUBLIC_NAMES = {
    "CollectiveSteeringReport", "CriterionId", "CvScanConfig", "DensityMatrix",
    "DetectionModel", "EavesdropRecord", "GaussianState", "GenuineSteeringReport",
    "HomodynePlan", "MAX_QUBITS", "MonogamyResult", "PauliString", "PureState",
    "QuadratureCombo", "QubitScanConfig", "SitePartition", "SteeringValue",
    "SweepConfig", "ThresholdNotFoundError", "ThresholdResult", "TripartiteScanReport",
    "TWO_OBSERVABLE_CRITERIA", "beamsplitter", "collective_scan", "combo_variance",
    "cv3_genuine_report", "cv_ghz", "depolarize_global", "eavesdrop_scenario",
    "eavesdrop_sweep", "expectation", "find_threshold", "fixed_combo_steering",
    "genuine_tripartite_aggregate", "ghz", "ghz3_genuine_report", "ghz_predictor",
    "ghz_predictor_for_target", "ghz_z_predictor", "inference_variance_with_loss",
    "loss_channel", "monogamy_check", "optimal_conditional_variance",
    "optimal_inference_variance", "p_quadrature", "partition",
    "pure_state_tripartite_scan", "quadrature_combo", "random_density_matrix",
    "random_pure_gaussian", "random_pure_state", "run_sweep", "run_threshold_scenario",
    "secret_sharing_demo", "simulate_shots", "spin_three_obs", "spin_two_obs",
    "squeeze", "steering_product_cv", "symplectic_eigenvalues", "vacuum",
    "variance_of_difference", "x_quadrature",
}


def test_all_is_pinned():
    assert len(steerkit.__all__) == len(PUBLIC_NAMES) == 63
    assert set(steerkit.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in steerkit.__all__ if getattr(steerkit, name, None) is None]
    assert missing == []
