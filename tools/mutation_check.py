"""Check that the test suite catches known faults.

Each mutation below swaps one exact snippet of one source file for a broken
one and names the tests that must then fail.  The script applies each
mutation to its own temporary copy of src/, tests/ and pyproject.toml, runs
the named tests there with pytest, and reports:

    caught    pytest exits 1 and every named test failed
    SURVIVED  a named test passed
    ERROR     the snippet does not occur exactly once in the file, or pytest
              exits with anything but 0 or 1 (an internal or usage error)

The exit status is 0 when every mutation is caught, 1 otherwise.  It is not
part of the test suite and takes a few minutes:

    python tools/mutation_check.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutation:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTATIONS = (
    Mutation(
        "product-prefactor",
        "src/steerkit/qubits.py",
        "return t, p, (flip, phase, _prefactor(sign, flip, phase))",
        "return t, p, (flip, phase, t[2] * p[2])",
        ("tests/test_properties.py::TestMaskAlgebra::test_disjoint_product_rebuilds_the_matrix_product",),
    ),
    Mutation(
        "group-check-after-size-check",
        "src/steerkit/qubits.py",
        """    _require_group_support(predictor, partition, p)
    _check_n_sites((predictor,), n)
""",
        """    _check_n_sites((predictor,), n)
    _require_group_support(predictor, partition, p)
""",
        ("tests/test_criteria.py::TestSpinSumErrors::test_wrong_size_and_outside_the_group",),
    ),
    Mutation(
        "shots-without-group-check",
        "src/steerkit/scenarios.py",
        "masks = qubits._spin_term_masks(n, plan.partition, label, predictor)",
        "masks = qubits._difference_masks(qubits._site_masks(n, plan.partition.target_site, "
        "label), qubits._string_masks(predictor), predictor.sign)",
        (
            "tests/test_scenarios.py::TestSimulateShots::test_predictor_outside_the_group",
            "tests/test_criteria.py::TestSpinSumErrors::test_overlapping_supports",
        ),
    ),
    Mutation(
        "memo-keyed-by-flip",
        "src/steerkit/qubits.py",
        """        raw = memo.get((flip, phase_mask))
        if raw is None:
            if flip not in bands:
                bands[flip] = _band(n, *ensemble, flip)
            raw = (_phase_signs(n, phase_mask) * bands[flip]).sum()
            if len(memo) < _MOMENT_MEMO_ENTRIES:
                memo[flip, phase_mask] = raw
""",
        """        raw = memo.get(flip)
        if raw is None:
            if flip not in bands:
                bands[flip] = _band(n, *ensemble, flip)
            raw = (_phase_signs(n, phase_mask) * bands[flip]).sum()
            if len(memo) < _MOMENT_MEMO_ENTRIES:
                memo[flip] = raw
""",
        ("tests/test_properties.py::TestBatchedMoments::test_warm_state_gives_fresh_bits",),
    ),
    Mutation(
        "memo-shared-between-states",
        "src/steerkit/qubits.py",
        "memo = state._moments",
        'memo = _mask_expectations.__dict__.setdefault("memo", {})',
        ("tests/test_qubits.py::TestMomentMemo::test_states_sharing_components_keep_their_own_moments",),
    ),
    Mutation(
        "skip-mode",
        "src/steerkit/gaussian.py",
        "np.append(np.cos(angles), 0.0)",
        "np.append(np.cos(angles), 1e-3)",
        (
            "tests/test_properties.py::TestGridVariances::test_matches_explicit_plans",
            "tests/test_criteria.py::TestScanMatchesBruteForce::test_cv_scans",
        ),
    ),
    Mutation(
        "cap-counts-full-group",
        "src/steerkit/criteria.py",
        "n_plans = (config.n_angles + 1) ** len(modes) - 1",
        "n_plans = config.n_angles ** len(modes)",
        ("tests/test_criteria.py::TestCollectiveScan::test_cv_cap_counts_every_subset_before_the_walk",),
    ),
    Mutation(
        "site-without-upper-bound",
        "src/steerkit/core.py",
        "if site < 1 or (n is not None and site > n):",
        "if site < 1:",
        ("tests/test_site_rule.py::test_site_rule_refuses",),
    ),
    Mutation(
        "real-without-finite-check",
        "src/steerkit/core.py",
        "if low <= number <= high and math.isfinite(number):",
        "if low <= number <= high:",
        (
            "tests/test_site_rule.py::test_real_rule_refuses",
            "tests/test_gaussian.py::TestCombosAndPlans::test_plan_rejects_angles_that_are_not_finite",
            "tests/test_scenarios.py::TestFindThreshold::test_bracket_end_refused_before_the_predicate_runs",
        ),
    ),
    Mutation(
        "real-accepts-bools",
        "src/steerkit/core.py",
        "not isinstance(value, bool) and isinstance(value, numbers.Real)",
        "isinstance(value, numbers.Real)",
        (
            "tests/test_site_rule.py::test_real_rule_refuses",
            "tests/test_cli.py::TestSweepCommand::test_grid_point_that_is_not_a_number_is_usage_error",
        ),
    ),
    Mutation(
        "noise-p-only-below-one",
        "src/steerkit/cli.py",
        "if args.noise_p != 1.0:",
        "if args.noise_p < 1.0:",
        ("tests/test_cli.py::test_library_refusal_exits_two",),
    ),
    Mutation(
        "from-sites-without-count-check",
        "src/steerkit/qubits.py",
        """        n_qubits = as_integer(n_qubits, "qubit count must be a positive integer", 1)
""",
        "",
        ("tests/test_site_rule.py::test_counts_must_be_integers",),
    ),
    Mutation(
        "below-bound-without-guard",
        "src/steerkit/core.py",
        "return value < bound - BOUNDARY_TOLERANCE",
        "return value < bound",
        (
            "tests/test_criteria.py::TestExactBound::test_pure_tap_sits_on_every_bound",
            "tests/test_criteria.py::TestCollectiveScan::test_report_guards_the_full_group_like_the_subsets",
            "tests/test_properties.py::TestEavesdropSweep::test_partners_and_taps_never_both_steer",
            "tests/test_cli.py::TestEavesdropCommand::test_symmetric_tap_steers_for_neither_party",
        ),
    ),
    Mutation(
        "threshold-without-overflow-refusal",
        "src/steerkit/scenarios.py",
        """    if math.isinf(2.0 * low) or math.isinf(2.0 * high):  # no sum low + high may overflow
        raise ValueError(f"bracket ends must lie within half the float range, got {bracket}")
""",
        "",
        ("tests/test_scenarios.py::TestFindThreshold::test_bracket_whose_midpoints_overflow_refused_before_the_predicate_runs",),
    ),
    Mutation(
        "squeeze-angle-unchecked",
        "src/steerkit/gaussian.py",
        """    angle = as_real(angle, "squeezing angle must be finite")
""",
        "",
        ("tests/test_site_rule.py::test_real_rule_refuses",),
    ),
)


def run(mutation: Mutation) -> tuple[str, str]:
    """(verdict, detail) of one mutation, applied in a temporary copy."""
    source = (ROOT / mutation.path).read_text()
    found = source.count(mutation.old)
    if found != 1:
        return "ERROR", f"snippet occurs {found} times in {mutation.path}"
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / mutation.path).write_text(source.replace(mutation.old, mutation.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             *mutation.tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if proc.returncode not in (0, 1):
        return "ERROR", f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr}"
    failed = re.findall(r"^FAILED (\S+)", proc.stdout, flags=re.MULTILINE)
    passed = [t for t in mutation.tests if not any(f.split("[")[0] == t for f in failed)]
    if passed:
        return "SURVIVED", "passed: " + ", ".join(passed)
    return "caught", f"{len(failed)} failed"


def main() -> int:
    verdicts = []
    for mutation in MUTATIONS:
        verdict, detail = run(mutation)
        verdicts.append(verdict)
        print(f"{verdict:8} {mutation.name}: {detail}", flush=True)
    return 0 if all(v == "caught" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
