"""Command-line interface: report formats, exit codes, determinism."""

import json
import math
import re

import pytest

from steerkit import cli, gaussian, qubits, scenarios, selftest
from steerkit.cli import UsageError, _parse_eta_grid, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_records(stdout):
    return [json.loads(line) for line in stdout.splitlines()]


class TestGhzQubitCommand:
    def test_ideal_genuine_sum(self, capsys):
        code, out, _ = run_cli(capsys, "ghz-qubit", "--n", "3", "--criterion", "genuine-sum")
        assert code == 0
        records = json_records(out)
        assert records[0]["record"] == "header"
        summary = records[-1]
        assert summary["record"] == "genuine-steering"
        assert summary["genuine"] is True
        assert summary["sum"] == pytest.approx(0.0, abs=1e-12)

    def test_noisy_genuine_sum(self, capsys):
        code, out, _ = run_cli(
            capsys, "ghz-qubit", "--n", "3", "--noise-p", "0.95", "--criterion", "genuine-sum"
        )
        assert code == 0
        summary = json_records(out)[-1]
        assert summary["sum"] == pytest.approx(0.6, abs=1e-10)
        assert summary["genuine"] is True

    def test_low_efficiency_three_obs_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "ghz-qubit", "--n", "3", "--eta", "0.2", "--criterion", "three-obs"
        )
        assert code == 0
        record = json_records(out)[-1]
        assert record["value"] == pytest.approx(2.4, abs=1e-10)
        assert record["verdict"] is False

    def test_usage_error_on_bad_n(self, capsys):
        code, _, err = run_cli(capsys, "ghz-qubit", "--n", "99")
        assert code == 2
        assert "usage error" in err

    def test_genuine_sum_needs_three_sites(self, capsys):
        code, _, _ = run_cli(capsys, "ghz-qubit", "--n", "4", "--criterion", "genuine-sum")
        assert code == 2

    def test_constant_guess_policy(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ghz-qubit", "--n", "3", "--eta", "0.5",
            "--policy", "constant-guess", "--guess", "1.0",
        )
        assert code == 0
        record = json_records(out)[-1]
        assert record["value"] == pytest.approx(1.5, abs=1e-10)


    def test_noisy_state_at_max_qubits(self, capsys):
        code, out, _ = run_cli(capsys, "ghz-qubit", "--n", "14", "--noise-p", "0.9")
        assert code == 0
        assert abs(json_records(out)[-1]["value"] - 0.4) <= 1e-9


class TestGhzCvCommand:
    def test_genuine_sum_at_unit_squeezing(self, capsys):
        code, out, _ = run_cli(capsys, "ghz-cv", "--r", "1.0", "--criterion", "genuine-sum")
        assert code == 0
        summary = json_records(out)[-1]
        assert summary["sum"] == pytest.approx(3.0 * math.sqrt(6.0) * math.exp(-2.0), abs=1e-10)
        assert summary["genuine"] is True

    def test_fixed_combo_vacuum(self, capsys):
        code, out, _ = run_cli(
            capsys, "ghz-cv", "--r", "0", "--criterion", "fixed-combo", "--target", "1"
        )
        assert code == 0
        record = json_records(out)[-1]
        assert record["value"] == pytest.approx(math.sqrt(6.0), abs=1e-12)
        assert record["verdict"] is False

    def test_threshold_squeezing_not_a_violation(self, capsys):
        code, out, _ = run_cli(
            capsys, "ghz-cv", "--r", str(math.log(6.0) / 4.0), "--criterion", "fixed-combo"
        )
        assert code == 0
        record = json_records(out)[-1]
        assert record["value"] == pytest.approx(1.0, abs=1e-12)
        assert record["verdict"] is False

    def test_product_criterion(self, capsys):
        code, out, _ = run_cli(capsys, "ghz-cv", "--r", "1.0", "--criterion", "product")
        assert code == 0
        record = json_records(out)[-1]
        assert record["criterion"] == "cv-product"
        assert record["verdict"] is True

    def test_rejects_bad_target(self, capsys):
        code, _, _ = run_cli(capsys, "ghz-cv", "--target", "4")
        assert code == 2


class TestEavesdropCommand:
    def test_grid_count_and_symmetry(self, capsys):
        code, out, _ = run_cli(capsys, "eavesdrop", "--r", "1.5", "--eta-grid", "0:1:0.1")
        assert code == 0
        records = [r for r in json_records(out) if r["record"] == "eavesdrop"]
        assert len(records) == 11
        midpoint = records[5]
        assert midpoint["eta"] == pytest.approx(0.5)
        assert abs(midpoint["accomplice_value"] - midpoint["eavesdropper_value"]) <= 1e-9

    def test_symmetric_tap_steers_for_neither_party(self, capsys):
        # at eta = 0.5 both values are 1 in exact arithmetic, a few ulps off in floats
        argv = ["eavesdrop", "--r", "0.5", "--eta-grid", "0:1:0.5", "--json"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        records = [r for r in json_records(out) if r["record"] == "eavesdrop"]
        assert len(records) == 3
        assert not any(r["accomplice_verdict"] and r["eavesdropper_verdict"] for r in records)
        assert not records[1]["accomplice_verdict"] and not records[1]["eavesdropper_verdict"]

    def test_single_point_vacuum(self, capsys):
        code, out, _ = run_cli(capsys, "eavesdrop", "--r", "0", "--eta-grid", "0.5:0.5:0.1")
        assert code == 0
        records = [r for r in json_records(out) if r["record"] == "eavesdrop"]
        assert len(records) == 1
        assert records[0]["accomplice_value"] == pytest.approx(1.0, abs=1e-10)

    def test_decreasing_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eavesdrop", "--r", "1.5", "--eta-grid", "1:0:-0.1")
        assert code == 2
        assert "usage error" in err

    def test_malformed_grid_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "eavesdrop", "--eta-grid", "0:1")
        assert code == 2
        code, _, _ = run_cli(capsys, "eavesdrop", "--eta-grid", "a:b:c")
        assert code == 2

    def test_grid_ending_at_one_survives_rounding(self, capsys):
        # 0.09 + 13 * 0.07 evaluates to 1.0000000000000002
        code, out, _ = run_cli(capsys, "eavesdrop", "--eta-grid", "0.09:1:0.07")
        assert code == 0
        records = [r for r in json_records(out) if r["record"] == "eavesdrop"]
        assert len(records) == 14
        assert records[-1]["eta"] == 1.0

    def test_grid_point_cap(self):
        # 0:1:1e-4 has one point more than the cap
        with pytest.raises(UsageError, match="points"):
            _parse_eta_grid("0:1:0.0001")
        assert len(_parse_eta_grid("0:1:0.0001000001")) == cli.MAX_GRID_POINTS

    @pytest.mark.parametrize("grid", ["-0.1:1:0.1", "0:1.5:0.5", "-3:-1:1"])
    def test_grid_outside_unit_interval_refused_before_building(self, grid):
        with pytest.raises(UsageError, match=r"\[0, 1\]"):
            _parse_eta_grid(grid)

    def test_oversized_grid_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "eavesdrop", "--eta-grid", "0:1:0.0001")
        assert code == 2
        assert out == ""
        assert "usage error" in err

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "eavesdrop", "--r", "1.0", "--eta-grid", "0:1:0.5", "--csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("record,eta,accomplice_value")
        assert len(lines) == 4


class TestThresholdCommand:
    def test_three_obs_eta(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--scenario", "three-obs-eta")
        assert code == 0
        record = json_records(out)[-1]
        assert record["critical"] == pytest.approx(1.0 / 3.0, abs=1e-4)
        assert record["bracket_high"] - record["bracket_low"] <= 1e-4

    def test_unknown_scenario_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "threshold", "--scenario", "nonsense")
        assert code == 2


class TestSweepCommand:
    def test_csv_rows_from_config(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps(
                {
                    "backend": "cv",
                    "scenario": "cv-fixed-combo",
                    "parameter": "r",
                    "grid": [0.0, 1.0],
                }
            )
        )
        code, out, _ = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "record,scenario,parameter,param_value,value,bound,verdict"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[4]) == pytest.approx(math.sqrt(6.0))
        assert first[6] == "false"

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    def test_bad_grid_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps(
                {
                    "backend": "cv",
                    "scenario": "cv-fixed-combo",
                    "parameter": "r",
                    "grid": [1.0, 0.5],
                }
            )
        )
        code, _, _ = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 2

    @pytest.mark.parametrize("seed", [2.5, True, "3", -1])
    def test_non_integer_or_negative_seed_is_usage_error(self, tmp_path, capsys, seed):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps(
                {
                    "backend": "cv",
                    "scenario": "cv-fixed-combo",
                    "parameter": "r",
                    "grid": [0.0, 1.0],
                    "seed": seed,
                }
            )
        )
        code, out, err = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 2
        assert out == ""
        assert "seed must be a non-negative integer" in err

    @pytest.mark.parametrize("point", ["0.5", True])
    def test_grid_point_that_is_not_a_number_is_usage_error(self, tmp_path, capsys, point):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps(
                {
                    "backend": "cv",
                    "scenario": "cv-fixed-combo",
                    "parameter": "r",
                    "grid": [point],
                }
            )
        )
        code, out, err = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 2
        assert out == ""
        assert f"grid points must be finite numbers, got {point!r}" in err

    def test_json_output_round_trips(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps(
                {
                    "backend": "qubit",
                    "scenario": "two-obs-eta",
                    "parameter": "eta",
                    "grid": [0.25, 0.75],
                }
            )
        )
        code, out, _ = run_cli(capsys, "sweep", "--config", str(config), "--json")
        assert code == 0
        records = json_records(out)
        assert records[0]["record"] == "header"
        assert len(records) == 3


# Each value the library refuses exits 2 with nothing on stdout, and stderr
# carries the library's own message naming its limit.
REFUSALS = [
    (["ghz-qubit", "--n", "0"], r"qubit count must be an integer in 1\.\.14, got 0"),
    (["ghz-qubit", "--n", "1"], r"ghz needs at least 2 qubits, got 1"),
    (["ghz-qubit", "--n", "15"], r"qubit count must be an integer in 1\.\.14, got 15"),
    (["ghz-qubit", "--noise-p", "1.5"], r"depolarizing weight must lie in \[0, 1\], got 1\.5"),
    (["ghz-qubit", "--noise-p", "nan"], r"depolarizing weight must lie in \[0, 1\], got nan"),
    (["ghz-qubit", "--noise-p", "-0.1"], r"depolarizing weight must lie in \[0, 1\], got -0\.1"),
    (["ghz-qubit", "--n", "4", "--criterion", "genuine-sum"], r"defined for 3 qubits"),
    (["ghz-qubit", "--eta", "1.5"], r"efficiency must lie in \[0, 1\], got 1\.5"),
    (["ghz-qubit", "--policy", "constant-guess"], r"constant-guess policy needs a finite guess"),
    (["ghz-cv", "--r", "-1"], r"squeezing strength must be finite and non-negative, got -1\.0"),
    (["ghz-cv", "--r", "4.01"], r"squeezing strength 4\.01 exceeds MAX_GHZ_SQUEEZING = 4\.0"),
    (["ghz-cv", "--r", "inf"], r"squeezing strength must be finite and non-negative, got inf"),
    (["ghz-cv", "--r", "nan"], r"squeezing strength must be finite and non-negative, got nan"),
    (["eavesdrop", "--r", "-1"], r"squeezing strength must be finite and non-negative, got -1\.0"),
    (["eavesdrop", "--r", "4.01"], r"squeezing strength 4\.01 exceeds MAX_GHZ_SQUEEZING = 4\.0"),
    (["eavesdrop", "--r", "nan"], r"squeezing strength must be finite and non-negative, got nan"),
]


@pytest.mark.parametrize("argv, message", REFUSALS, ids=[" ".join(a) for a, _ in REFUSALS])
def test_library_refusal_exits_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ")
    assert re.search(message, err)


class TestDeterminismAndPlumbing:
    def test_byte_identical_json(self, capsys):
        _, first, _ = run_cli(capsys, "ghz-qubit", "--n", "4", "--criterion", "two-obs")
        _, second, _ = run_cli(capsys, "ghz-qubit", "--n", "4", "--criterion", "two-obs")
        assert first == second

    def test_wall_time_goes_to_stderr(self, capsys):
        _, out, err = run_cli(capsys, "ghz-qubit", "--n", "3")
        assert "wall_time" not in out
        assert "# wall_time_s=" in err

    def test_csv_floats_round_trip_losslessly(self, capsys):
        _, json_out, _ = run_cli(capsys, "ghz-cv", "--r", "0.3", "--criterion", "fixed-combo")
        exact = json_records(json_out)[-1]["value"]
        _, csv_out, _ = run_cli(
            capsys, "ghz-cv", "--r", "0.3", "--criterion", "fixed-combo", "--csv"
        )
        value_cell = csv_out.splitlines()[1].split(",")[4]
        assert float(value_cell) == exact
        assert value_cell == f"{exact:.17g}"

    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["ghz-cv", "--r", "nan"],
            ["ghz-cv", "--r", "inf"],
            ["eavesdrop", "--r", "nan"],
            ["eavesdrop", "--eta-grid", "0:1:nan"],
            ["eavesdrop", "--eta-grid", "0:inf:0.1"],
            ["eavesdrop", "--eta-grid", "nan:1:0.1"],
        ],
    )
    def test_non_finite_input_is_usage_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "usage error" in err

    @pytest.mark.parametrize("criterion", ["product", "fixed-combo", "genuine-sum"])
    def test_ghz_cv_runs_up_to_the_squeezing_limit(self, capsys, criterion):
        limit = repr(gaussian.MAX_GHZ_SQUEEZING)
        for target in ("1", "2", "3"):
            code, _, _ = run_cli(
                capsys, "ghz-cv", "--r", limit, "--target", target, "--criterion", criterion
            )
            assert code == 0
        code, _, err = run_cli(capsys, "ghz-cv", "--r", "4.01", "--criterion", criterion)
        assert code == 2
        assert "MAX_GHZ_SQUEEZING = 4.0" in err

    def test_eavesdrop_runs_up_to_the_squeezing_limit(self, capsys):
        limit = repr(gaussian.MAX_GHZ_SQUEEZING)
        code, out, _ = run_cli(capsys, "eavesdrop", "--r", limit, "--eta-grid", "0:1:0.01")
        assert code == 0
        assert len(json_records(out)) == 102
        code, _, err = run_cli(capsys, "eavesdrop", "--r", "4.01")
        assert code == 2
        assert "MAX_GHZ_SQUEEZING = 4.0" in err

    @pytest.mark.parametrize("scenario", ["cv-genuine-sum", "cv-fixed-combo"])
    def test_cv_sweep_runs_up_to_the_squeezing_limit(self, tmp_path, capsys, scenario):
        config = tmp_path / "sweep.json"
        for grid, want in (([0.5, gaussian.MAX_GHZ_SQUEEZING], 0), ([0.5, 4.01], 2)):
            config.write_text(json.dumps(
                {"backend": "cv", "scenario": scenario, "parameter": "r", "grid": grid}
            ))
            code, _, err = run_cli(capsys, "sweep", "--config", str(config))
            assert code == want
        assert "MAX_GHZ_SQUEEZING = 4.0" in err

    def test_unknown_flag_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "ghz-qubit", "--warp", "9")
        assert code == 2

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["ghz-cv", "--r", "0.5"])
        assert args.command == "ghz-cv"
        assert args.r == 0.5


class TestSelftestCommand:
    NAMES = [
        "ghz amplitudes",
        f"ghz predictors: zero variance, 4(1 - p) when depolarized, 2..{qubits.MAX_QUBITS} qubits",
        "pauli expectations on ghz(3)",
        "global depolarizing mixture",
        "optimal inference variances",
        "detection-loss closed forms",
        "spin criteria closed forms",
        "efficiency and squeezing thresholds",
        "genuine tripartite sums",
        "monogamy boundary product",
        "vacuum and squeezers",
        "beamsplitters and loss",
        "cv ghz correlation variances",
        "fixed-combination criterion",
        "optimal conditional variances",
        "cv steering product",
        "cv genuine tripartite sum",
        "eavesdropping symmetry",
        "collective steering demonstrations",
    ]

    def test_prints_one_pass_line_per_check_then_the_tally(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert [name for name, _ in selftest.CHECKS] == self.NAMES
        assert len(set(self.NAMES)) == 19
        assert out.splitlines() == [f"PASS {name}" for name in self.NAMES] + [
            "19/19 checks passed"
        ]

    @pytest.mark.parametrize("wrong", [0.25, math.nan])
    def test_a_wrong_value_fails_its_check(self, capsys, monkeypatch, wrong):
        monkeypatch.setattr(qubits, "expectation", lambda *args: wrong)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 1
        lines = out.splitlines()
        assert f"FAIL pauli expectations on ghz(3): expected 1.0, got {wrong!r} (tol 1e-12)" in lines
        assert len(lines) == 20
        for line, name in zip(lines, self.NAMES):
            assert line == f"PASS {name}" or line.startswith(f"FAIL {name}: expected ")
        failed = sum(line.startswith("FAIL ") for line in lines)
        assert lines[-1] == f"{19 - failed}/19 checks passed"

    def test_an_exception_inside_a_check_is_a_failure(self, capsys, monkeypatch):
        def no_bracket(name):
            raise RuntimeError(f"no bracket for {name}")

        monkeypatch.setattr(scenarios, "run_threshold_scenario", no_bracket)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 1
        lines = out.splitlines()
        assert lines[7] == (
            "FAIL efficiency and squeezing thresholds: RuntimeError: no bracket for three-obs-eta"
        )
        assert lines[:7] + lines[8:-1] == [
            f"PASS {name}" for name in self.NAMES[:7] + self.NAMES[8:]
        ]
        assert lines[-1] == "18/19 checks passed"
