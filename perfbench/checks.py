"""Output checks for every benchmark operation.

Each check takes an operation and what the program returned for it, and
raises `CheckError` on the first mismatch.  Expected values come from closed
forms or from numpy linear algebra written here, never from the program.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

TOL = 1e-9
THRESHOLD_TOL = 1e-4
MONOGAMY_TOL = 1e-9


class CheckError(AssertionError):
    """An operation's output disagrees with its expected value."""


def _close(name: str, got: float, want: float, tol: float = TOL) -> None:
    if not (isinstance(got, (int, float)) and math.isfinite(got) and abs(got - want) <= tol):
        raise CheckError(f"{name}: got {got!r}, expected {want!r} within {tol}")


def _true(name: str, condition: bool) -> None:
    if not condition:
        raise CheckError(name)


# ---------------------------------------------------------------- closed forms

def ghz_term(p: float, eta: float | None = None, policy: str = "marginal-mean",
             guess: float | None = None) -> float:
    """One inference-variance term of a spin sum on p*GHZ(n) + (1-p)*I/2^n.

    Target and GHZ predictor have zero means and <T P> = p, so the term is
    2 - 2p, mixed with the no-click branch when a detection model is given.
    """
    click = 2.0 - 2.0 * p
    if eta is None:
        return max(click, 0.0)
    if policy == "marginal-mean":
        return max(eta * click + (1.0 - eta), 0.0)
    miss = 1.0 + guess * guess
    mean = (1.0 - eta) * -guess
    return max(eta * click + (1.0 - eta) * miss - mean * mean, 0.0)


def cv_fixed_combo(r: float) -> float:
    """sqrt(Var(x_j - x_k) Var(p_1 + p_2 + p_3)) on the CV GHZ resource."""
    return math.sqrt(6.0) * math.exp(-2.0 * r)


THRESHOLDS = {
    "three-obs-eta": 1.0 / 3.0,
    "two-obs-eta": 0.5,
    # 3 sqrt(6) e^{-2r} = 1
    "cv-genuine-r": 0.5 * math.log(3.0 * math.sqrt(6.0)),
}

SWEEP_VALUES = {
    "noise-genuine-sum": lambda p: (3 * 2 * ghz_term(p), 1.0),
    "cv-genuine-sum": lambda r: (3 * cv_fixed_combo(r), 1.0),
    "cv-fixed-combo": lambda r: (cv_fixed_combo(r), 1.0),
    "three-obs-eta": lambda eta: (3 * ghz_term(1.0, eta), 2.0),
    "two-obs-eta": lambda eta: (2 * ghz_term(1.0, eta), 1.0),
}


def cv_ghz_cov(r: float) -> np.ndarray:
    """Covariance of the three-mode CV GHZ resource, ordered (x1, p1, x2, p2,
    x3, p3) with vacuum variance 1.

    Each x has variance (e^{2r} + 2e^{-2r})/3 and each p (2e^{2r} + e^{-2r})/3;
    x pairs correlate by +(e^{2r} - e^{-2r})/3 and p pairs by the negative.
    So Var(x_j - x_k) = 2e^{-2r} and Var(p1 + p2 + p3) = 3e^{-2r}.
    """
    grow, shrink = math.exp(2.0 * r), math.exp(-2.0 * r)
    corr = (grow - shrink) / 3.0
    x_block = np.full((3, 3), corr) + np.eye(3) * ((grow + 2.0 * shrink) / 3.0 - corr)
    p_block = np.full((3, 3), -corr) + np.eye(3) * ((2.0 * grow + shrink) / 3.0 + corr)
    cov = np.zeros((6, 6))
    cov[0::2, 0::2] = x_block
    cov[1::2, 1::2] = p_block
    return cov


def _quadrature_rows(n_modes: int, modes, angle: float) -> np.ndarray:
    rows = np.zeros((len(modes), 2 * n_modes))
    for i, mode in enumerate(modes):
        rows[i, 2 * (mode - 1)] = math.cos(angle)
        rows[i, 2 * (mode - 1) + 1] = math.sin(angle)
    return rows


def conditional_variance(cov: np.ndarray, target: np.ndarray, measured: np.ndarray) -> float:
    """Var(t) - c^T M^-1 c for target row t and measured rows M."""
    m = measured @ cov @ measured.T
    c = measured @ cov @ target
    return float(target @ cov @ target - c @ np.linalg.solve(m, c))


def homodyne_product(cov, target: int, rest) -> float:
    """Product of the target's inferred x (all rest measure x) and p
    (all rest measure p) uncertainties."""
    n = cov.shape[0] // 2
    t_x = _quadrature_rows(n, [target], 0.0)[0]
    t_p = _quadrature_rows(n, [target], math.pi / 2)[0]
    var_x = conditional_variance(cov, t_x, _quadrature_rows(n, rest, 0.0))
    var_p = conditional_variance(cov, t_p, _quadrature_rows(n, rest, math.pi / 2))
    return math.sqrt(var_x * var_p)


def schur_floor(cov, target: int, rest) -> float:
    """sqrt(det M_B) with M_B = s_B - s_BA s_A^-1 s_AB: conditioning on every
    quadrature of the group bounds every homodyne product from below."""
    b = [2 * (target - 1), 2 * (target - 1) + 1]
    a = [q for mode in sorted(rest) for q in (2 * (mode - 1), 2 * (mode - 1) + 1)]
    s_b = cov[np.ix_(b, b)]
    s_ba = cov[np.ix_(b, a)]
    s_a = cov[np.ix_(a, a)]
    m_b = s_b - s_ba @ np.linalg.solve(s_a, s_ba.T)
    return math.sqrt(max(np.linalg.det(m_b), 0.0))


# ------------------------------------------------------------- noisy-qubit

def check_noisy(op: dict, out: dict) -> None:
    model = (op["eta"], op["policy"], op["guess"])
    for key in ("v2", "v2m", "v3", "v3m"):
        _true(f"{key} is a finite non-negative value",
              math.isfinite(out[key]) and out[key] >= 0.0)
    if op["kind"] == "depolarized":
        p = op["p"]
        _close("two-observable value", out["v2"], 2 * ghz_term(p))
        _close("three-observable value", out["v3"], 3 * ghz_term(p))
        _close("two-observable value with detection model", out["v2m"], 2 * ghz_term(p, *model))
        _close("three-observable value with detection model", out["v3m"], 3 * ghz_term(p, *model))
        if out.get("genuine") is not None:
            _close("genuine sum", out["genuine"]["sum"], 3 * 2 * ghz_term(p, *model))
    else:
        # a third non-negative term can only add to the two-observable sum
        _true("three-observable value below two-observable value",
              out["v3"] >= out["v2"] - 1e-12 and out["v3m"] >= out["v2m"] - 1e-12)
        a, b, product, satisfied = out["monogamy"]
        _close("monogamy product", product, a * b, 1e-12 * max(1.0, abs(a * b)))
        _true(f"monogamy product {product!r} below 1",
              satisfied and product >= 1.0 - MONOGAMY_TOL)
    genuine = out.get("genuine")
    if genuine is not None:
        _close("genuine sum of values", genuine["sum"], math.fsum(genuine["values"]), 1e-12)
        _true("genuine flag", genuine["genuine"] == (genuine["sum"] < 1.0))


# ------------------------------------------------------------------- scan

def check_scan(op: dict, out: dict) -> None:
    kind = op["kind"]
    if kind == "qubit-scan":
        _close("full-group value on GHZ", out["value"], 0.0, 1e-12)
        _true("GHZ collective flag", out["collective"] is True)
        _true("subset count", out["n_subsets"] == 2 ** (op["n"] - 1) - 2)
    elif kind == "cv-scan":
        cov = cv_ghz_cov(op["r"])
        _true("cv_ghz covariance matches the closed form",
              np.allclose(np.asarray(out["cov"]), cov, rtol=0.0, atol=1e-10))
        target = op["target"]
        rest = sorted({1, 2, 3} - {target})
        floor = schur_floor(cov, target, rest)
        _true(f"grid product {out['value']!r} below the Schur floor {floor!r}",
              out["value"] >= floor - 1e-12)
        if op["n_angles"] % 2 == 0:
            plan = homodyne_product(cov, target, rest)
            _true(f"grid product {out['value']!r} above the x_on/p_on value {plan!r}",
                  out["value"] <= plan + 1e-9)
    elif kind == "secret-sharing":
        for product, satisfied in zip(out["products"], out["satisfied"]):
            _true(f"secret-sharing monogamy product {product!r} below 1",
                  satisfied and product >= 1.0 - MONOGAMY_TOL)
        _true("three monogamy products", len(out["products"]) == 3)
    else:
        raise CheckError(f"unknown scan operation {kind!r}")


# -------------------------------------------------------------- cli-corpus

_FLOATS = {"value", "bound", "sum", "eta", "accomplice_value", "eavesdropper_value",
           "monogamy_product", "critical", "bracket_low", "bracket_high", "param_value"}
_INTS = {"target", "iterations"}
_BOOLS = {"verdict", "genuine", "accomplice_verdict", "eavesdropper_verdict"}


def parse_records(text: str, fmt: str) -> list[dict]:
    """Records of one CLI report; the JSON header line is dropped."""
    if fmt == "json":
        lines = [json.loads(line) for line in text.splitlines()]
        if not lines or lines[0].get("record") != "header":
            raise CheckError("JSON output does not start with a header record")
        return lines[1:]
    rows = list(csv.DictReader(io.StringIO(text)))
    records = []
    for row in rows:
        record = {}
        for key, cell in row.items():
            if cell == "":
                record[key] = None
            elif key in _FLOATS:
                record[key] = float(cell)
            elif key in _INTS:
                record[key] = int(cell)
            elif key in _BOOLS:
                if cell not in ("true", "false"):
                    raise CheckError(f"column {key} holds {cell!r}")
                record[key] = cell == "true"
            else:
                record[key] = cell
        records.append(record)
    return records


def _values(records: list[dict], kind: str) -> list[dict]:
    return [r for r in records if r.get("record") == kind]


def _check_steering(record: dict, want: float) -> None:
    _close("steering value", record["value"], want)
    _true("verdict equals value < bound", record["verdict"] == (record["value"] < record["bound"]))


def check_cli(op: dict, text: str) -> None:
    """Check one invocation's stdout."""
    try:
        records = parse_records(text, op["format"])
    except (ValueError, KeyError) as exc:
        raise CheckError(f"unparseable {op['format']} output: {exc}") from None
    cmd = op["cmd"]
    if cmd == "ghz-qubit":
        term = ghz_term(op["noise_p"], op["eta"], op["policy"], op["guess"])
        values = _values(records, "steering-value")
        if op["criterion"] == "genuine-sum":
            _true("three per-target values", len(values) == 3)
            for record in values:
                _check_steering(record, 2 * term)
            (report,) = _values(records, "genuine-steering")
            _close("genuine sum", report["sum"], 3 * 2 * term)
            _true("genuine flag", report["genuine"] == (report["sum"] < 1.0))
        else:
            (record,) = values
            terms = 2 if op["criterion"] == "two-obs" else 3
            _check_steering(record, terms * term)
            _close("bound", record["bound"], terms - 1.0, 0.0)
    elif cmd == "ghz-cv":
        values = _values(records, "steering-value")
        want = cv_fixed_combo(op["r"])
        if op["criterion"] == "fixed-combo":
            (record,) = values
            _check_steering(record, want)
        elif op["criterion"] == "genuine-sum":
            _true("three per-target values", len(values) == 3)
            for record in values:
                _check_steering(record, want)
            (report,) = _values(records, "genuine-steering")
            _close("genuine sum", report["sum"], 3 * want)
        else:
            (record,) = values
            rest = sorted({1, 2, 3} - {op["target"]})
            _check_steering(record, homodyne_product(cv_ghz_cov(op["r"]), op["target"], rest))
            _true("optimal gains beat the unit-gain combination", record["value"] <= want + TOL)
    elif cmd == "eavesdrop":
        rows = _values(records, "eavesdrop")
        start, stop, step = (float(v) for v in op["eta_grid"].split(":"))
        _true("one row per grid point", len(rows) == int(math.floor((stop - start) / step + 1e-9)) + 1)
        half = [row for row in rows if abs(row["eta"] - 0.5) < 1e-12]
        _true("grid contains eta = 0.5", len(half) == 1)
        _close("eavesdropper symmetry at eta = 0.5", half[0]["accomplice_value"],
               half[0]["eavesdropper_value"], TOL * max(1.0, half[0]["eavesdropper_value"]))
        for row in rows:
            product = row["accomplice_value"] * row["eavesdropper_value"]
            _close("monogamy product", row["monogamy_product"], product, 1e-12 * max(1.0, product))
            _true("monogamy product below 1", row["monogamy_product"] >= 1.0 - MONOGAMY_TOL)
    elif cmd == "threshold":
        (row,) = _values(records, "threshold")
        _close(f"{op['scenario']} threshold", row["critical"], THRESHOLDS[op["scenario"]],
               THRESHOLD_TOL)
        _true("critical inside bracket", row["bracket_low"] <= row["critical"] <= row["bracket_high"])
    elif cmd == "sweep":
        rows = _values(records, "sweep")
        grid = op["config"]["grid"]
        _true("one row per grid point", [row["param_value"] for row in rows] == grid)
        for row in rows:
            value, bound = SWEEP_VALUES[op["scenario"]](row["param_value"])
            _close(f"{op['scenario']} value", row["value"], value)
            _close("bound", row["bound"], bound, 0.0)
            _true("verdict equals value < bound", row["verdict"] == (row["value"] < row["bound"]))
    else:
        raise CheckError(f"unknown command {cmd!r}")
