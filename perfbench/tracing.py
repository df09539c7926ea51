"""Spans recorded from outside the program, and the per-layer metrics.

The tracer replaces each public function of interest with a wrapper in
*every* steerkit module namespace that binds it: modules import functions by
name (``scenarios`` binds ``collective_scan`` and ``spin_two_obs``), so
patching only the defining module would miss those callers.  Spans are kept
in memory as ``(name, start_ns, end_ns, parent, extra)`` and written out when
the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (defining module, function) -> span name
TRACED_FUNCTIONS = {
    ("steerkit.scenarios", "run_threshold_scenario"): "scenarios.threshold",
    ("steerkit.scenarios", "eavesdrop_sweep"): "scenarios.eavesdrop_sweep",
    ("steerkit.scenarios", "run_sweep"): "scenarios.run_sweep",
    ("steerkit.scenarios", "secret_sharing_demo"): "scenarios.secret_sharing",
    ("steerkit.criteria", "collective_scan"): "criteria.collective_scan",
    ("steerkit.criteria", "spin_two_obs"): "criteria.spin_sum",
    ("steerkit.criteria", "spin_three_obs"): "criteria.spin_sum",
    ("steerkit.criteria", "ghz3_genuine_report"): "criteria.genuine_report",
    ("steerkit.criteria", "cv3_genuine_report"): "criteria.genuine_report",
    ("steerkit.qubits", "ghz"): "qubits.state_build",
    ("steerkit.qubits", "depolarize_global"): "qubits.state_build",
    ("steerkit.qubits", "random_density_matrix"): "qubits.state_build",
    ("steerkit.qubits", "expectation"): "qubits.expectation",
    ("steerkit.qubits", "inference_variance_with_loss"): "qubits.loss_variance",
    ("steerkit.qubits", "optimal_inference_variance"): "qubits.inference_variance",
    ("steerkit.gaussian", "optimal_conditional_variance"): "gaussian.conditional_variance",
    ("steerkit.gaussian", "cv_ghz"): "gaussian.state_build",
    ("steerkit.gaussian", "eavesdrop_scenario"): "gaussian.state_build",
    ("steerkit.gaussian", "steering_product_cv"): "gaussian.steering_product",
    ("steerkit.gaussian", "fixed_combo_steering"): "gaussian.fixed_combo",
}


def _state_bytes(state) -> int:
    array = getattr(state, "amplitudes", None)
    if array is None:
        array = state.matrix
    return int(array.nbytes)


# span name -> function of the wrapped call's result, stored as the span extra
EXTRAS = {
    "scenarios.threshold": lambda result: result.iterations,
    "scenarios.eavesdrop_sweep": len,
    "scenarios.run_sweep": len,
    "qubits.state_build": _state_bytes,
}


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        extra = []
        try:
            yield extra
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, extra[0] if extra else None)

    def wrap(self, name: str, function):
        extract = EXTRAS.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as extra:
                result = function(*args, **kwargs)
                if extract is not None:
                    extra.append(extract(result))
                return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function in every steerkit namespace binding it."""
        replaced = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "steerkit" or key.startswith("steerkit."))]
        for (module_name, attr), name in TRACED_FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        replaced.append((module, key, original))
        try:
            yield self
        finally:
            for module, key, original in replaced:
                setattr(module, key, original)


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result


def _outermost(spans, name: str) -> list[int]:
    """Indices of spans called `name` with no ancestor of the same name."""
    names = [s[0] for s in spans]
    found = []
    for index, span in enumerate(spans):
        if span[0] != name:
            continue
        parent = span[3]
        while parent is not None and names[parent] != name:
            parent = spans[parent][3]
        if parent is None:
            found.append(index)
    return found


def _under(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


LAYER_GROUPS = tuple(dict.fromkeys(TRACED_FUNCTIONS.values()))


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-layer counts and busy times per operation from one traced pass.

    `calls` counts every span of a group; `busy_ms` sums the outermost spans
    of the group, so nested calls of one group are not counted twice.
    """
    per_op = 1.0 / max(n_ops, 1)
    out: dict[str, float] = {}
    for group in LAYER_GROUPS:
        outer = _outermost(spans, group)
        calls = sum(1 for s in spans if s[0] == group)
        busy_ns = sum(spans[i][2] - spans[i][1] for i in outer)
        out[f"{group}.calls"] = calls * per_op
        out[f"{group}.busy_ms"] = busy_ns / 1e6 * per_op
    scans = _outermost(spans, "criteria.collective_scan")
    selfs = self_times(spans)
    out["criteria.collective_scan.self_ms"] = sum(selfs[i] for i in scans) / 1e6 * per_op
    out["criteria.settings_tried"] = per_op * sum(
        1 for i, s in enumerate(spans)
        if s[0] == "qubits.inference_variance" and _under(spans, i, "criteria.collective_scan"))
    out["criteria.plans_tried"] = per_op * sum(
        1 for i, s in enumerate(spans)
        if s[0] == "gaussian.conditional_variance" and _under(spans, i, "criteria.collective_scan"))
    thresholds = [spans[i][4] for i in _outermost(spans, "scenarios.threshold")]
    out["scenarios.bisection_steps"] = sum(thresholds) / len(thresholds) if thresholds else 0.0
    for group in ("scenarios.eavesdrop_sweep", "scenarios.run_sweep"):
        out[f"{group}.points"] = per_op * sum(spans[i][4] for i in _outermost(spans, group))
        del out[f"{group}.calls"]
    built = [spans[i][4] for i in _outermost(spans, "qubits.state_build")]
    out["qubits.state_bytes"] = float(max(built, default=0))
    return out
