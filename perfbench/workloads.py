"""Seeded operation decks for the three benchmark workloads.

A deck is the fixed list of operations one cycle of a workload runs.  The
seed draws every parameter of every operation; the *composition* of a deck
(how many operations of each cost class it holds) is fixed, so that
throughput and the latency percentiles land inside the same cost class on
every seed.  Each cycle runs the same deck in a fresh seeded order.

Operations are plain JSON-ready dicts.  Nothing here imports steerkit at
module level, so decks can be generated and compared without the program.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("cli-corpus", "noisy-qubit", "scan")

# Fixed, unseeded warm-up operation per workload: run once, untimed, before
# the timed run starts.
WARMUP = {
    "cli-corpus": {"cmd": "ghz-qubit", "argv": ["ghz-qubit", "--n", "3", "--json"],
                   "format": "json", "n": 3, "noise_p": 1.0, "eta": 1.0,
                   "policy": "marginal-mean", "guess": None, "criterion": "two-obs"},
    "noisy-qubit": {"kind": "depolarized", "n": 6, "p": 0.5, "eta": 0.8,
                    "policy": "marginal-mean", "guess": None, "seed": 0},
    "scan": {"kind": "cv-scan", "r": 1.0, "target": 1, "n_angles": 12},
}

# Sweep scenario -> (backend, parameter, low, high) of the seeded grid.
SWEEP_GRIDS = {
    "noise-genuine-sum": ("qubit", "p", 0.0, 1.0),
    "cv-genuine-sum": ("cv", "r", 0.0, 1.5),
    "cv-fixed-combo": ("cv", "r", 0.0, 1.5),
    "three-obs-eta": ("qubit", "eta", 0.0, 1.0),
    "two-obs-eta": ("qubit", "eta", 0.0, 1.0),
}

THRESHOLD_SCENARIOS = ("three-obs-eta", "two-obs-eta", "cv-genuine-r")

# The tail percentile has at least this many samples above it.
TAIL_BEYOND = 10

# Per workload, the operations that hold the tail: its cost class and any
# dearer one (see each deck's docstring).  A run takes at least enough cycles
# for these to give TAIL_BEYOND + 1 samples, so the tail never falls to a
# cheaper class when a slower program fits fewer cycles into --seconds.
TAIL_CLASS = {
    "cli-corpus": lambda op: op.get("eta_grid") == "0:1:0.01",
    "noisy-qubit": lambda op: op["n"] == 10,
    "scan": lambda op: (op["kind"] == "secret-sharing" and op["backend"] == "cv")
    or (op["kind"] == "qubit-scan" and op["n"] == 7),
}


def _rng(workload: str, seed: int, *salt) -> random.Random:
    return random.Random(":".join(str(part) for part in (workload, seed) + salt))


def _detection(rng: random.Random) -> tuple[float, str, float | None]:
    """Efficiency, no-click policy and guess for a DetectionModel."""
    eta = rng.choice([1.0, round(rng.uniform(0.3, 1.0), 6)])
    if rng.random() < 0.5:
        return eta, "constant-guess", round(rng.uniform(-1.0, 1.0), 6)
    return eta, "marginal-mean", None


def _qubit_argv(n, noise_p, eta, policy, guess, criterion, fmt) -> list[str]:
    argv = ["ghz-qubit", "--n", str(n), "--criterion", criterion, "--eta", repr(eta),
            "--policy", policy]
    if noise_p < 1.0:
        argv += ["--noise-p", repr(noise_p)]
    if guess is not None:
        argv += ["--guess", repr(guess)]
    return argv + [f"--{fmt}"]


def _cli_deck(seed: int) -> list[dict]:
    rng = _rng("cli-corpus", seed)
    formats = ["json", "csv"]
    deck = []

    def fmt(i: int) -> str:
        # every subcommand appears in both formats
        return formats[(i + seed) % 2]

    # ghz-qubit on pure states: n = 2 and 14 always, four more from 3..13
    sizes = [2, 14] + rng.sample(range(3, 14), 4)
    for i, n in enumerate(sizes):
        eta, policy, guess = _detection(rng)
        criterion = ("two-obs", "three-obs")[i % 2]
        deck.append({"cmd": "ghz-qubit", "n": n, "noise_p": 1.0, "eta": eta,
                     "policy": policy, "guess": guess, "criterion": criterion,
                     "format": fmt(i)})
    # ghz-qubit on noisy states, n <= 6, and the n = 3 genuine sum
    for i in range(3):
        eta, policy, guess = _detection(rng)
        deck.append({"cmd": "ghz-qubit", "n": rng.randint(2, 6),
                     "noise_p": round(rng.uniform(0.05, 0.95), 6), "eta": eta,
                     "policy": policy, "guess": guess,
                     "criterion": ("two-obs", "three-obs", "two-obs")[i], "format": fmt(i)})
    eta, policy, guess = _detection(rng)
    deck.append({"cmd": "ghz-qubit", "n": 3, "noise_p": rng.choice([1.0, round(rng.uniform(0.5, 1.0), 6)]),
                 "eta": eta, "policy": policy, "guess": guess, "criterion": "genuine-sum",
                 "format": fmt(1)})
    for op in deck:
        op["argv"] = _qubit_argv(op["n"], op["noise_p"], op["eta"], op["policy"],
                                 op["guess"], op["criterion"], op["format"])
    # ghz-cv with all three criteria
    for i, criterion in enumerate(("product", "fixed-combo", "genuine-sum")):
        r = round(rng.uniform(0.1, 1.5), 6)
        target = rng.randint(1, 3)
        deck.append({"cmd": "ghz-cv", "r": r, "target": target, "criterion": criterion,
                     "format": fmt(i),
                     "argv": ["ghz-cv", "--r", repr(r), "--target", str(target),
                              "--criterion", criterion, f"--{fmt(i)}"]})
    # eavesdrop on a coarse grid once and on a fine grid five times; both
    # contain eta = 0.5.  The fine grid is the slowest invocation, and with
    # at least three cycles per run its fifteen or more samples hold the
    # eleventh-largest latency clear of start-up spikes of the other calls.
    for i, grid in enumerate(("0:1:0.1",) + ("0:1:0.01",) * 5):
        r = round(rng.uniform(0.3, 2.0), 6)
        deck.append({"cmd": "eavesdrop", "r": r, "eta_grid": grid, "format": fmt(i),
                     "argv": ["eavesdrop", "--r", repr(r), "--eta-grid", grid, f"--{fmt(i)}"]})
    # every threshold scenario
    for i, name in enumerate(THRESHOLD_SCENARIOS):
        deck.append({"cmd": "threshold", "scenario": name, "format": fmt(i),
                     "argv": ["threshold", "--scenario", name, "--seed", str(seed), f"--{fmt(i)}"]})
    # every sweep scenario, from a config file written by the benchmark
    for i, (name, (backend, parameter, low, high)) in enumerate(sorted(SWEEP_GRIDS.items())):
        points = rng.randint(4, 12)
        grid = sorted({round(rng.uniform(low, high), 6) for _ in range(points)})
        config = {"backend": backend, "scenario": name, "parameter": parameter,
                  "grid": grid, "seed": rng.randint(0, 1000)}
        deck.append({"cmd": "sweep", "scenario": name, "config": config, "format": fmt(i),
                     "config_file": f"sweep-{name}.json",
                     "argv": ["sweep", "--config", None, f"--{fmt(i)}"]})
    return deck


def _noisy_deck(seed: int) -> list[dict]:
    """Mixed states on 3..10 qubits, both constructions at every size.

    Every state appears three times per cycle except the depolarized n = 10
    one, which appears once: depolarized states build about twice as slowly
    as random ones of the same size.  The n = 10 states carry most of the
    time.  About five cycles fit in a 30 s run (three to seven as the
    machine's speed drifts), so the depolarized n = 10 states stay below the
    eleventh-largest latency, which falls among the six random n = 10 states
    per cycle.  Twenty-four operations are cheaper than the nine random
    n = 7 states and twenty-five dearer, so the median sits inside that one
    cost class.
    """
    rng = _rng("noisy-qubit", seed)
    once = [(n, kind) for n in (3, 4, 5, 6, 8, 9) for kind in ("depolarized", "random")]
    once += [(7, "random")] * 3 + [(7, "depolarized"), (9, "random"), (10, "random"), (10, "random")]
    sizes = once * 3 + [(10, "depolarized")]
    deck = []
    for n, kind in sizes:
        eta, policy, guess = _detection(rng)
        op = {"kind": kind, "n": n, "eta": eta, "policy": policy, "guess": guess,
              "seed": rng.randrange(2**32)}
        if kind == "depolarized":
            op["p"] = round(rng.uniform(0.05, 0.95), 6)
        else:
            op["rank"] = rng.choice([1, 2, 4, 8])
        deck.append(op)
    return deck


def _scan_deck(seed: int) -> list[dict]:
    """Qubit and CV scans in two halves of roughly equal time.

    Six operations are cheaper than the 36-angle CV scans and seven dearer,
    so the median sits inside that block.  Four to eight cycles fit in a
    30 s run: the one n = 7 qubit scan per cycle stays below the
    eleventh-largest latency, which falls among the three CV secret-sharing
    demos per cycle.
    """
    rng = _rng("scan", seed)
    deck = []
    for n in (3, 4, 5, 6, 6, 7):
        target = rng.randint(1, n)
        deck.append({"kind": "qubit-scan", "n": n, "target": target})
    for n_angles in (12, 24, 36, 36, 36, 36, 36, 36, 48):
        deck.append({"kind": "cv-scan", "r": round(rng.uniform(0.5, 1.5), 6),
                     "target": rng.randint(1, 3), "n_angles": n_angles})
    deck.append({"kind": "secret-sharing", "backend": "qubit", "r": 1.0})
    for _ in range(3):
        deck.append({"kind": "secret-sharing", "backend": "cv",
                     "r": round(rng.uniform(0.5, 1.5), 6)})
    return deck


_DECKS = {"cli-corpus": _cli_deck, "noisy-qubit": _noisy_deck, "scan": _scan_deck}


def make_deck(workload: str, seed: int) -> list[dict]:
    """The operations of one cycle of `workload`, drawn from `seed`."""
    if workload not in _DECKS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return _DECKS[workload](seed)


def min_cycles(workload: str, deck: list[dict]) -> int:
    """Fewest whole cycles that give the tail TAIL_BEYOND + 1 samples."""
    per_cycle = sum(1 for op in deck if TAIL_CLASS[workload](op))
    return math.ceil((TAIL_BEYOND + 1) / per_cycle)


def cycle_order(workload: str, seed: int, cycle: int, size: int) -> list[int]:
    """Seeded order in which cycle number `cycle` runs the deck."""
    order = list(range(size))
    _rng(workload, seed, "cycle", cycle).shuffle(order)
    return order


def write_sweep_configs(deck: list[dict], directory: Path) -> None:
    """Write each sweep operation's config file and point its argv at it."""
    directory.mkdir(parents=True, exist_ok=True)
    for op in deck:
        if op.get("cmd") == "sweep":
            path = directory / op["config_file"]
            path.write_text(json.dumps(op["config"], sort_keys=True) + "\n", encoding="utf-8")
            op["argv"][2] = str(path)
