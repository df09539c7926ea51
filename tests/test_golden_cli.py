"""Byte-identical CLI stdout against a recorded golden corpus.

`golden/cli_corpus.json` holds one case per invocation: the argv, the exit
code and the exact stdout.  A sweep case also carries the config object; its
argv names the config as "{config}", and the test writes the object to a
temporary file and substitutes the path.  The corpus was recorded once and is
not regenerated to make a change pass: a difference in any byte is a
behaviour change.  Record it by running this file as a script.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from steerkit.cli import main

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.json"
CONFIG_SLOT = "{config}"


def _run(argv, config, directory):
    if config is not None:
        path = Path(directory) / "sweep.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = [str(path) if arg == CONFIG_SLOT else arg for arg in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.getvalue()


def pytest_generate_tests(metafunc):
    # read at collection, not import, so that running this file as a script
    # can record the corpus before it exists
    if "case" in metafunc.fixturenames:
        corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
        metafunc.parametrize("case", corpus, ids=[" ".join(c["argv"]) for c in corpus])


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


def test_stdout_matches_golden(case, config_dir):
    code, stdout = _run(case["argv"], case.get("config"), config_dir)
    assert code == case["exit"]
    assert stdout == case["stdout"]


def _cases():
    """(argv, sweep config or None) for every recorded invocation."""
    formats = ("--json", "--csv")
    variants = (
        [],
        ["--eta", "0.6"],
        ["--eta", "0.5", "--policy", "constant-guess", "--guess", "0.25"],
    )
    for n in (2, 3, 5, 9, 14):
        for criterion in ("two-obs", "three-obs"):
            for extra in variants + ((["--noise-p", "0.9"],) if n <= 9 else ()):
                for fmt in formats:
                    yield ["ghz-qubit", "--n", str(n), "--criterion", criterion, *extra, fmt], None
    for extra in variants + (["--noise-p", "0.95"],):
        for fmt in formats:
            yield ["ghz-qubit", "--n", "3", "--criterion", "genuine-sum", *extra, fmt], None
    for criterion in ("product", "fixed-combo", "genuine-sum"):
        for target in ("1", "3"):
            for fmt in formats:
                yield ["ghz-cv", "--r", "0.8", "--target", target, "--criterion", criterion, fmt], None
    for grid in ("0:1:0.1", "0:1:0.01"):
        for fmt in formats:
            yield ["eavesdrop", "--r", "1.5", "--eta-grid", grid, fmt], None
    for name in ("three-obs-eta", "two-obs-eta", "cv-genuine-r", "no-such-scenario"):
        for fmt in formats:
            yield ["threshold", "--scenario", name, fmt], None
    sweeps = [
        {"backend": "qubit", "scenario": "noise-genuine-sum", "parameter": "p",
         "grid": [0.0, 0.5, 0.9, 1.0]},
        {"backend": "cv", "scenario": "cv-genuine-sum", "parameter": "r",
         "grid": [0.0, 0.5, 1.0, 1.5], "seed": 7},
        {"backend": "cv", "scenario": "cv-fixed-combo", "parameter": "r",
         "grid": [0.0, 0.3, 0.9], "criterion": "cv-fixed-combo"},
        {"backend": "qubit", "scenario": "three-obs-eta", "parameter": "eta",
         "grid": [0.2, 0.3, 0.4, 1.0]},
        {"backend": "qubit", "scenario": "two-obs-eta", "parameter": "eta",
         "grid": [0.4, 0.5, 0.6, 1.0]},
        {"backend": "qubit", "scenario": "cv-genuine-sum", "parameter": "r",
         "grid": [0.5]},
    ]
    for config in sweeps:
        for fmt in formats:
            yield ["sweep", "--config", CONFIG_SLOT, fmt], config
    yield ["sweep", "--config", CONFIG_SLOT, "--seed", "5", "--json"], sweeps[0]


def record(path: Path = CORPUS) -> None:
    import tempfile

    corpus = []
    with tempfile.TemporaryDirectory() as directory:
        for argv, config in _cases():
            code, stdout = _run(argv, config, directory)
            case = {"argv": argv, "exit": code, "stdout": stdout}
            if config is not None:
                case["config"] = config
            corpus.append(case)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(corpus)} cases to {path}")


if __name__ == "__main__":
    record()
