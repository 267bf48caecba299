"""Golden outputs: a short fixed-flag ``boostvi run`` of each case must
reproduce the ``trace.json`` and ``summary.json`` stored under ``tests/data``
exactly, the per-iteration ``wallclock`` and ``config.out_dir`` aside, and
``boostvi plotdata`` on the bimodal fixed-step run must reproduce the stored
``plot_series.csv`` and ``plot_density.csv`` byte for byte.

A refactor keeps these files as they are.  A change that means to alter the
outputs regenerates them with
``PYTHONPATH=src python tests/test_golden_outputs.py``, which prints the path
of each fixture whose bytes changed, and says in its change log why they
changed.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from boostvi.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
# (model, variant, family, extra flags): each model on its default fixed step
# and Gaussian atoms, then the step solves, the line search and the corrective
# weight solve with its merge step, then the fixed step with Laplace atoms.
# The wide line search rejects every atom, so its mixture keeps one atom.
# The last three pin the loop's two ends: the initial fit alone, a gap stop
# after two iterates, and a tolerance that only the final certificate meets,
# which certifies without stopping.
CASES = (
    ("bimodal", None, None, ()),
    ("logistic", None, None, ()),
    ("matrix_factorization", None, None, ()),
    ("bimodal", "linesearch", None, ()),
    ("bimodal", "fullycorrective", None, ()),
    ("matrix_factorization", "fullycorrective", None, ()),
    ("matrix_factorization", "linesearch", None, ()),
    ("bimodal", None, "laplace", ()),
    ("bimodal", None, None, ("--iters", "0")),
    ("bimodal", None, None, ("--gap-tol", "3")),
    ("bimodal", "fullycorrective", None, ("--gap-tol", "1")),
)
FLAGS = ("--iters", "2", "--lmo-steps", "100", "--mc-samples", "8", "--seed", "1")
PLOT_FILES = ("plot_series.csv", "plot_density.csv")


def _name(model: str, variant, family, extra) -> str:
    # extra flags name themselves without dashes: ("--gap-tol", "3") is gaptol3
    flags = "".join(extra).replace("-", "") or None
    return "_".join(part for part in (model, variant, family, flags) if part is not None)


def _fixture_path(model: str, variant, family, extra) -> str:
    return os.path.join(DATA, f"golden_{_name(model, variant, family, extra)}.json")


def _run(model: str, variant, family, extra, out_dir: str) -> dict:
    """The stripped trace.json and summary.json of the fixed-flag run; the
    extra flags come last, so they override ``FLAGS``."""
    flags = [*FLAGS]
    if variant is not None:
        flags += ["--variant", variant]
    if family is not None:
        flags += ["--family", family]
    flags += extra
    assert main(["run", "--model", model, *flags, "--out", out_dir]) == 0
    with open(os.path.join(out_dir, "trace.json")) as fh:
        trace = json.load(fh)
    for run in trace["traces"]:
        for record in run["records"]:
            del record["wallclock"]
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    del summary["config"]["out_dir"]
    return {"trace": trace, "summary": summary}


def _plotdata(out_dir: str) -> dict:
    """The bytes of each of ``PLOT_FILES`` that plotdata writes for the
    bimodal fixed-step fixed-flag run."""
    _run("bimodal", None, None, (), out_dir)
    assert main(["plotdata", "--run", out_dir]) == 0
    outputs = {}
    for name in PLOT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            outputs[name] = fh.read()
    return outputs


def _plot_fixture_path(name: str) -> str:
    return os.path.join(DATA, f"golden_bimodal_{name}")


def _canonical(outputs: dict) -> str:
    # text, not objects: a NaN entry compares equal to itself only as text
    return json.dumps(outputs, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("model,variant,family,extra", CASES,
                         ids=[_name(*case) for case in CASES])
def test_outputs_match_golden(tmp_path, model, variant, family, extra):
    with open(_fixture_path(model, variant, family, extra)) as fh:
        expected = fh.read()
    assert _canonical(_run(model, variant, family, extra, str(tmp_path / "run"))) == expected


def test_plotdata_matches_golden(tmp_path):
    for name, output in _plotdata(str(tmp_path / "run")).items():
        with open(_plot_fixture_path(name), "rb") as fh:
            assert output == fh.read(), name


def _rewrite(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` and print the path, unless the file
    already holds exactly these bytes."""
    if os.path.exists(path):
        with open(path, "rb") as fh:
            if fh.read() == data:
                return
    with open(path, "wb") as fh:
        fh.write(data)
    print(os.path.relpath(path))


if __name__ == "__main__":
    # the runs' own progress lines would bury the list of changed fixtures
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        fixtures = {_fixture_path(*case): _canonical(
            _run(*case, os.path.join(scratch, _name(*case)))).encode() for case in CASES}
        fixtures.update((_plot_fixture_path(name), output) for name, output
                        in _plotdata(os.path.join(scratch, "plotdata")).items())
    for path, data in fixtures.items():
        _rewrite(path, data)
