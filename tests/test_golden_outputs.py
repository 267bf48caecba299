"""Golden outputs: a short fixed-flag ``boostvi run`` of each model must
reproduce the ``trace.json`` and ``summary.json`` stored under ``tests/data``
exactly, the per-iteration ``wallclock`` and ``config.out_dir`` aside.

A refactor keeps these files as they are.  A change that means to alter the
outputs regenerates them with
``PYTHONPATH=src python tests/test_golden_outputs.py`` and says in its change
log why they changed.
"""

import json
import os
import tempfile

import pytest

from boostvi.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
MODELS = ("bimodal", "logistic", "matrix_factorization")
FLAGS = ("--iters", "2", "--lmo-steps", "100", "--mc-samples", "8", "--seed", "1")


def _fixture_path(model: str) -> str:
    return os.path.join(DATA, f"golden_{model}.json")


def _run(model: str, out_dir: str) -> dict:
    """The stripped trace.json and summary.json of the fixed-flag run."""
    assert main(["run", "--model", model, *FLAGS, "--out", out_dir]) == 0
    with open(os.path.join(out_dir, "trace.json")) as fh:
        trace = json.load(fh)
    for run in trace["traces"]:
        for record in run["records"]:
            del record["wallclock"]
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    del summary["config"]["out_dir"]
    return {"trace": trace, "summary": summary}


def _canonical(outputs: dict) -> str:
    # text, not objects: a NaN entry compares equal to itself only as text
    return json.dumps(outputs, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("model", MODELS)
def test_outputs_match_golden(tmp_path, model):
    with open(_fixture_path(model)) as fh:
        expected = fh.read()
    assert _canonical(_run(model, str(tmp_path / "run"))) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for model in MODELS:
            outputs = _canonical(_run(model, os.path.join(scratch, model)))
            with open(_fixture_path(model), "w") as fh:
                fh.write(outputs)
