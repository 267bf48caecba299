"""Smoke tests of the scripts under scripts/, run in process through their
``main(argv)``."""

import importlib.util
import json
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def _script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bimodal_figure_data_writes_every_variant(tmp_path, capsys):
    script = _script("bimodal_figure_data")
    assert script.main(["--out", str(tmp_path), "--iters", "0", "--seeds", "1"]) == 0
    table = capsys.readouterr().out.splitlines()
    variants = ("fixed_step", "line_search", "fully_corrective")
    assert table[0].split() == ["variant", "mean", "final", "KL", "std"]
    assert [row.split()[0] for row in table[1:]] == list(variants)
    for variant in variants:
        run_dir = tmp_path / variant
        assert {p.name for p in run_dir.iterdir()} == {"trace.json", "summary.json",
                                                       "density.csv"}
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["config"]["fw"]["variant"] == variant


@pytest.mark.parametrize("args", [["--iters", "-1"], ["--seeds", "0"]])
def test_bimodal_figure_data_rejects_arguments_before_fitting(tmp_path, monkeypatch, capsys,
                                                              args):
    script = _script("bimodal_figure_data")

    def no_fit(*args, **kwargs):
        raise AssertionError("fitted despite a rejected argument")

    monkeypatch.setattr(script, "run_experiment", no_fit)
    with pytest.raises(SystemExit) as exc:
        script.main(["--out", str(tmp_path / "runs")] + args)
    assert exc.value.code != 0
    out, err = capsys.readouterr()
    assert out == ""  # not even the table header
    assert args[0] in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("args", [["--iters", "2"], ["--iters", "7"], ["--seeds", "0"]])
def test_rate_probe_rejects_arguments_before_fitting(tmp_path, monkeypatch, capsys, args):
    # the slope fit reads the KL curve at t = 8, which a shorter run lacks
    script = _script("rate_probe")

    def no_fit(*args, **kwargs):
        raise AssertionError("fitted despite a rejected argument")

    monkeypatch.setattr(script, "run_boosting", no_fit)
    out = tmp_path / "curves.csv"
    with pytest.raises(SystemExit) as exc:
        script.main(["--out", str(out)] + args)
    assert exc.value.code != 0
    assert args[0] in capsys.readouterr().err
    assert not out.exists()
