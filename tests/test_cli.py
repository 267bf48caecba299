import csv
import json
from dataclasses import asdict

import numpy as np
import pytest

from boostvi.cli import EXIT_CONFIG, EXIT_OK, main
from boostvi.harness import ExperimentConfig

FAST = ["--lmo-steps", "150", "--mc-samples", "8", "--iters", "2"]


def run_cli(*argv):
    return main(list(argv))


def strip_wallclock(payload):
    for trace in payload["traces"]:
        for rec in trace["records"]:
            rec.pop("wallclock", None)
    return payload


class TestRun:
    def test_bimodal_run_writes_three_files(self, tmp_path):
        out = tmp_path / "a"
        code = run_cli("run", "--model", "bimodal", "--variant", "fixed",
                       "--seed", "7", "--out", str(out), *FAST)
        assert code == EXIT_OK
        for name in ("trace.json", "summary.json", "density.csv"):
            assert (out / name).exists(), name

    def test_progress_lines(self, tmp_path, capsys):
        out = tmp_path / "a"
        assert run_cli("run", "--model", "bimodal", "--variant", "linesearch",
                       "--seed", "3", "--out", str(out), *FAST) == EXIT_OK
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("t=")]
        records = json.loads((out / "trace.json").read_text())["traces"][0]["records"]
        assert lines == [
            f"t={r['t']} gamma={r['gamma']:.3f} train_ll={r['train_ll']:.4f}" for r in records
        ]

    def test_bogus_variant_is_config_error(self, tmp_path, capsys):
        code = run_cli("run", "--model", "bimodal", "--variant", "bogus",
                       "--out", str(tmp_path / "x"))
        assert code == EXIT_CONFIG
        assert "variant" in capsys.readouterr().err

    def test_missing_out_is_config_error(self, capsys):
        code = run_cli("run", "--model", "bimodal")
        assert code == EXIT_CONFIG
        assert "--out" in capsys.readouterr().err

    def test_rerun_is_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli("run", "--model", "bimodal", "--variant", "linesearch",
                           "--seed", "3", "--out", str(out), *FAST) == EXIT_OK
        a = strip_wallclock(json.loads((out_a / "trace.json").read_text()))
        b = strip_wallclock(json.loads((out_b / "trace.json").read_text()))
        assert a == b

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "bimodal", "variant": "fixed",
                                   "iters": 1, "mc_samples": 8, "lmo_steps": 100}))
        out = tmp_path / "run"
        code = run_cli("run", "--config", str(cfg), "--seed", "2", "--out", str(out))
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["fw"]["seed"] == 2

    def test_bare_run_records_the_dataclass_defaults(self, tmp_path):
        # the CLI passes on only the keys it is given; every default lives in
        # its dataclass
        out = str(tmp_path / "run")
        assert run_cli("run", "--out", out) == EXIT_OK
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["config"] == json.loads(json.dumps(asdict(ExperimentConfig(out_dir=out))))

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "bimodal", "warp_factor": 9}))
        code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert "warp_factor" in capsys.readouterr().err

    def test_bad_lambda_rejected(self, tmp_path, capsys):
        code = run_cli("run", "--model", "bimodal", "--lambda", "cubic",
                       "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert "lambda" in capsys.readouterr().err

    def test_bad_delta_rejected(self, tmp_path, capsys):
        code = run_cli("run", "--model", "bimodal", "--delta", "1.5",
                       "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_nonpositive_lmo_steps_rejected(self, tmp_path, capsys, steps):
        code = run_cli("run", "--model", "bimodal", "--lmo-steps", steps,
                       "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert "n_steps" in capsys.readouterr().err


class TestProbe:
    def test_entropy_probe_passes(self, capsys):
        assert run_cli("probe", "--probe", "entropy") == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_curvature_probe_passes(self):
        assert run_cli("probe", "--probe", "curvature") == EXIT_OK

    def test_curvature_endpoint_prints_values(self, capsys):
        assert run_cli("probe", "--probe", "curvature", "--gamma", "1.0") == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 9
        # the identical pair N(1,1)/N(1,1) gives 2 KL = 0
        identical = [l for l in out if "s=N(+1.0,1.0) q=N(+1.0,1.0)" in l]
        assert identical and float(identical[0].split("=")[-1]) == pytest.approx(0.0, abs=1e-9)


class TestPlotData:
    def test_plotdata_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--model", "bimodal", "--variant", "fixed",
                       "--seed", "1", "--out", str(out), *FAST) == EXIT_OK
        assert run_cli("plotdata", "--run", str(out)) == EXIT_OK
        with open(out / "plot_density.csv") as fh:
            header = next(csv.reader(fh))
        n_mixtures = len(json.loads((out / "trace.json").read_text())["traces"][0]["mixtures"])
        assert header[:2] == ["z", "target"]
        assert len(header) == 2 + n_mixtures

    def test_plot_density_matches_run_density(self, tmp_path):
        # plotdata rebuilds the mixtures from trace.json, where the weights
        # are renormalized on reading, so the two files agree to rounding
        out = tmp_path / "run"
        assert run_cli("run", "--model", "bimodal", "--variant", "fullycorrective",
                       "--lambda", "const:0.2", "--delta", "0.5",
                       "--seed", "3", "--out", str(out), *FAST) == EXIT_OK
        assert run_cli("plotdata", "--run", str(out)) == EXIT_OK
        with open(out / "density.csv") as fh:
            run_rows = list(csv.reader(fh))
        with open(out / "plot_density.csv") as fh:
            plot_rows = list(csv.reader(fh))
        assert run_rows[0] == plot_rows[0]
        assert len(run_rows[0]) == 2 + 3  # z, target and q_0 .. q_2
        np.testing.assert_allclose(np.array(plot_rows[1:], dtype=float),
                                   np.array(run_rows[1:], dtype=float), rtol=1e-12, atol=0)

    def test_gap_series_nonnegative_within_noise(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--model", "bimodal", "--variant", "fixed",
                       "--seed", "5", "--out", str(out), *FAST) == EXIT_OK
        assert run_cli("plotdata", "--run", str(out)) == EXIT_OK
        with open(out / "plot_series.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            if row["gap"] == "":
                continue
            assert float(row["gap"]) + 4 * float(row["gap_stderr"]) >= 0.0

    def test_empty_directory_is_config_error(self, tmp_path, capsys):
        code = run_cli("plotdata", "--run", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "trace.json" in capsys.readouterr().err

    def test_non_finite_atom_in_trace_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("run", "--model", "bimodal", "--variant", "fixed",
                       "--seed", "1", "--out", str(out), *FAST) == EXIT_OK
        payload = json.loads((out / "trace.json").read_text())
        payload["traces"][0]["mixtures"][1]["atoms"][0]["loc"] = [float("nan")]
        (out / "trace.json").write_text(json.dumps(payload))
        assert run_cli("plotdata", "--run", str(out)) == EXIT_CONFIG
        assert "param_box" in capsys.readouterr().err


class TestBadInputData:
    """Bad input data is a configuration error (exit 1), caught before any fit."""

    def _run(self, tmp_path, *argv):
        return run_cli("run", *argv, "--out", str(tmp_path / "o"), *FAST)

    def test_non_finite_cell(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("i,j,r\n0,0,1.0\n1,1,nan\n1,0,0.5\n0,1,2.0\n")
        code = self._run(tmp_path, "--model", "matrix_factorization", "--data", str(data))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "non-finite cell at row 3, column 3" in err
        assert "runtime error" not in err

    def test_missing_data_file(self, tmp_path, capsys):
        code = self._run(tmp_path, "--model", "logistic", "--data", str(tmp_path / "absent.csv"))
        assert code == EXIT_CONFIG
        assert "absent.csv: cannot read the file" in capsys.readouterr().err

    def test_split_leaving_test_set_empty(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "logistic", "split_fraction": 0.999}))
        code = self._run(tmp_path, "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert "leaves the test set empty" in capsys.readouterr().err

    def test_non_binary_labels(self, tmp_path, capsys):
        data = tmp_path / "labels.csv"
        data.write_text("x1,y\n" + "".join(f"{0.1 * k},{k % 3}\n" for k in range(10)))
        code = self._run(tmp_path, "--model", "logistic", "--data", str(data))
        assert code == EXIT_CONFIG
        assert "binary" in capsys.readouterr().err

    def test_unknown_model_params_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "logistic", "model_params": {"n_feature": 3}}))
        code = self._run(tmp_path, "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert "n_feature" in capsys.readouterr().err

    @pytest.mark.parametrize("model, params, key", [
        ("bimodal", {"sigma": [-0.5, 0.5]}, "sigma"),
        ("matrix_factorization", {"latent_dim": 0}, "latent_dim"),
        ("logistic", {"flip_fraction": 0.7}, "flip_fraction"),
    ])
    def test_bad_model_params_value(self, tmp_path, capsys, model, params, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model, "model_params": params}))
        code = self._run(tmp_path, "--config", str(cfg))
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert key in err and "runtime error" not in err
        assert "t=0" not in out

    def test_one_class_test_split(self, tmp_path, capsys):
        # one positive row of ten; seed 1 leaves it out of the 3-row test split
        data = tmp_path / "onepos.csv"
        data.write_text("x1,x2,y\n" + "".join(
            f"{0.1 * k:.1f},{(7 * k) % 5 * 0.3:.1f},{int(k == 4)}\n" for k in range(10)))
        code = self._run(tmp_path, "--model", "logistic", "--data", str(data), "--seed", "1")
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert "t=0" not in out
        assert "only label 0" in err
        assert not (tmp_path / "o").exists()
