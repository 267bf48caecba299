import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict, replace

import pytest

from boostvi import harness
from boostvi.cli import EXIT_CONFIG, EXIT_OK, CliError, _experiment_config, build_parser, main
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

    def test_bare_run_records_the_dataclass_defaults(self, tmp_path, monkeypatch):
        # the CLI passes on only the keys it is given; every default lives in
        # its dataclass.  The fit itself is cut short: summary.json records
        # the config the CLI built, not the one the stub fits.
        original = harness.run_boosting
        monkeypatch.setattr(harness, "run_boosting", lambda model, fw, progress=None: original(
            model, replace(fw, max_iters=1, lmo=replace(fw.lmo, n_steps=50)), progress=progress))
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

    def test_huge_lambda_below_the_bound_accepted(self, tmp_path):
        code = run_cli("run", "--model", "bimodal", "--lambda", "const:1e150",
                       "--out", str(tmp_path / "o"), *FAST)
        assert code == EXIT_OK
        assert (tmp_path / "o" / "summary.json").exists()

    def test_bad_delta_rejected(self, tmp_path, capsys):
        code = run_cli("run", "--model", "bimodal", "--delta", "1.5",
                       "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("model, flag, value, field", [
        ("bimodal", "--gap-tol", "nan", "gap_tolerance"),
        ("bimodal", "--gap-tol", "-0.5", "gap_tolerance"),
        ("bimodal", "--seed", "-1", "seed"),
        ("logistic", "--seed", "-1", "seed"),
        ("bimodal", "--lambda", "const:inf", "lambda"),
        # Adam squares lambda: a constant above sqrt(float max) overflows mid-fit
        ("bimodal", "--lambda", "const:1e200", "lambda"),
    ])
    def test_bad_fw_value_rejected(self, tmp_path, capsys, model, flag, value, field):
        code = run_cli("run", "--model", model, flag, value, "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert field in err and "model_params" not in err
        assert "t=0" not in out
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, flags, key", [
        ({"out": 5}, [], "'out'"),
        ({"out": ["a"]}, [], "'out'"),
        ({}, ["--out", ""], "'out'"),
        ({}, ["--out", "taken.txt"], "'out'"),  # an existing file
        # open(0) would read the CSV from standard input
        ({"model": "logistic", "data_path": 0}, ["--out", "o"], "'data_path'"),
        ({"model": "logistic"}, ["--data", "", "--out", "o"], "'data_path'"),
        # a path under a file: makedirs would fail only after the fit.  The
        # rule also rejects an unwritable directory, which is not tested here
        # because root ignores file modes.
        ({}, ["--out", "taken.txt/sub"], "'out'"),
        ({"out": "taken.txt/sub/deeper"}, [], "'out'"),
    ])
    def test_bad_path_value_rejected(self, tmp_path, monkeypatch, capsys, config, flags, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken.txt").write_text("")
        (tmp_path / "cfg.json").write_text(json.dumps({"model": "bimodal", **config}))
        code = run_cli("run", "--config", "cfg.json", *flags, *FAST)
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert f"config key {key}" in err
        assert "t=0" not in out
        assert not (tmp_path / "o").exists()
        assert (tmp_path / "taken.txt").read_text() == ""

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_config_file_rejected(self, tmp_path, capsys, kind):
        cfg = tmp_path / "cfg.json"
        if kind == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(b'{"model": "bimodal", "family": "\xff"}')
        code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"), *FAST)
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        message = "Is a directory" if kind == "directory" else "can't decode byte 0xff"
        assert f"{cfg}: " in err and message in err and "runtime error" not in err
        assert "t=0" not in out
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, key, message", [
        ({"model": ["bimodal"]}, "model", "value must be a string, got ['bimodal']"),
        ({"model_params": 5}, "model_params", "value must be a JSON object, got 5"),
        ({"model_params": "ab"}, "model_params", "value must be a JSON object, got 'ab'"),
        ({"model_params": [["mu", [0, 1]]]}, "model_params",
         "value must be a JSON object, got [['mu', [0, 1]]]"),
        ({"family": 3}, "family", "3 is not a valid Family"),
    ], ids=["model-list", "model_params-number", "model_params-string", "model_params-pairs",
            "family-number"])
    def test_value_of_the_wrong_json_type_names_its_key(self, tmp_path, capsys, config, key,
                                                        message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"), *FAST)
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert f"error: config key {key!r}: {message}" in err
        assert "t=0" not in out
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, key", [
        ({"delta": True}, "delta"),
        ({"gap_tol": False}, "gap_tol"),
        ({"split_fraction": "0.5"}, "split_fraction"),
        ({"delta": "0.5"}, "delta"),
    ])
    def test_non_real_number_rejected(self, tmp_path, capsys, config, key):
        # float() would read a bool as 0 or 1 and parse a string
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "bimodal", **config}))
        code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"), *FAST)
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert f"config key {key!r}: value must be a real number, got {config[key]!r}" in err
        assert "t=0" not in out
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, key, text", [
        ("--iters", "iters", "2.0"),
        ("--iters", "iters", "2.5"),
        ("--mc-samples", "mc_samples", "8.0"),
        ("--lmo-steps", "lmo_steps", "1e2"),
        ("--seed", "seed", "3.0"),
        ("--seed", "seed", "-1"),
        ("--n-seeds", "n_seeds", "2.0"),
        ("--n-seeds", "n_seeds", "0.5"),
        ("--delta", "delta", "1"),
        ("--gap-tol", "gap_tol", "0"),
    ])
    def test_flag_reads_as_its_config_key(self, tmp_path, flag, key, text):
        # a numeric flag is read into the number its JSON text gives, then
        # converted as the config key is: both give one config or one error
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: json.loads(text)}))
        outcomes = []
        for argv in (["run", flag, text], ["run", "--config", str(cfg)]):
            try:
                outcomes.append(_experiment_config(build_parser().parse_args(argv)))
            except CliError as e:
                outcomes.append(str(e))
        assert outcomes[0] == outcomes[1]

    def test_whole_float_count_flag_fits(self, tmp_path):
        code = run_cli("run", "--model", "bimodal", "--out", str(tmp_path / "o"),
                       "--lmo-steps", "150", "--mc-samples", "8", "--iters", "2.0")
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["config"]["fw"]["max_iters"] == 2

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

    @pytest.mark.parametrize("gamma", ["0", "-1", "nan", "2"])
    def test_gamma_outside_unit_interval_rejected(self, capsys, gamma):
        assert run_cli("probe", "--probe", "curvature", "--gamma", gamma) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--gamma must lie in (0, 1]" in err and "runtime error" not in err

    @pytest.mark.parametrize("probe", [(), ("--probe", "all"), ("--probe", "entropy"),
                                       ("--probe", "gap")],
                             ids=["default", "all", "entropy", "gap"])
    def test_gamma_without_curvature_probe_rejected(self, capsys, probe):
        # the flag would be ignored: the probe suite runs without it
        assert run_cli("probe", *probe, "--gamma", "0.5") == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--gamma applies to --probe curvature only" in captured.err
        assert "PASS" not in captured.out

    def test_seed_read_as_a_number(self, capsys):
        # as `run --seed 2.0` does, a whole float reads as its int
        assert run_cli("probe", "--probe", "gap", "--seed", "2") == EXIT_OK
        as_int = capsys.readouterr().out
        assert run_cli("probe", "--probe", "gap", "--seed", "2.0") == EXIT_OK
        assert capsys.readouterr().out == as_int and "PASS" in as_int

    @pytest.mark.parametrize("seed", ["2.5", "-1", "nan"])
    def test_bad_seed_rejected(self, capsys, seed):
        assert run_cli("probe", "--probe", "gap", "--seed", seed) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "seed" in err and "runtime error" not in err

    @pytest.mark.parametrize("probe", ["entropy", "curvature"])
    def test_seed_without_gap_probe_rejected(self, capsys, probe):
        # the flag would be ignored: these probes draw no random numbers
        assert run_cli("probe", "--probe", probe, "--seed", "5") == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"--seed applies to --probe gap or all only, not --probe {probe}" in captured.err
        assert "PASS" not in captured.out


class TestPlotData:
    @pytest.fixture(scope="class")
    def bimodal_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("plotdata") / "run"
        assert run_cli("run", "--model", "bimodal", "--variant", "fixed",
                       "--seed", "1", "--out", str(out), *FAST) == EXIT_OK
        return out

    @pytest.mark.parametrize("out", ["taken.txt", "taken.txt/sub"])
    def test_out_at_or_under_a_file_rejected(self, bimodal_run, tmp_path, monkeypatch,
                                             capsys, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken.txt").write_text("")
        assert run_cli("plotdata", "--run", str(bimodal_run), "--out", out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--out" in err and "not a writable directory" in err and "runtime error" not in err
        assert (tmp_path / "taken.txt").read_text() == ""

    @pytest.mark.parametrize("name, edit, message", [
        ("trace.json", lambda text: "not json", "Expecting value"),
        ("trace.json", lambda text: "{}", "missing entry 'traces'"),
        ("trace.json", lambda text: text.replace('"gamma"', '"step"', 1), "missing entry 'gamma'"),
        ("trace.json", lambda text: json.dumps({"traces": []}), "list index out of range"),
    ], ids=["not-json", "empty-object", "record-without-gamma", "no-traces"])
    def test_malformed_run_file_is_config_error(self, bimodal_run, tmp_path, capsys,
                                                name, edit, message):
        run = tmp_path / "run"
        shutil.copytree(bimodal_run, run)
        (run / name).write_text(edit((run / name).read_text()))
        assert run_cli("plotdata", "--run", str(run)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{run / name}: {message}" in err and "runtime error" not in err
        assert not (run / "plot_series.csv").exists()
        assert not (run / "plot_density.csv").exists()

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
        out = tmp_path / "run"
        assert run_cli("run", "--model", "bimodal", "--variant", "fullycorrective",
                       "--lambda", "const:0.2", "--delta", "0.5",
                       "--seed", "3", "--out", str(out), *FAST) == EXIT_OK
        assert run_cli("plotdata", "--run", str(out)) == EXIT_OK
        assert (out / "plot_density.csv").read_bytes() == (out / "density.csv").read_bytes()

    def test_summary_is_not_read(self, bimodal_run, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(bimodal_run, run)
        (run / "summary.json").unlink()
        assert run_cli("plotdata", "--run", str(run)) == EXIT_OK
        assert (run / "plot_series.csv").exists()
        assert (run / "plot_density.csv").read_bytes() == (run / "density.csv").read_bytes()

    def test_run_without_density_gets_series_only(self, tmp_path):
        run, out = tmp_path / "run", tmp_path / "plots"
        assert run_cli("run", "--model", "logistic", "--seed", "1", "--out", str(run),
                       *FAST) == EXIT_OK
        assert run_cli("plotdata", "--run", str(run), "--out", str(out)) == EXIT_OK
        assert sorted(os.listdir(out)) == ["plot_series.csv"]

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

    def test_data_file_for_bimodal(self, tmp_path, capsys):
        # the bimodal target reads no data, so a data file would be ignored
        code = self._run(tmp_path, "--model", "bimodal", "--data", str(tmp_path / "absent.csv"))
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert "data_path (--data)" in err and "bimodal" in err
        assert "t=0" not in out

    def test_synthetic_data_keys_with_data_file(self, tmp_path, capsys):
        # a data file replaces the synthetic data set these keys would shape
        data = tmp_path / "d.csv"
        data.write_text("x1,x2,y\n" + "".join(f"{0.1 * k},{k % 3},{k % 2}\n" for k in range(20)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "logistic",
                                   "model_params": {"n": 7, "n_features": 9, "margin": 3.0}}))
        code = self._run(tmp_path, "--config", str(cfg), "--data", str(data))
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert "['margin', 'n', 'n_features']" in err and "data_path (--data)" in err
        assert "t=0" not in out

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
        # the bimodal target's parameters follow the atom and mixture rules
        ("bimodal", {"mu": [float("nan"), 1.0]}, "mu"),
        ("bimodal", {"sigma": [float("inf"), 0.5]}, "sigma"),
        ("bimodal", {"sigma": [1e-4, 0.5]}, "sigma"),
        ("bimodal", {"mu": [-1e9, 1.0]}, "mu"),
        ("bimodal", {"mu": [-1.0, 0.0, 1.0]}, "mu"),
        ("bimodal", {"pi": [0.2, 0.3, 0.5]}, "pi"),
        ("bimodal", {"mu": [[-1.0, 1.0]]}, "mu"),
        # float() would read a bool as 1.0 and parse a string
        ("logistic", {"margin": True}, "margin"),
        ("matrix_factorization", {"noise": "0.1"}, "noise"),
    ])
    def test_bad_model_params_value(self, tmp_path, capsys, model, params, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model, "model_params": params}))
        code = self._run(tmp_path, "--config", str(cfg))
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert key in err and "runtime error" not in err
        assert "t=0" not in out

    @pytest.mark.parametrize("model, params, message", [
        ("logistic", {"n": 0}, "invalid model_params for 'logistic': n must be >= 1"),
        ("logistic", {"n_features": 0},
         "invalid model_params for 'logistic': n_features must be >= 1"),
        ("logistic", {"margin": float("nan")},
         "invalid model_params for 'logistic': margin must be finite"),
        ("matrix_factorization", {"rows": 0}, "rows must be >= 1"),
        ("matrix_factorization", {"cols": -2}, "cols must be >= 1"),
        ("matrix_factorization", {"rank": 0}, "rank must be >= 1"),
        ("matrix_factorization", {"noise": -1}, "noise must be finite and >= 0"),
        ("matrix_factorization", {"noise": float("inf")}, "noise must be finite and >= 0"),
        ("matrix_factorization", {"mask_fraction": 0}, "mask_fraction must lie in (0, 1]"),
        ("matrix_factorization", {"mask_fraction": -1}, "mask_fraction must lie in (0, 1]"),
        ("matrix_factorization", {"mask_fraction": 2}, "mask_fraction must lie in (0, 1]"),
        # the KL oracle renormalizes the target on its grid [-12, 12]: off it,
        # or narrower than its spacing, the oracle's KL is meaningless
        ("bimodal", {"mu": [-20.0, 20.0]}, "model_params 'mu' and 'sigma' give the target mass"),
        ("bimodal", {"mu": [-1.0, 11.0]}, "model_params 'mu' and 'sigma' give the target mass"),
        ("bimodal", {"sigma": [0.002, 0.5]}, "model_params 'mu' and 'sigma' give the target mass"),
    ])
    def test_out_of_range_model_params_value(self, tmp_path, capsys, model, params, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model, "model_params": params}))
        code = self._run(tmp_path, "--config", str(cfg))
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert message in err and "runtime error" not in err
        if model == "bimodal":
            assert ("every component must lie inside [-12, 12] and span several of its "
                    "0.006 steps") in err
        assert "t=0" not in out
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("model, params, key", [
        ("logistic", {"model_params": {"n": 40.9, "n_features": 2}}, "n"),
        ("logistic", {"model_params": {"n": 40, "n_features": 2.7}}, "n_features"),
        ("matrix_factorization", {"model_params": {"rows": 8.5}}, "rows"),
        ("matrix_factorization", {"model_params": {"cols": 6.5}}, "cols"),
        ("matrix_factorization", {"model_params": {"rank": 1.5}}, "rank"),
        ("matrix_factorization", {"model_params": {"latent_dim": 2.5}}, "latent_dim"),
        ("logistic", {"model_params": {"n": True}}, "n"),
        # the config's own counts follow the same rule
        ("bimodal", {"iters": 1.9}, "iters"),
        ("bimodal", {"lmo_steps": 50.7}, "lmo_steps"),
        ("bimodal", {"mc_samples": 8.5}, "mc_samples"),
        ("bimodal", {"seed": True}, "seed"),
        ("bimodal", {"n_seeds": 1.5}, "n_seeds"),
    ])
    def test_fractional_count(self, tmp_path, capsys, model, params, key):
        # int() would truncate the count, or read a bool as 0 or 1, and fit
        # another model than the one asked for
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model, **params}))
        # no FAST flags: they would override the config's counts
        code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        if "model_params" in params:
            value = params["model_params"][key]
            expected = f"model_params {key!r} must be a whole number, got {value!r}"
        else:
            expected = f"config key {key!r}: value must be a whole number, got {params[key]!r}"
        assert expected in err
        assert "t=0" not in out
        assert not (tmp_path / "o").exists()

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


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs about half a second and 45 MB at import, and SciPy
    # itself about 0.3 s and 25 MB; nothing in the package needs either
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    check = ("import sys, boostvi.cli; print('scipy.stats' in sys.modules, "
             "sorted(m for m in sys.modules if m.startswith('scipy')))")
    res = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False []"


def test_logistic_run_leaves_numpy_ma_out(tmp_path):
    # numpy.ma costs a logistic fit process about 1.3 MB of peak RSS, and
    # np.unique, which imports it, is not needed for a one-class check
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    check = ("import sys; from boostvi.cli import main; "
             "code = main(['run', '--model', 'logistic', '--iters', '1', '--lmo-steps', '20', "
             f"'--mc-samples', '8', '--seed', '1', '--out', {str(tmp_path / 'o')!r}]); "
             "print(code, 'numpy.ma' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == "0 False"
