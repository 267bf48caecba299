import csv
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostvi import harness
from boostvi import (
    DataError,
    Dataset,
    ExperimentConfig,
    FwConfig,
    LmoConfig,
    Variant,
    load_csv,
    logistic_regression_model,
    make_lowrank_matrix,
    make_separable_classification,
    matrix_factorization_model,
    run_experiment,
    split,
    synthetic_bimodal_target,
)


class TestLoadCsv:
    def test_toy_classification_file(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("x1,x2,y\n0.5,1.5,1\n-0.5,0.25,0\n")
        data = load_csv(str(p))
        assert data.n == 2
        assert data.features.shape == (2, 2)
        np.testing.assert_array_equal(data.labels, [1.0, 0.0])

    def test_blank_cell_names_position(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x1,y\n0.5,1\n,0\n")
        with pytest.raises(ValueError, match="row 3, column 1"):
            load_csv(str(p))

    def test_missing_file(self):
        with pytest.raises(DataError, match=r"never\.csv: cannot read the file"):
            load_csv("/nonexistent/never.csv")

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("x1,x2,y\n0.5,1.5,1\n-0.5,0\n")
        with pytest.raises(DataError, match=r"ragged\.csv: row 3 has 2 cells, row 2 has 3"):
            load_csv(str(p))

    def test_non_binary_label_is_data_error(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("x1,y\n0.5,1\n-0.5,2\n")
        with pytest.raises(DataError, match="binary"):
            logistic_regression_model(load_csv(str(p)))

    def test_matrix_schema(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("i,j,r\n0,0,1.5\n1,2,-0.5\n")
        data = load_csv(str(p), schema="matrix")
        assert data.labels.shape == (2, 3)
        assert data.mask.sum() == 2
        assert data.labels[1, 2] == -0.5

    def test_non_integer_matrix_index_rejected(self, tmp_path):
        p = tmp_path / "frac.csv"
        p.write_text("i,j,r\n0,0,1.0\n1.5,2,-0.5\n")
        with pytest.raises(ValueError, match=r"frac\.csv: non-integer matrix index at row 3"):
            load_csv(str(p), schema="matrix")

    def test_repeated_matrix_cell_rejected(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("i,j,r\n0,0,3.0\n1,1,2.0\n0,0,4.0\n")
        with pytest.raises(ValueError, match=r"dup\.csv: repeated cell \(0, 0\) at row 4"):
            load_csv(str(p), schema="matrix")

    @pytest.mark.parametrize("rating", ["nan", "inf", "-inf"])
    def test_non_finite_rating_rejected(self, tmp_path, rating):
        p = tmp_path / "nan.csv"
        p.write_text(f"i,j,r\n0,0,1.0\n1,2,{rating}\n")
        with pytest.raises(ValueError, match=r"nan\.csv: non-finite cell at row 3, column 3"):
            load_csv(str(p), schema="matrix")

    def test_roundtrip_classification(self, tmp_path):
        # full-precision cells, as repr(float) writes them, read back exactly
        features = np.array([[0.12573022031, -0.13210486329, 0.64042265413],
                             [0.10490011898, -0.53566937163, 0.36159505490],
                             [1.30400005383, 0.94708096445, -0.70373524049]])
        labels = np.array([1.0, 0.0, 1.0])
        p = tmp_path / "rt.csv"
        p.write_text("x1,x2,x3,y\n"
                     "0.12573022031,-0.13210486329,0.64042265413,1.0\n"
                     "0.10490011898,-0.53566937163,0.3615950549,0.0\n"
                     "1.30400005383,0.94708096445,-0.70373524049,1.0\n")
        back = load_csv(str(p))
        np.testing.assert_allclose(back.features, features, atol=1e-12)
        np.testing.assert_allclose(back.labels, labels, atol=1e-12)

    def test_roundtrip_matrix(self, tmp_path):
        # a 4 x 3 matrix with cells (1, 1) and (3, 0) unobserved
        mask = np.ones((4, 3), dtype=bool)
        mask[1, 1] = mask[3, 0] = False
        values = np.array([-1.2373847013, 0.46512354981, 2.0871306547,
                           0.09015427654, -0.31426895129, 1.1102230246e-16,
                           -2.7182818285, 3.1415926536, 0.5, -0.25])
        p = tmp_path / "rtm.csv"
        p.write_text("i,j,r\n"
                     "0,0,-1.2373847013\n0,1,0.46512354981\n0,2,2.0871306547\n"
                     "1,0,0.09015427654\n1,2,-0.31426895129\n"
                     "2,0,1.1102230246e-16\n2,1,-2.7182818285\n2,2,3.1415926536\n"
                     "3,1,0.5\n3,2,-0.25\n")
        back = load_csv(str(p), schema="matrix")
        np.testing.assert_array_equal(back.mask, mask)
        np.testing.assert_allclose(back.labels[back.mask], values, atol=1e-12)


class TestSplit:
    def _data(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return Dataset(features=rng.standard_normal((n, 2)),
                       labels=(rng.uniform(size=n) < 0.5).astype(float))

    def test_sizes(self):
        train, test = split(self._data(10), 0.7, seed=0)
        assert (train.n, test.n) == (7, 3)

    def test_same_seed_same_partition(self):
        data = self._data(20)
        a_train, _ = split(data, 0.5, seed=3)
        b_train, _ = split(data, 0.5, seed=3)
        np.testing.assert_array_equal(a_train.features, b_train.features)

    def test_disjoint_and_covering(self):
        data = self._data(101)
        train, test = split(data, 0.7, seed=9)
        combined = np.vstack([train.features, test.features])
        assert combined.shape[0] == 101
        # every original row appears exactly once
        orig = {tuple(r) for r in data.features}
        got = [tuple(r) for r in combined]
        assert set(got) == orig and len(got) == len(orig)

    def test_matrix_split_masks_disjoint(self):
        data = make_lowrank_matrix(6, 5, 2, 0.1, 0.9, seed=2)
        train, test = split(data, 0.5, seed=4)
        assert not np.any(train.mask & test.mask)
        np.testing.assert_array_equal(train.mask | test.mask, data.mask)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            split(self._data(10), 1.0, seed=0)

    @given(frac=st.floats(min_value=0.1, max_value=0.9),
           n=st.integers(min_value=4, max_value=60))
    @settings(max_examples=30, deadline=None)
    def test_sizes_add_up(self, frac, n):
        n_train = int(round(frac * n))
        if not 0 < n_train < n:  # e.g. 0.1 of 4 rows: an empty side is rejected
            with pytest.raises(ValueError, match="set empty"):
                split(self._data(n), frac, seed=1)
            return
        train, test = split(self._data(n), frac, seed=1)
        assert train.n + test.n == n
        assert train.n == n_train

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match=r"0\.999 of 400 rows leaves the test set empty"):
            split(self._data(400), 0.999, seed=0)
        with pytest.raises(ValueError, match=r"0\.001 of 400 rows leaves the train set empty"):
            split(self._data(400), 0.001, seed=0)
        cells = make_lowrank_matrix(4, 3, 2, 0.1, 1.0, seed=0)
        with pytest.raises(ValueError, match="0.99 of 12 observed cells leaves the test set empty"):
            split(cells, 0.99, seed=0)


class TestSyntheticData:
    def test_separable_data_is_separable(self):
        data = make_separable_classification(200, 4, seed=0, margin=1.0)
        assert set(np.unique(data.labels)) <= {0.0, 1.0}

    def test_flip_fraction_flips_labels(self):
        clean = make_separable_classification(100, 3, seed=5)
        noisy = make_separable_classification(100, 3, seed=5, flip_fraction=0.2)
        assert int(np.sum(clean.labels != noisy.labels)) == 20

    def test_lowrank_mask_fraction(self):
        data = make_lowrank_matrix(50, 40, 2, 0.1, 0.5, seed=3)
        frac = data.mask.mean()
        assert 0.4 < frac < 0.6


class TestModelParamsDefaults:
    """An empty ``model_params`` builds what explicit calls with the
    defaults of earlier versions build: each default now lives in the
    signature of the function that takes its key."""

    SEED = 3

    def _log_joints(self, model, dim):
        z = 0.3 * np.random.default_rng(0).standard_normal((16, dim))
        return model.log_joint_batch(z), model.grad_log_joint_batch(z)[1]

    @pytest.mark.parametrize("model", ["logistic", "matrix_factorization"])
    def test_empty_model_params(self, model):
        cfg = ExperimentConfig(model=model)
        if model == "logistic":
            data = make_separable_classification(400, 5, 1.0, 0.0, seed=(self.SEED, 9001))
        else:
            data = make_lowrank_matrix(20, 15, 2, 0.1, 1.0, seed=(self.SEED, 9002))
        built = harness._build_dataset(cfg, self.SEED)
        for name in ("features", "labels", "mask"):
            np.testing.assert_array_equal(getattr(built, name), getattr(data, name))
        train, test = split(data, 0.7, seed=(self.SEED, 777))
        expected = (logistic_regression_model(train) if model == "logistic"
                    else matrix_factorization_model(train, 2))
        got, got_test = harness._build_model(cfg, self.SEED)
        assert got.dim == expected.dim
        for a, b in zip(self._log_joints(got, got.dim), self._log_joints(expected, got.dim)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(got_test.labels, test.labels)

    def test_empty_bimodal_params(self):
        got, test = harness._build_model(ExperimentConfig(model="bimodal"), self.SEED)
        expected = synthetic_bimodal_target((-1.0, 1.0), (0.5, 0.5), (0.4, 0.6))
        assert test is None
        for a, b in zip(self._log_joints(got, 1), self._log_joints(expected, 1)):
            np.testing.assert_array_equal(a, b)


class TestRunExperiment:
    def _fast_fw(self, **kw):
        return FwConfig(variant=Variant.FIXED_STEP, max_iters=1, seed=0,
                        gap_samples=256, lmo=LmoConfig(n_steps=150, n_mc_samples=8),
                        **kw)

    def test_single_seed_std_is_zero(self):
        cfg = ExperimentConfig(model="bimodal", n_seeds=1, fw=self._fast_fw())
        summary = run_experiment(cfg)
        assert all(v == 0.0 for v in summary.std.values())

    def test_bimodal_reports_kl(self):
        cfg = ExperimentConfig(model="bimodal", n_seeds=1, fw=self._fast_fw())
        summary = run_experiment(cfg)
        assert "kl_oracle" in summary.mean
        assert summary.traces[0].records[0].kl_oracle is not None

    def test_separable_logistic_auroc(self):
        cfg = ExperimentConfig(
            model="logistic", model_params={"n": 400, "n_features": 5},
            n_seeds=2, fw=self._fast_fw(),
        )
        summary = run_experiment(cfg)
        assert summary.mean["auroc"] > 0.9

    def test_artifacts_written(self, tmp_path):
        cfg = ExperimentConfig(model="bimodal", n_seeds=1, fw=self._fast_fw(),
                               out_dir=str(tmp_path / "run"))
        run_experiment(cfg)
        for name in ("trace.json", "summary.json", "density.csv"):
            assert (tmp_path / "run" / name).exists()

    def test_bimodal_target_built_once_per_seed(self, tmp_path, monkeypatch):
        # write_artifacts reads the first seed's fitted model, not a rebuilt one
        calls = []
        build = harness.synthetic_bimodal_target

        def counting(**params):
            calls.append(params)
            return build(**params)

        monkeypatch.setattr(harness, "synthetic_bimodal_target", counting)
        cfg = ExperimentConfig(model="bimodal", n_seeds=2, fw=self._fast_fw(),
                               out_dir=str(tmp_path / "run"))
        run_experiment(cfg)
        assert len(calls) == 2

    def test_density_target_column_is_the_run_model(self, tmp_path, monkeypatch):
        returned = []
        run_single_seed = harness.run_single_seed

        def recording(*args, **kwargs):
            result = run_single_seed(*args, **kwargs)
            returned.append(result[2])
            return result

        monkeypatch.setattr(harness, "run_single_seed", recording)
        params = {"mu": (-2.0, 1.5), "sigma": (0.4, 0.7), "pi": (0.3, 0.7)}
        cfg = ExperimentConfig(model="bimodal", model_params=params, fw=self._fast_fw(),
                               out_dir=str(tmp_path / "run"))
        run_experiment(cfg)
        with open(tmp_path / "run" / "density.csv", newline="") as fh:
            column = [row["target"] for row in csv.DictReader(fh)]
        expected = np.exp(returned[0].posterior_log_pdf(harness.DENSITY_GRID))
        assert column == [repr(float(v)) for v in expected]

    def test_logistic_run_writes_no_density(self, tmp_path):
        cfg = ExperimentConfig(model="logistic", fw=self._fast_fw(),
                               out_dir=str(tmp_path / "run"))
        run_experiment(cfg)
        assert (tmp_path / "run" / "summary.json").exists()
        assert not (tmp_path / "run" / "density.csv").exists()

    def test_summary_best_iterations_are_the_traces(self, tmp_path):
        cfg = ExperimentConfig(model="bimodal", n_seeds=3,
                               fw=replace(self._fast_fw(), max_iters=3),
                               out_dir=str(tmp_path / "run"))
        summary = run_experiment(cfg)
        with open(tmp_path / "run" / "summary.json") as fh:
            written = json.load(fh)["best_iterations"]
        assert written == [t.best_iteration for t in summary.traces]

    def test_empty_split_rejected_before_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("the fit ran")

        monkeypatch.setattr("boostvi.harness.run_boosting", no_fit)
        cfg = ExperimentConfig(model="logistic", split_fraction=0.999, fw=self._fast_fw())
        with pytest.raises(ValueError, match="leaves the test set empty"):
            run_experiment(cfg)

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            ExperimentConfig(model="mystery")

    @pytest.mark.parametrize("field, value, error, message", [
        ("split_fraction", "0.5", ValueError, "split_fraction must be a real number, got '0.5'"),
        ("split_fraction", True, ValueError, "split_fraction must be a real number, got True"),
        ("model", ["bimodal"], TypeError, "model must be a string, got ['bimodal']"),
        ("model_params", 5, TypeError, "model_params must be a dict, got 5"),
        ("fw", {}, TypeError, "fw must be an FwConfig, got {}"),
    ], ids=["split_fraction-str", "split_fraction-bool", "model-list", "model_params-int",
            "fw-dict"])
    def test_value_of_the_wrong_type_names_its_field(self, field, value, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("n_seeds", [0, 1.5, True])
    def test_bad_n_seeds_names_its_field(self, n_seeds):
        with pytest.raises(ValueError, match="n_seeds"):
            ExperimentConfig(n_seeds=n_seeds)

    @pytest.mark.parametrize("model, params, unknown", [
        ("logistic", {"n_feature": 3}, "['n_feature']"),
        ("bimodal", {"mu": (-2.0, 2.0), "n": 10, "latent_dim": 2}, "['latent_dim', 'n']"),
        ("matrix_factorization", {"rows": 8, "n_features": 3}, "['n_features']"),
    ])
    def test_unknown_model_params_rejected(self, model, params, unknown):
        with pytest.raises(ValueError, match=f"unknown model_params keys for '{model}': "
                                             + re.escape(unknown)):
            ExperimentConfig(model=model, model_params=params)
