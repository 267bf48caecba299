"""Experiment harness: CSV ingestion, train/test splits, multi-seed runs.

CSV conventions: classification files carry a header row with the label in
the final column; matrix data comes as (i, j, r) triples with header
``i,j,r``.  Aggregation over seeds reports mean and standard deviation per
metric, matching the mean +/- std cells of the result tables.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .boosting import BoostTrace, FwConfig, check_kl_oracle_grid, run_boosting
from .densities import DataError, real_number, whole_number
from .models import (
    Dataset,
    TargetModel,
    logistic_regression_model,
    matrix_factorization_model,
    predictive_metrics,
    synthetic_bimodal_target,
)


# each model's model_params keys and how a given value is read (None: as
# given): first the keys of its synthetic-data generator, then those of its
# model builder.  A key the config leaves out keeps the default of the function
# that takes it.  A data file replaces the synthetic data, so ExperimentConfig
# rejects the generator's keys beside one, and any key not listed here.
MODEL_PARAMS = {
    "bimodal": ({}, {"mu": None, "sigma": None, "pi": None}),
    "logistic": ({"n": whole_number, "n_features": whole_number,
                  "margin": real_number, "flip_fraction": real_number}, {}),
    "matrix_factorization": ({"rows": whole_number, "cols": whole_number,
                              "rank": whole_number, "noise": real_number,
                              "mask_fraction": real_number},
                             {"latent_dim": whole_number}),
}
# posterior samples behind each held-out predictive metric
METRIC_SAMPLES = 2048


def load_csv(path: str, schema: str = "classification") -> Dataset:
    """Read a dataset from CSV; see the module docstring for the conventions.
    A file that cannot be read or parsed raises a :class:`DataError`."""
    if schema not in ("classification", "matrix"):
        raise ValueError(f"unknown schema {schema!r}")
    try:
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"{path}: cannot read the file ({e})")
    if not lines:
        raise DataError(f"{path}: empty file, expected a header row")
    rows, row_numbers = [], []
    for r, row in enumerate(lines[1:], start=2):
        if not row:
            continue
        if rows and len(row) != len(rows[0]):
            raise DataError(f"{path}: row {r} has {len(row)} cells, row "
                            f"{row_numbers[0]} has {len(rows[0])}")
        parsed = []
        for c, cell in enumerate(row, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{path}: non-numeric cell at row {r}, column {c} ({cell!r})")
            if not math.isfinite(value):
                raise DataError(f"{path}: non-finite cell at row {r}, column {c} ({cell!r})")
            parsed.append(value)
        rows.append(parsed)
        row_numbers.append(r)
    if not rows:
        raise DataError(f"{path}: no data rows")
    data = np.asarray(rows)
    if schema == "classification":
        if data.shape[1] < 2:
            raise DataError(f"{path}: label column absent (need >= 2 columns)")
        return Dataset(features=data[:, :-1], labels=data[:, -1])
    if data.shape[1] != 3:
        raise DataError(f"{path}: matrix schema expects exactly (i, j, r) columns")
    index = data[:, :2]
    non_integer = index != np.floor(index)
    if non_integer.any():
        r = row_numbers[int(np.argmax(non_integer.any(axis=1)))]
        raise DataError(f"{path}: non-integer matrix index at row {r}")
    ii = data[:, 0].astype(int)
    jj = data[:, 1].astype(int)
    if np.any(ii < 0) or np.any(jj < 0):
        raise DataError(f"{path}: matrix indices must be nonnegative")
    first_row = {}
    for r, cell in zip(row_numbers, zip(ii.tolist(), jj.tolist())):
        if cell in first_row:
            raise DataError(
                f"{path}: repeated cell {cell} at row {r} (first given at row {first_row[cell]})"
            )
        first_row[cell] = r
    matrix = np.zeros((ii.max() + 1, jj.max() + 1))
    mask = np.zeros_like(matrix, dtype=bool)
    matrix[ii, jj] = data[:, 2]
    mask[ii, jj] = True
    return Dataset(features=None, labels=matrix, mask=mask)


def split(data: Dataset, fraction: float, seed) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled train/test split.

    Classification data splits by row; masked matrices split the observed
    cells into two disjoint masks over the same matrix.  A split that leaves
    either side empty raises a :class:`DataError`.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    cells = None if data.mask is None else np.argwhere(data.mask)
    n, unit = (data.n, "rows") if cells is None else (len(cells), "observed cells")
    n_train = int(round(fraction * n))
    if not 0 < n_train < n:
        side = "train" if n_train == 0 else "test"
        raise DataError(f"split fraction {fraction} of {n} {unit} leaves the {side} set empty")
    perm = rng.permutation(n)
    tr, te = perm[:n_train], perm[n_train:]
    if cells is None:
        return (
            Dataset(features=data.features[tr], labels=data.labels[tr]),
            Dataset(features=data.features[te], labels=data.labels[te]),
        )
    train_mask = np.zeros_like(data.mask)
    test_mask = np.zeros_like(data.mask)
    train_mask[tuple(cells[tr].T)] = True
    test_mask[tuple(cells[te].T)] = True
    return (
        Dataset(features=None, labels=data.labels, mask=train_mask),
        Dataset(features=None, labels=data.labels, mask=test_mask),
    )


def make_separable_classification(
    n: int = 400, n_features: int = 5, margin: float = 1.0, flip_fraction: float = 0.0, *, seed
) -> Dataset:
    """Synthetic binary data with a known hyperplane; ``flip_fraction``
    mislabels that share of rows so metrics stay off their ceiling.  A value
    out of range raises a ValueError naming its key."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    if not math.isfinite(margin):
        raise ValueError("margin must be finite")
    if not 0.0 <= flip_fraction < 0.5:
        raise ValueError("flip_fraction must lie in [0, 0.5)")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n_features)
    w = w / np.linalg.norm(w)
    X = rng.standard_normal((n, n_features))
    score = X @ w
    X = X + np.outer(np.sign(score) * margin, w)  # push rows away from the plane
    y = ((X @ w) > 0).astype(float)
    n_flip = int(round(flip_fraction * n))
    if n_flip:
        idx = rng.choice(n, size=n_flip, replace=False)
        y[idx] = 1.0 - y[idx]
    return Dataset(features=X, labels=y)


def make_lowrank_matrix(
    rows: int = 20, cols: int = 15, rank: int = 2, noise: float = 0.1,
    mask_fraction: float = 1.0, *, seed
) -> Dataset:
    """Noisy low-rank matrix with a random observation mask that keeps each
    cell with probability ``mask_fraction``.  A value out of range raises a
    ValueError naming its key."""
    for key, count in (("rows", rows), ("cols", cols), ("rank", rank)):
        if count < 1:
            raise ValueError(f"{key} must be >= 1")
    if not 0.0 <= noise < math.inf:
        raise ValueError("noise must be finite and >= 0")
    if not 0.0 < mask_fraction <= 1.0:
        raise ValueError("mask_fraction must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((rank, rows))
    V = rng.standard_normal((rank, cols))
    R = U.T @ V + noise * rng.standard_normal((rows, cols))
    mask = rng.uniform(size=R.shape) < mask_fraction
    return Dataset(features=None, labels=R, mask=mask)


@dataclass(frozen=True)
class ExperimentConfig:
    model: str = "bimodal"
    model_params: dict = field(default_factory=dict)
    data_path: Optional[str] = None
    split_fraction: float = 0.7
    n_seeds: int = 1
    fw: FwConfig = field(default_factory=FwConfig)
    out_dir: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.model, str):
            raise TypeError(f"model must be a string, got {self.model!r}")
        if not isinstance(self.model_params, dict):
            raise TypeError(f"model_params must be a dict, got {self.model_params!r}")
        if not isinstance(self.fw, FwConfig):
            raise TypeError(f"fw must be an FwConfig, got {self.fw!r}")
        if self.model not in MODEL_PARAMS:
            raise ValueError(f"unknown model {self.model!r}, expected one of {tuple(MODEL_PARAMS)}")
        data_keys, model_keys = MODEL_PARAMS[self.model]
        known = [*data_keys, *model_keys]
        unknown = sorted(set(self.model_params) - set(known))
        if unknown:
            raise ValueError(f"unknown model_params keys for {self.model!r}: {unknown}, "
                             f"expected some of {known}")
        if self.data_path is not None:
            if self.model == "bimodal":
                raise ValueError("data_path (--data) is set, but the bimodal target "
                                 "reads no data")
            replaced = sorted(set(self.model_params) & set(data_keys))
            if replaced:
                raise ValueError(f"model_params keys {replaced} shape the synthetic data "
                                 f"that data_path (--data) replaces")
        object.__setattr__(self, "split_fraction",
                           real_number(self.split_fraction, "split_fraction"))
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split fraction must lie in (0, 1)")
        object.__setattr__(self, "n_seeds", whole_number(self.n_seeds, "n_seeds"))
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")


@dataclass
class RunSummary:
    per_seed: list[dict]
    mean: dict
    std: dict
    traces: list[BoostTrace]
    seeds: list[int]


def _aggregate(per_seed: list[dict]) -> tuple[dict, dict]:
    """Mean and standard deviation over seeds of each metric; every seed
    reports the same keys."""
    vals = {k: np.array([m[k] for m in per_seed], dtype=float) for k in sorted(per_seed[0])}
    return ({k: float(v.mean()) for k, v in vals.items()},
            {k: float(v.std()) for k, v in vals.items()})


def _given(model_params: dict, keys: dict) -> dict:
    """The values ``model_params`` gives for ``keys``, a group of a
    :data:`MODEL_PARAMS` entry, each read by its entry there."""
    return {k: model_params[k] if read is None else read(model_params[k], f"model_params {k!r}")
            for k, read in keys.items() if k in model_params}


def _build_dataset(cfg: ExperimentConfig, seed: int) -> Optional[Dataset]:
    if cfg.model == "bimodal":
        return None
    if cfg.data_path is not None:
        schema = "matrix" if cfg.model == "matrix_factorization" else "classification"
        return load_csv(cfg.data_path, schema)
    given = _given(cfg.model_params, MODEL_PARAMS[cfg.model][0])
    if cfg.model == "logistic":
        return make_separable_classification(**given, seed=(seed, 9001))
    return make_lowrank_matrix(**given, seed=(seed, 9002))


def _build_model(cfg: ExperimentConfig, seed: int) -> tuple[TargetModel, Optional[Dataset]]:
    """The target model of one seed and its held-out split (None for the
    bimodal target).  Bad input data, a ``model_params`` value the model
    cannot take or a logistic test split of one class raise a
    :class:`DataError`, so that they stop the run before the fit."""
    p = cfg.model_params
    try:
        data = _build_dataset(cfg, seed)
        if data is None:
            model = synthetic_bimodal_target(**_given(p, MODEL_PARAMS["bimodal"][1]))
            check_kl_oracle_grid(model, "model_params 'mu' and 'sigma'")
            return model, None
        train, test = split(data, cfg.split_fraction, seed=(seed, 777))
        build = (logistic_regression_model if cfg.model == "logistic"
                 else matrix_factorization_model)
        model = build(train, **_given(p, MODEL_PARAMS[cfg.model][1]))
    except DataError:
        raise
    except (TypeError, ValueError) as e:
        raise DataError(f"invalid model_params for {cfg.model!r}: {e}")
    # not np.unique, whose import of numpy.ma costs a logistic run about 1 MB
    if cfg.model == "logistic" and (test.labels == test.labels[0]).all():
        raise DataError(f"the test split holds only label {test.labels[0]:g}; "
                        "its AUROC needs both classes")
    return model, test


def run_single_seed(cfg: ExperimentConfig, seed: int, progress=None):
    """One boosting run: returns (metrics dict, trace, the target model it
    built)."""
    fw = replace(cfg.fw, seed=seed)
    model, test = _build_model(cfg, seed)
    posterior, trace = run_boosting(model, fw, progress=progress)
    best = trace.records[trace.best_iteration]
    if test is None:
        metrics = {"kl_oracle": best.kl_oracle}
    else:
        metrics = predictive_metrics(
            cfg.model, posterior, test, n_samples=METRIC_SAMPLES, seed=(seed, 555)
        )
    metrics["train_ll"] = best.train_ll
    return metrics, trace, model


def run_experiment(cfg: ExperimentConfig, progress=None) -> RunSummary:
    """Run boosting for each seed, aggregate metrics, optionally write artifacts."""
    seeds = [cfg.fw.seed + k for k in range(cfg.n_seeds)]
    runs = [run_single_seed(cfg, s, progress=progress) for s in seeds]
    per_seed = [metrics for metrics, _, _ in runs]
    mean, std = _aggregate(per_seed)
    summary = RunSummary(per_seed=per_seed, mean=mean, std=std,
                         traces=[trace for _, trace, _ in runs], seeds=seeds)
    if cfg.out_dir is not None:
        write_artifacts(cfg, summary, runs[0][2])
    return summary


DENSITY_GRID = np.linspace(-6.0, 6.0, 601)
DENSITY_GRID.setflags(write=False)


def write_artifacts(cfg: ExperimentConfig, summary: RunSummary, target: TargetModel) -> None:
    """Write trace.json, summary.json and, when ``target``, the first seed's
    model, has a normalized 1-D posterior, density.csv: the target's and each
    iterate q_0 .. q_T's density of the first seed on ``DENSITY_GRID``."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    trace_payload = {
        "seeds": summary.seeds,
        "traces": [t.to_dict() for t in summary.traces],
    }
    with open(os.path.join(cfg.out_dir, "trace.json"), "w") as fh:
        json.dump(trace_payload, fh, indent=2, sort_keys=True)
    summary_payload = {
        "config": asdict(cfg),
        "per_seed": summary.per_seed,
        "aggregate": {"mean": summary.mean, "std": summary.std},
        "best_iterations": [t.best_iteration for t in summary.traces],
    }
    with open(os.path.join(cfg.out_dir, "summary.json"), "w") as fh:
        json.dump(summary_payload, fh, indent=2, sort_keys=True)
    if target.posterior_log_pdf is not None and target.dim == 1:
        z = DENSITY_GRID
        columns = [("z", z), ("target", np.exp(target.posterior_log_pdf(z)))]
        for i, m in enumerate(summary.traces[0].mixtures):
            columns.append((f"q_{i}", np.exp(m.log_prob(z.reshape(-1, 1)))))
        with open(os.path.join(cfg.out_dir, "density.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([name for name, _ in columns])
            for row in zip(*(vals for _, vals in columns)):
                writer.writerow([repr(float(v)) for v in row])
