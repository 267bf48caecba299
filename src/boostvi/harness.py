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

from .boosting import BoostTrace, FwConfig, run_boosting
from .densities import Mixture, QuadratureGrid
from .models import (
    DataError,
    Dataset,
    TargetModel,
    logistic_regression_model,
    matrix_factorization_model,
    predictive_metrics,
    synthetic_bimodal_target,
)

# the model_params keys each model reads; ExperimentConfig rejects any other
MODEL_PARAMS = {
    "bimodal": ("mu", "sigma", "pi"),
    "logistic": ("n", "n_features", "margin", "flip_fraction", "metric_samples"),
    "matrix_factorization": ("rows", "cols", "rank", "noise", "mask_fraction",
                             "latent_dim", "metric_samples"),
}


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
    n: int, n_feat: int, seed, margin: float = 1.0, flip_fraction: float = 0.0
) -> Dataset:
    """Synthetic binary data with a known hyperplane; ``flip_fraction``
    mislabels that share of rows so metrics stay off their ceiling."""
    if not 0.0 <= flip_fraction < 0.5:
        raise ValueError("flip_fraction must lie in [0, 0.5)")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n_feat)
    w = w / np.linalg.norm(w)
    X = rng.standard_normal((n, n_feat))
    score = X @ w
    X = X + np.outer(np.sign(score) * margin, w)  # push rows away from the plane
    y = ((X @ w) > 0).astype(float)
    n_flip = int(round(flip_fraction * n))
    if n_flip:
        idx = rng.choice(n, size=n_flip, replace=False)
        y[idx] = 1.0 - y[idx]
    return Dataset(features=X, labels=y)


def make_lowrank_matrix(
    rows: int, cols: int, rank: int, noise: float, mask_fraction: float, seed
) -> Dataset:
    """Noisy low-rank matrix with a random observation mask."""
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
        if self.model not in MODEL_PARAMS:
            raise ValueError(f"unknown model {self.model!r}, expected one of {tuple(MODEL_PARAMS)}")
        unknown = sorted(set(self.model_params) - set(MODEL_PARAMS[self.model]))
        if unknown:
            raise ValueError(f"unknown model_params keys for {self.model!r}: {unknown}, "
                             f"expected some of {list(MODEL_PARAMS[self.model])}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split fraction must lie in (0, 1)")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")


@dataclass
class RunSummary:
    per_seed: list[dict]
    mean: dict
    std: dict
    best_iterations: list[int]
    traces: list[BoostTrace]
    seeds: list[int]


def _aggregate(per_seed: list[dict]) -> tuple[dict, dict]:
    keys = sorted({k for m in per_seed for k in m if m[k] is not None})
    mean = {}
    std = {}
    for k in keys:
        vals = np.array([m[k] for m in per_seed if m.get(k) is not None], dtype=float)
        mean[k] = float(vals.mean())
        std[k] = float(vals.std())
    return mean, std


def bimodal_target(model_params: dict) -> TargetModel:
    """The bimodal target of a config's ``model_params``; absent keys take
    the defaults of :func:`synthetic_bimodal_target`."""
    return synthetic_bimodal_target(
        **{k: model_params[k] for k in MODEL_PARAMS["bimodal"] if k in model_params}
    )


def _build_dataset(cfg: ExperimentConfig, seed: int) -> Optional[Dataset]:
    p = cfg.model_params
    if cfg.model == "bimodal":
        return None
    if cfg.data_path is not None:
        schema = "matrix" if cfg.model == "matrix_factorization" else "classification"
        return load_csv(cfg.data_path, schema)
    if cfg.model == "logistic":
        return make_separable_classification(
            int(p.get("n", 400)),
            int(p.get("n_features", 5)),
            seed=(seed, 9001),
            margin=float(p.get("margin", 1.0)),
            flip_fraction=float(p.get("flip_fraction", 0.0)),
        )
    return make_lowrank_matrix(
        int(p.get("rows", 20)),
        int(p.get("cols", 15)),
        int(p.get("rank", 2)),
        float(p.get("noise", 0.1)),
        float(p.get("mask_fraction", 1.0)),
        seed=(seed, 9002),
    )


def _build_model(cfg: ExperimentConfig, seed: int) -> tuple[TargetModel, Optional[Dataset]]:
    """The target model of one seed and its held-out split (None for the
    bimodal target).  Bad input data, a ``model_params`` value the model
    cannot take or a logistic test split of one class raise a
    :class:`DataError`, so that they stop the run before the fit."""
    p = cfg.model_params
    try:
        data = _build_dataset(cfg, seed)
        if data is None:
            return bimodal_target(p), None
        train, test = split(data, cfg.split_fraction, seed=(seed, 777))
        if cfg.model == "logistic":
            model = logistic_regression_model(train)
        else:
            model = matrix_factorization_model(train, int(p.get("latent_dim", 2)))
    except DataError:
        raise
    except (TypeError, ValueError) as e:
        raise DataError(f"invalid model_params for {cfg.model!r}: {e}")
    if cfg.model == "logistic" and np.unique(test.labels).size < 2:
        raise DataError(f"the test split holds only label {test.labels[0]:g}; "
                        "its AUROC needs both classes")
    return model, test


def run_single_seed(cfg: ExperimentConfig, seed: int, progress=None):
    """One boosting run: returns (metrics dict, trace, posterior mixture)."""
    fw = replace(cfg.fw, seed=seed)
    model, test = _build_model(cfg, seed)
    posterior, trace = run_boosting(model, fw, progress=progress)
    best = trace.records[trace.best_iteration]
    if test is None:
        metrics = {"kl_oracle": best.kl_oracle}
    else:
        metrics = predictive_metrics(
            cfg.model, posterior, test,
            n_samples=int(cfg.model_params.get("metric_samples", 2048)), seed=(seed, 555),
        )
    metrics["train_ll"] = best.train_ll
    return metrics, trace, posterior


def run_experiment(cfg: ExperimentConfig, progress=None) -> RunSummary:
    """Run boosting for each seed, aggregate metrics, optionally write artifacts."""
    seeds = [cfg.fw.seed + k for k in range(cfg.n_seeds)]
    per_seed = []
    traces = []
    posteriors = []
    for s in seeds:
        metrics, trace, posterior = run_single_seed(cfg, s, progress=progress)
        per_seed.append(metrics)
        traces.append(trace)
        posteriors.append(posterior)
    mean, std = _aggregate(per_seed)
    summary = RunSummary(
        per_seed=per_seed,
        mean=mean,
        std=std,
        best_iterations=[t.best_iteration for t in traces],
        traces=traces,
        seeds=seeds,
    )
    if cfg.out_dir is not None:
        write_artifacts(cfg, summary)
    return summary


DENSITY_GRID = QuadratureGrid(-6.0, 6.0, 601)


def write_artifacts(cfg: ExperimentConfig, summary: RunSummary) -> None:
    """Write trace.json, summary.json and, for 1-D models, density.csv."""
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
        "best_iterations": summary.best_iterations,
    }
    with open(os.path.join(cfg.out_dir, "summary.json"), "w") as fh:
        json.dump(summary_payload, fh, indent=2, sort_keys=True)
    if cfg.model == "bimodal":
        write_density_csv(cfg.model_params, summary.traces[0].mixtures,
                          os.path.join(cfg.out_dir, "density.csv"))


def write_density_csv(model_params: dict, mixtures: list[Mixture], path: str) -> None:
    """The bimodal target and each mixture's density on ``DENSITY_GRID``."""
    z = DENSITY_GRID.points()
    target = np.exp(bimodal_target(model_params).posterior_log_pdf(z))
    columns = [("z", z), ("target", target)]
    for i, m in enumerate(mixtures):
        columns.append((f"q_{i}", np.exp(m.log_prob(z.reshape(-1, 1)))))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in columns])
        for row in zip(*(vals for _, vals in columns)):
            writer.writerow([repr(float(v)) for v in row])
