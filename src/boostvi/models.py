"""Target models exposing an unnormalized log-joint and, where cheap, its gradient.

Every model is a :class:`TargetModel`: a latent dimension, a log-joint
callable over a batch of points (n, D), optionally its gradient, and optional
extras (a normalized 1-D posterior density for quadrature oracles, a training
log-likelihood for iterate selection).  Single-point calls are derived from
the batch callables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import expit, log_expit
from scipy.stats import rankdata

from .densities import LOG_2PI, Mixture, log_weights, logsumexp


@dataclass(frozen=True)
class TargetModel:
    dim: int
    log_joint_batch: Callable[[np.ndarray], np.ndarray]
    grad_log_joint_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # normalized log pdf for 1-D models where the target is itself a density
    posterior_log_pdf: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # mean training log-likelihood from posterior samples (n, D) -> float
    train_log_likelihood: Optional[Callable[[np.ndarray], float]] = None

    def log_joint(self, z: np.ndarray) -> float:
        """Log-joint at one point (D,)."""
        return float(self.log_joint_batch(np.atleast_2d(z))[0])

    def grad_log_joint(self, z: np.ndarray) -> np.ndarray:
        """Gradient of the log-joint at one point (D,)."""
        return self.grad_log_joint_batch(np.atleast_2d(z))[0]


def log_joint_batch(model: TargetModel, Z: np.ndarray) -> np.ndarray:
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if Z.shape[1] != model.dim:
        raise ValueError(f"expected dimension {model.dim}, got {Z.shape[1]}")
    return np.asarray(model.log_joint_batch(Z))


class DataError(ValueError):
    """Input data that cannot be used: an unreadable or malformed file or
    trace entry, an invalid value, or a split that leaves a side empty."""


@dataclass(frozen=True)
class Dataset:
    """Feature/label data for classification, or a masked matrix for factorization.

    For factorization tasks ``labels`` holds the observation matrix and
    ``mask`` flags observed cells; ``features`` is unused.
    """

    features: Optional[np.ndarray]
    labels: np.ndarray
    mask: Optional[np.ndarray] = None

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=float)
        object.__setattr__(self, "labels", labels)
        if self.features is not None:
            feats = np.asarray(self.features, dtype=float)
            if not np.all(np.isfinite(feats)):
                raise DataError("features contain missing or non-finite values")
            if feats.shape[0] != labels.shape[0]:
                raise DataError("features and labels disagree on row count")
            object.__setattr__(self, "features", feats)
        if self.mask is not None:
            mask = np.asarray(self.mask, dtype=bool)
            if mask.shape != labels.shape:
                raise DataError("mask shape must match the matrix shape")
            object.__setattr__(self, "mask", mask)

    @property
    def n(self) -> int:
        return self.labels.shape[0]


def synthetic_bimodal_target(
    mu=(-1.0, 1.0), sigma=(0.5, 0.5), pi=(0.4, 0.6)
) -> TargetModel:
    """1-D two-Gaussian mixture target; the log-joint is the (normalized) log pdf."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if not np.all(sigma > 0):
        raise ValueError(f"sigma entries must be positive, got {sigma.tolist()}")
    if not (np.all(pi >= 0) and abs(pi.sum() - 1.0) <= 1e-12):
        raise ValueError(f"pi must be nonnegative and sum to 1, got {pi.tolist()}")
    log_pi = log_weights(pi)

    def component_logits(z: np.ndarray) -> np.ndarray:
        comp = -0.5 * LOG_2PI - np.log(sigma) - 0.5 * ((z - mu) / sigma) ** 2
        return comp + log_pi

    def log_pdf(z_flat: np.ndarray) -> np.ndarray:
        z = np.asarray(z_flat, dtype=float).reshape(-1, 1)
        return logsumexp(component_logits(z), axis=1)

    def batch(Z: np.ndarray) -> np.ndarray:
        return log_pdf(Z[:, 0])

    def grad_batch(Z: np.ndarray) -> np.ndarray:
        z = Z[:, :1]
        logits = component_logits(z)
        resp = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
        return np.sum(resp * (-(z - mu) / sigma**2), axis=1, keepdims=True)

    return TargetModel(
        dim=1,
        log_joint_batch=batch,
        grad_log_joint_batch=grad_batch,
        posterior_log_pdf=log_pdf,
    )


def _mean_bernoulli_ll(probs: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(probs, 1e-12, 1.0 - 1e-12)
    return float(np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def logistic_regression_model(data: Dataset) -> TargetModel:
    """Bayesian logistic regression: standard-normal prior on the weights,
    Bernoulli likelihood through a numerically stable log-sigmoid."""
    if data.features is None:
        raise ValueError("logistic regression needs a feature matrix")
    X = data.features
    y = data.labels
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise DataError("labels must be binary (0/1)")
    n_feat = X.shape[1]
    # y log sigma(l) + (1 - y) log sigma(-l) = log sigma(sign * l) for y in {0, 1}
    sign = 2.0 * y - 1.0

    def batch(W: np.ndarray) -> np.ndarray:
        prior = -0.5 * np.sum(W * W, axis=1) - 0.5 * n_feat * LOG_2PI
        return prior + log_expit((W @ X.T) * sign).sum(axis=1)

    def grad_batch(W: np.ndarray) -> np.ndarray:
        logits = W @ X.T
        return -W + (y - expit(logits)) @ X

    def train_ll(samples: np.ndarray) -> float:
        probs = expit(samples @ X.T).mean(axis=0)
        return _mean_bernoulli_ll(probs, y)

    return TargetModel(
        dim=n_feat,
        log_joint_batch=batch,
        grad_log_joint_batch=grad_batch,
        train_log_likelihood=train_ll,
    )


def _unpack_uv(Z: np.ndarray, latent_dim: int, rows: int, cols: int):
    U = Z[:, : latent_dim * rows].reshape(-1, latent_dim, rows)
    V = Z[:, latent_dim * rows :].reshape(-1, latent_dim, cols)
    return U, V


def matrix_factorization_model(data: Dataset, latent_dim: int) -> TargetModel:
    """Bayesian matrix factorization R ~ N(U^T V, I) with standard-normal
    entries of U and V; the latent vector is vec(U) followed by vec(V)."""
    if latent_dim < 1:
        raise ValueError("latent_dim must be >= 1")
    R = data.labels
    if R.ndim != 2:
        raise ValueError("matrix factorization needs a 2-D observation matrix")
    mask = data.mask if data.mask is not None else np.ones_like(R, dtype=bool)
    rows, cols = R.shape
    dim = latent_dim * (rows + cols)

    def reconstruct(Z: np.ndarray) -> np.ndarray:
        U, V = _unpack_uv(Z, latent_dim, rows, cols)
        return np.einsum("nlr,nlc->nrc", U, V)

    def batch(Z: np.ndarray) -> np.ndarray:
        prior = -0.5 * np.sum(Z * Z, axis=1) - 0.5 * dim * LOG_2PI
        resid = (R - reconstruct(Z)) * mask
        n_obs = mask.sum()
        ll = -0.5 * np.sum(resid * resid, axis=(1, 2)) - 0.5 * n_obs * LOG_2PI
        return prior + ll

    def grad_batch(Z: np.ndarray) -> np.ndarray:
        U, V = _unpack_uv(Z, latent_dim, rows, cols)
        G = (R - np.einsum("nlr,nlc->nrc", U, V)) * mask  # (n, rows, cols)
        dU = np.einsum("nlc,nrc->nlr", V, G)
        dV = np.einsum("nlr,nrc->nlc", U, G)
        dZ = np.concatenate([dU.reshape(len(Z), -1), dV.reshape(len(Z), -1)], axis=1)
        return -Z + dZ

    def train_ll(samples: np.ndarray) -> float:
        mean_recon = reconstruct(samples).mean(axis=0)
        resid = (R - mean_recon)[mask]
        return float(np.mean(-0.5 * resid**2 - 0.5 * LOG_2PI))

    return TargetModel(
        dim=dim,
        log_joint_batch=batch,
        grad_log_joint_batch=grad_batch,
        train_log_likelihood=train_ll,
    )


def auroc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Rank-sum AUROC with average ranks on ties (half credit)."""
    labels = np.asarray(labels, dtype=float)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs both classes present")
    ranks = rankdata(scores)
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def predictive_metrics(
    kind: str, posterior: Mixture, test: Dataset, n_samples: int, seed
) -> dict:
    """Monte-Carlo posterior-predictive metrics on held-out data."""
    samples = posterior.sample(n_samples, seed)
    if kind == "logistic":
        if test.features is None:
            raise ValueError("classification metrics need features")
        probs = expit(samples @ test.features.T).mean(axis=0)
        return {
            "auroc": auroc(test.labels, probs),
            "mean_log_likelihood": _mean_bernoulli_ll(probs, test.labels),
        }
    if kind == "matrix_factorization":
        if test.mask is None:
            raise ValueError("factorization metrics need an observation mask")
        R = test.labels
        rows, cols = R.shape
        latent_dim = posterior.dim // (rows + cols)
        if latent_dim * (rows + cols) != posterior.dim:
            raise ValueError("posterior dimension does not match the matrix shape")
        U, V = _unpack_uv(samples, latent_dim, rows, cols)
        mean_recon = np.einsum("nlr,nlc->nrc", U, V).mean(axis=0)
        resid = (R - mean_recon)[test.mask]
        return {
            "mse": float(np.mean(resid**2)),
            "mean_log_likelihood": float(np.mean(-0.5 * resid**2 - 0.5 * LOG_2PI)),
        }
    raise ValueError(f"no predictive metrics for model kind {kind!r}")
