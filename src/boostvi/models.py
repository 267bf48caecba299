"""Target models exposing an unnormalized log-joint and, where cheap, its gradient.

Every model is a :class:`TargetModel`: a latent dimension, a log-joint
callable over a batch of points (n, D), optionally a value-and-gradient
callable that returns the log-joint and its gradient from one evaluation, and
optional extras (a normalized 1-D posterior density for quadrature oracles, a
training log-likelihood for iterate selection).  Every call takes a batch; a single
point z is the batch ``z[None]``.  A large Monte-Carlo batch is evaluated
``SAMPLE_BLOCK`` rows at a time; its samples' values are reassembled, or
added to a running total in numpy's own order, before any reduction across
them, so the results keep their bits while the peak memory does not grow
with n times the model's width.  The bimodal target is a
:class:`~boostvi.densities.Mixture` of Gaussian atoms, and its callables are
that mixture's own methods.  Each model's posterior-predictive quantity
is one module-level helper, shared by its training log-likelihood and
:func:`predictive_metrics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .densities import (LOG_2PI, SAMPLE_BLOCK, DataError, Family, Mixture, _as_loc, _as_scale,
                        _check_points, sample_blocks, sample_count)


@dataclass(frozen=True)
class TargetModel:
    """A target density over R^dim, known up to its normalizer.

    ``log_joint_batch(Z)`` maps points (n, D) to the log-joint (n,).  It
    must be row-wise: a row's value may not depend on the other rows of the
    batch, since :func:`log_joint_batch` splits a batch into blocks of at
    most ``SAMPLE_BLOCK`` rows.
    ``grad_log_joint_batch(Z)``, when set, is the value-and-gradient callable:
    it returns ``(log_joint (n,), gradient (n, D))`` from one evaluation, its
    value equal to ``log_joint_batch(Z)``.  The atom solver's
    reparameterization steps call only it; every other log-joint need calls
    ``log_joint_batch``.
    """

    dim: int
    log_joint_batch: Callable[[np.ndarray], np.ndarray]
    grad_log_joint_batch: Optional[
        Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None
    # normalized log pdf for 1-D models where the target is itself a density
    posterior_log_pdf: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # mean training log-likelihood from posterior samples (n, D) -> float
    train_log_likelihood: Optional[Callable[[np.ndarray], float]] = None


def log_joint_batch(model: TargetModel, Z: np.ndarray) -> np.ndarray:
    """The model's log-joint at points ``Z`` of shape (n, D); any other shape
    raises a ValueError.  ``model.log_joint_batch`` is called once per block
    of at most ``SAMPLE_BLOCK`` rows (once at n = 0) and the blocks are
    concatenated, so a row-wise model gives the values of one whole call."""
    Z = _check_points(Z, model.dim)
    if len(Z) <= SAMPLE_BLOCK:
        return np.asarray(model.log_joint_batch(Z))
    return np.concatenate([np.asarray(model.log_joint_batch(Z[b]))
                           for b in sample_blocks(len(Z))])


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
    """1-D Gaussian-mixture target: the :class:`Mixture` of the atoms
    N(mu_k, sigma_k^2), one row each, with weights pi, whose own methods are
    the model's callables, so the log-joint is the normalized log pdf.  A
    value that no atom or mixture can take raises a ValueError naming its key."""
    locs, scales = _as_loc(mu, "mu"), _as_scale(sigma, "sigma")
    if not 0 < len(locs) == len(scales):
        raise ValueError(f"mu and sigma must hold one entry per component, "
                         f"got {len(locs)} and {len(scales)}")
    try:
        target = Mixture(Family.GAUSSIAN, locs[:, None], scales[:, None], pi)
    except ValueError as e:
        raise ValueError(f"pi: {e}") from None
    return TargetModel(
        dim=1,
        log_joint_batch=target.log_prob,
        grad_log_joint_batch=target.log_prob_and_grad,
        posterior_log_pdf=lambda z: target.log_prob(np.reshape(z, (-1, 1))),
    )


def _exp_neg_abs(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """e = exp(-|x|), in [0, 1]: the one ``exp`` per element that the sigmoid
    and the log-sigmoid share, the same for x and -x.  It cannot overflow,
    and it is formed in ``out`` when given, in one new array otherwise."""
    e = np.abs(x, out=out)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _sigmoid(x: np.ndarray, e: Optional[np.ndarray] = None,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """sigma(x) = where(x >= 0, 1, e) / (1 + e), elementwise, with e =
    exp(-|x|) formed in the array ``e`` when given and taken to 1 + e in
    place.  The select is max(x >= 0, e), the comparison written as 0.0 or
    1.0, which equals it as e lies in [0, 1] (NaN where x is) and needs no
    boolean mask.  Works in place: a given e is overwritten, and the result
    goes to ``out``, which may be x itself; otherwise no array beyond e and
    the result is made."""
    e = _exp_neg_abs(x, out=e)
    out = np.greater_equal(x, 0.0, out=np.empty_like(x) if out is None else out)
    np.maximum(out, e, out=out)
    out /= np.add(e, 1.0, out=e)
    return out


def _log_sigmoid(x: np.ndarray, e: Optional[np.ndarray] = None,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """log sigma(x) = min(x, 0) - log1p(e), elementwise, with e = exp(-|x|)
    formed here unless given.  Works in place: a given e is overwritten, and
    the result goes to ``out``, which may be x itself."""
    if e is None:
        e = _exp_neg_abs(x)
    np.log1p(e, out=e)
    out = np.minimum(x, 0.0, out=out)
    out -= e
    return out


def class_probabilities(samples: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Posterior-predictive P(y = 1) of each row of ``features`` (m, F): the
    sigmoid of its logit under each weight sample (n, F), averaged over
    samples, with the bits of the mean of the whole (n, m) array and without
    that array.  Each block of samples' logits and their exp(-|s|) are
    formed in place in one (2, SAMPLE_BLOCK, m) buffer, allocated once per
    call, and :func:`_mean_of_blocks` adds the blocks' probabilities to one
    running total.  One allocation, not one per array or per block, keeps
    glibc from returning the buffer to the kernel and faulting it back in:
    at n = 2048 on 280 feature rows, in a fresh interpreter, two (256, 280)
    arrays per block took 421 minor faults per call, the one buffer none
    from the third call on."""
    n, m = len(samples), len(features)
    buf = np.empty((2, min(n, SAMPLE_BLOCK), m))

    def blocks():
        for b in sample_blocks(n):
            s = np.matmul(samples[b], features.T, out=buf[0, :b.stop - b.start])
            yield _sigmoid(s, buf[1, :len(s)], out=s)

    return _mean_of_blocks(blocks(), (m,), n)


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
    # y log sigma(l) + (1 - y) log sigma(-l) = log sigma(s) with s = sign * l
    # for y in {0, 1}, and the residual y - sigma(l) is sign * sigma(-s).
    # The signs go into the features once: s = W @ XS.T and the gradient's
    # sum is sigma(-s) @ XS, with the bits of scaling the logits and the
    # residuals by the signs, as negation is exact and rounding symmetric
    # in sign.  XS.T stays a transposed view: BLAS then sees the operand
    # layout of X.T, which the bits depend on.
    sign = 2.0 * y - 1.0
    XS = X * sign[:, None]

    def log_joint(W: np.ndarray, log_lik: np.ndarray) -> np.ndarray:
        prior = -0.5 * np.sum(W * W, axis=1) - 0.5 * n_feat * LOG_2PI
        return prior + log_lik.sum(axis=1)

    def batch(W: np.ndarray) -> np.ndarray:
        """The log-joint at weight rows W (n, F), in place in one (2, n, N)
        allocation per call that holds the logits s and e = exp(-|s|).  As
        two separate (n, N) arrays, glibc trims the heap when both are freed
        and faults them back in on the next call: in a fresh interpreter, a
        logistic certificate at n = 2048 on 280 rows took 19,840 minor
        faults per call, and 0 from the second call with one allocation."""
        buf = np.empty((2, len(W), len(XS)))
        s = np.matmul(W, XS.T, out=buf[0])
        return log_joint(W, _log_sigmoid(s, _exp_neg_abs(s, out=buf[1]), out=s))

    def value_and_grad(W: np.ndarray):
        # one exp per element, shared by the value and sigma(-s) =
        # where(s <= 0, 1, e) / (1 + e), which needs no -s; the select is
        # max(s <= 0, e), as in _sigmoid, and the log-sigmoid goes into s
        s = W @ XS.T
        e = _exp_neg_abs(s)
        sigma = np.less_equal(s, 0.0, out=np.empty_like(s))
        np.maximum(sigma, e, out=sigma)
        sigma /= e + 1.0
        return log_joint(W, _log_sigmoid(s, e, out=s)), -W + sigma @ XS

    def train_ll(samples: np.ndarray) -> float:
        return _mean_bernoulli_ll(class_probabilities(samples, X), y)

    return TargetModel(
        dim=n_feat,
        log_joint_batch=batch,
        grad_log_joint_batch=value_and_grad,
        train_log_likelihood=train_ll,
    )


def _unpack_uv(Z: np.ndarray, latent_dim: int, rows: int, cols: int):
    U = Z[:, : latent_dim * rows].reshape(-1, latent_dim, rows)
    V = Z[:, latent_dim * rows :].reshape(-1, latent_dim, cols)
    return U, V


def _reconstruct(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """U^T V of each factor pair U (n, L, rows), V (n, L, cols): shape
    (n, rows, cols).  A batched matmul: at these sizes np.einsum costs several
    times as much per call."""
    return np.matmul(U.transpose(0, 2, 1), V)


def _mean_of_blocks(blocks, shape: tuple, n: int) -> np.ndarray:
    """The mean over axis 0 of the n rows of ``shape`` that the consecutive
    arrays ``blocks`` hold, with the bits of ``.mean(axis=0)`` of all n rows
    at once, which adds them in turn onto +0.  One running total takes each
    block: it is added to the block's first row, total + row, and the
    block's sum adds the rest onto that.  The sum starts from +0 too, which
    changes no total: a sum from +0 is never -0, as it reaches -0 only by
    adding -0 to -0.  A row of one number is the exception: numpy sums such
    rows pairwise, which no running total repeats, so their n numbers are
    gathered into one (n, *shape) array and averaged whole.  Each block is
    read before the next is drawn; overwrites each block's first row."""
    if math.prod(shape) == 1:
        column, start = np.empty((n, *shape)), 0
        for block in blocks:
            column[start:start + len(block)] = block
            start += len(block)
        return column.mean(axis=0)
    total = np.zeros(shape)
    for block in blocks:
        np.add(total, block[0], out=block[0])
        total = block.sum(axis=0)
    return total / n


def mean_reconstruction(samples: np.ndarray, latent_dim: int, rows: int, cols: int) -> np.ndarray:
    """Posterior-predictive mean matrix (rows, cols): U^T V averaged over the
    latent samples (n, D).  The products are formed a block of samples at a
    time and averaged by one running total, with the bits of the mean of the
    whole (n, rows, cols) array and without that array."""
    return _mean_of_blocks((_reconstruct(*_unpack_uv(samples[b], latent_dim, rows, cols))
                            for b in sample_blocks(len(samples))), (rows, cols), len(samples))


def gaussian_log_likelihood(resid: np.ndarray) -> float:
    """Mean log-likelihood of residuals under the unit-variance Gaussian noise
    of the factorization model."""
    return float(np.mean(-0.5 * resid**2 - 0.5 * LOG_2PI))


def matrix_factorization_model(data: Dataset, latent_dim: int = 2) -> TargetModel:
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
    n_obs = mask.sum()

    def masked_residual(U: np.ndarray, V: np.ndarray) -> np.ndarray:
        return (R - _reconstruct(U, V)) * mask  # (n, rows, cols)

    def log_joint(Z: np.ndarray, resid: np.ndarray) -> np.ndarray:
        prior = -0.5 * np.sum(Z * Z, axis=1) - 0.5 * dim * LOG_2PI
        ll = -0.5 * np.sum(resid * resid, axis=(1, 2)) - 0.5 * n_obs * LOG_2PI
        return prior + ll

    def batch(Z: np.ndarray) -> np.ndarray:
        return log_joint(Z, masked_residual(*_unpack_uv(Z, latent_dim, rows, cols)))

    def value_and_grad(Z: np.ndarray):
        U, V = _unpack_uv(Z, latent_dim, rows, cols)
        G = masked_residual(U, V)
        dU = V @ G.transpose(0, 2, 1)  # (n, L, rows)
        dV = U @ G  # (n, L, cols)
        dZ = np.concatenate([dU.reshape(len(Z), -1), dV.reshape(len(Z), -1)], axis=1)
        return log_joint(Z, G), -Z + dZ

    def train_ll(samples: np.ndarray) -> float:
        resid = (R - mean_reconstruction(samples, latent_dim, rows, cols))[mask]
        return gaussian_log_likelihood(resid)

    return TargetModel(
        dim=dim,
        log_joint_batch=batch,
        grad_log_joint_batch=value_and_grad,
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
    # average ranks: a group of tied scores holds 1-based sorted positions
    # ends - counts + 1 .. ends, whose mean each member gets
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (0.5 * (ends + (ends - counts) + 1))[group]
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def predictive_metrics(
    kind: str, posterior: Mixture, test: Dataset, n_samples: int, seed
) -> dict:
    """Monte-Carlo posterior-predictive metrics on held-out data."""
    samples = posterior.sample(sample_count(n_samples, "n_samples"), seed)
    if kind == "logistic":
        if test.features is None:
            raise ValueError("classification metrics need features")
        probs = class_probabilities(samples, test.features)
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
        resid = (R - mean_reconstruction(samples, latent_dim, rows, cols))[test.mask]
        return {
            "mse": float(np.mean(resid**2)),
            "mean_log_likelihood": gaussian_log_likelihood(resid),
        }
    raise ValueError(f"no predictive metrics for model kind {kind!r}")
