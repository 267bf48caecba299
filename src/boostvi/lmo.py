"""Black-box atom solver: stochastic gradient ascent on the residual ELBO.

The inner Frank-Wolfe step fits a fresh atom s by maximizing

    E_s[log p(x, z)] - lambda * E_s[log s(z)] - E_s[log q_t(z)]

over the atom's (loc, log-scale) parameters.  With ``q_t`` absent and
lambda = 1 this is exactly the ELBO, i.e. plain black-box VI.  Gradients come
from the reparameterization trick when the model supplies its gradient, else
from the score-function estimator with a baseline; the entropy term is always
handled analytically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from .densities import (
    PARAM_BOX,
    SCALE_FLOOR,
    BaseDensity,
    Family,
    Mixture,
    coordinate_log_prob,
    log_normalizer,
    standard_noise,
)
from .models import TargetModel


class Estimator(str, enum.Enum):
    REPARAMETERIZATION = "reparameterization"
    SCORE_FUNCTION = "score_function"


def lambda_at(t: int, entropy_weight: Optional[float] = None) -> float:
    """Entropy weight lambda at iteration ``t``: ``entropy_weight``, or
    1/sqrt(t+1) when it is None."""
    if t < 0:
        raise ValueError("iteration index must be >= 0")
    if entropy_weight is None:
        return 1.0 / math.sqrt(t + 1.0)
    return entropy_weight


@dataclass(frozen=True)
class LmoConfig:
    family: Family = Family.GAUSSIAN
    n_mc_samples: int = 32
    n_steps: int = 2000
    step_size: float = 0.01
    entropy_weight: Optional[float] = None  # constant lambda; None gives 1/sqrt(t+1)

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.n_mc_samples < 1:
            raise ValueError("n_mc_samples must be >= 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.entropy_weight is not None and not self.entropy_weight > 0:
            raise ValueError("entropy_weight (lambda) must be positive")
        object.__setattr__(self, "family", Family(self.family))


@dataclass(frozen=True)
class LmoResult:
    atom: BaseDensity
    relbo_estimate: float
    converged: bool
    steps_used: int


def _noise(family: Family, n: int, dim: int, seed) -> np.ndarray:
    """Standardized noise (n, D) of one estimator call, drawn from ``seed``."""
    return standard_noise(family, n, dim, np.random.default_rng(seed))


def _check_inputs(
    dim: int, model: TargetModel, q_t: Optional[Mixture], estimator: Optional[Estimator] = None
) -> None:
    if dim != model.dim:
        raise ValueError("atom and model dimension disagree")
    if q_t is not None and q_t.dim != model.dim:
        raise ValueError("mixture and model dimension disagree")
    if estimator is Estimator.REPARAMETERIZATION and model.grad_log_joint_batch is None:
        raise ValueError("reparameterization estimator needs the model gradient")


def relbo_estimate(
    s: BaseDensity,
    model: TargetModel,
    q_t: Optional[Mixture],
    lam: float,
    n: int,
    seed,
) -> float:
    """Monte-Carlo residual-ELBO estimate over ``n`` samples from ``s``: the
    value the atom solver's steps compute, here on the score-function branch,
    which needs no model gradient.

    Without ``q_t`` (first iteration) the residual term is dropped, so with
    lam = 1 this is the plain ELBO estimate on the same samples.
    """
    _check_inputs(s.dim, model, q_t)
    eps = _noise(s.family, n, s.dim, seed)
    return _relbo_grad_parts(s.family, s.loc, s.scale, eps, model, q_t, lam,
                             Estimator.SCORE_FUNCTION, None)[2]


def elbo_estimate(s: BaseDensity, model: TargetModel, n: int, seed) -> float:
    """Plain black-box VI objective: RELBO with lam = 1 and no current iterate."""
    return relbo_estimate(s, model, None, 1.0, n, seed)


def _score_param_grads(family: Family, u: np.ndarray, scale: np.ndarray):
    """d log s(z) / d loc and / d log-scale, per sample and coordinate, at
    standardized points ``u = (z - loc) / scale``."""
    if family is Family.GAUSSIAN:
        return u / scale, u * u - 1.0
    return np.sign(u) / scale, np.abs(u) - 1.0


def _relbo_grad_parts(
    family: Family,
    loc: np.ndarray,
    scale: np.ndarray,
    eps: np.ndarray,
    model: TargetModel,
    q_t: Optional[Mixture],
    lam: float,
    estimator: Estimator,
    baseline: Optional[float],
):
    """One estimator call at atom (family, loc, scale) on the noise ``eps`` (n, D).

    Works on raw arrays: the caller has checked the dimensions and that the
    model has a gradient where the estimator needs one.  Returns
    (g_loc, g_log_scale, relbo_value, residual_mean).
    """
    n = len(eps)
    reparam = estimator is Estimator.REPARAMETERIZATION
    z = loc + scale * eps
    f = model.log_joint_batch(z)  # residual integrand: log p - log q_t
    if q_t is not None:
        if reparam:
            log_q, grad_q = q_t.log_prob_and_grad(z)
        else:
            log_q = q_t.log_prob(z)
        f = f - log_q
    u = (z - loc) / scale
    log_s = coordinate_log_prob(family, log_normalizer(family, scale), u).sum(axis=1)
    f_mean = f.sum() / n
    value = float(f_mean - lam * (log_s.sum() / n))

    if reparam:
        g = model.grad_log_joint_batch(z)
        if q_t is not None:
            g = g - grad_q
        g_loc = g.sum(axis=0) / n
        g_log_scale = (g * eps).sum(axis=0) / n * scale
    else:
        b = f_mean if baseline is None else baseline
        d_loc, d_log_scale = _score_param_grads(family, u, scale)
        centered = (f - b)[:, None]
        g_loc = (centered * d_loc).sum(axis=0) / n
        g_log_scale = (centered * d_log_scale).sum(axis=0) / n
    # entropy term handled analytically: d(lam * H)/d log-scale = lam per coordinate
    g_log_scale = g_log_scale + lam
    return g_loc, g_log_scale, value, float(f_mean)


def relbo_grad(
    s: BaseDensity,
    model: TargetModel,
    q_t: Optional[Mixture],
    lam: float,
    n: int,
    seed,
    estimator: Estimator = Estimator.REPARAMETERIZATION,
    baseline: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stochastic gradient of the RELBO w.r.t. (loc, log-scale)."""
    estimator = Estimator(estimator)
    _check_inputs(s.dim, model, q_t, estimator)
    eps = _noise(s.family, n, s.dim, seed)
    g_loc, g_log_scale, _, _ = _relbo_grad_parts(
        s.family, s.loc, s.scale, eps, model, q_t, lam, estimator, baseline
    )
    return g_loc, g_log_scale


def _softplus(x):
    return np.logaddexp(0.0, x)


def _inv_softplus(y):
    # inverse of softplus for y > 0
    return y + np.log(-np.expm1(-y))


class _Adam:
    """Per-coordinate adaptive steps for the atom parameters."""

    def __init__(self, size: int, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        self.v = self.b2 * self.v + (1 - self.b2) * grad * grad
        m_hat = self.m / (1 - self.b1**self.t)
        v_hat = self.v / (1 - self.b2**self.t)
        return self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _initial_params(d: int, rng: np.random.Generator):
    loc = rng.standard_normal(d)
    # start narrow: wide inits tend to settle on mode-averaging atoms
    scale0 = np.full(d, 0.5)
    u = _inv_softplus(np.maximum(scale0 - SCALE_FLOOR, 1e-6))
    return _to_box(loc), u


def _to_box(loc: np.ndarray) -> np.ndarray:
    # np.clip's bits at a fraction of its call overhead
    return np.minimum(np.maximum(loc, -PARAM_BOX), PARAM_BOX)


def lmo_solve(
    model: TargetModel,
    q_t: Optional[Mixture],
    t: int,
    cfg: LmoConfig,
    seed: int,
) -> LmoResult:
    """Fit one atom by stochastic gradient ascent on the RELBO.

    The gradient is the reparameterization estimate when the model has
    ``grad_log_joint_batch``, else the score-function estimate.  The scale
    runs through ``SCALE_FLOOR + softplus(u)`` so the returned atom is never
    degenerate; locations are clipped to ``PARAM_BOX``.  The best iterate
    under an exponential moving average of the RELBO estimate is returned.
    Deterministic given (model, q_t, t, cfg, seed).
    """
    lam = lambda_at(t, cfg.entropy_weight)
    d = model.dim
    _check_inputs(d, model, q_t)
    estimator = (Estimator.SCORE_FUNCTION if model.grad_log_joint_batch is None
                 else Estimator.REPARAMETERIZATION)
    family = cfg.family
    ss = np.random.SeedSequence(entropy=(seed, t))
    init_rng = np.random.default_rng(ss.spawn(1)[0])
    step_seeds = ss.spawn(cfg.n_steps + 1)

    for attempt in range(2):
        loc, u = _initial_params(d, init_rng)
        opt = _Adam(2 * d, cfg.step_size)
        ema = None
        best_ema = -np.inf
        best_params = (loc, u)  # never written in place, so no copies
        baseline = None
        ema_checkpoint = None
        failed = False
        for k in range(cfg.n_steps):
            scale = SCALE_FLOOR + _softplus(u)
            g_loc, g_log_scale, value, f_mean = _relbo_grad_parts(
                family, loc, scale, _noise(family, cfg.n_mc_samples, d, step_seeds[k]),
                model, q_t, lam, estimator, baseline,
            )
            if not (np.isfinite(g_loc).all() and np.isfinite(g_log_scale).all()
                    and math.isfinite(value)):
                failed = True
                break
            # running-mean baseline for the score-function estimator
            baseline = f_mean if baseline is None else 0.9 * baseline + 0.1 * f_mean
            ema = value if ema is None else 0.9 * ema + 0.1 * value
            if k >= min(20, cfg.n_steps // 10) and ema > best_ema:
                best_ema = ema
                best_params = (loc, u)
            if k == (3 * cfg.n_steps) // 4:
                ema_checkpoint = ema
            # chain rule through scale = floor + softplus(u)
            g_u = g_log_scale * expit(u) / scale
            delta = opt.step(np.concatenate([g_loc, g_u]))
            loc = _to_box(loc + delta[:d])
            u = u + delta[d:]
        if failed:
            continue
        loc, u = best_params
        atom = BaseDensity(family, loc, SCALE_FLOOR + _softplus(u))
        # n_steps >= 1, so steps min(20, n_steps // 10) and 3 n_steps // 4
        # have set best_ema and ema_checkpoint
        converged = abs(best_ema - ema_checkpoint) <= 1e-2 * (1.0 + abs(best_ema))
        return LmoResult(atom, float(best_ema), converged, cfg.n_steps)
    raise RuntimeError("non-finite RELBO objective during LMO solve")
