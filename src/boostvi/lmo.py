"""Black-box atom solver: stochastic gradient ascent on the residual ELBO.

The inner Frank-Wolfe step fits a fresh atom s by maximizing

    E_s[log p(x, z)] - lambda * E_s[log s(z)] - E_s[log q_t(z)]

over the atom's (loc, log-scale) parameters.  With ``q_t`` absent and
lambda = 1 this is exactly the ELBO, i.e. plain black-box VI.  Gradients come
from the reparameterization trick when the model supplies its value-and-gradient
callable, one model call per step, else from the score-function estimator with
a baseline, which calls only the log-joint: the model alone picks the
estimator.  The entropy term is always handled analytically.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .densities import (
    PARAM_BOX,
    SCALE_FLOOR,
    BaseDensity,
    Family,
    Mixture,
    coordinate_log_prob,
    log_normalizer,
    real_number,
    sample_count,
    standard_noise,
    standard_score,
    whole_number,
)
from .models import TargetModel


# Adam squares the log-scale gradient, which carries lambda, so a larger
# constant lambda overflows on the first step
MAX_ENTROPY_WEIGHT = math.sqrt(sys.float_info.max)


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
        for name in ("n_mc_samples", "n_steps"):
            object.__setattr__(self, name, whole_number(getattr(self, name), name))
        object.__setattr__(self, "step_size", real_number(self.step_size, "step_size"))
        if self.entropy_weight is not None:
            object.__setattr__(self, "entropy_weight",
                               real_number(self.entropy_weight, "entropy_weight"))
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.n_mc_samples < 1:
            raise ValueError("n_mc_samples must be >= 1")
        # each range test is False for NaN, so NaN is rejected
        if not 0 < self.step_size < math.inf:
            raise ValueError("step_size must be finite and positive")
        if (self.entropy_weight is not None
                and not 0 < self.entropy_weight <= MAX_ENTROPY_WEIGHT):
            raise ValueError(f"entropy_weight (lambda) must be positive and at most "
                             f"{MAX_ENTROPY_WEIGHT:.4g}")
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


def _check_inputs(dim: int, model: TargetModel, q_t: Optional[Mixture]) -> None:
    if dim != model.dim:
        raise ValueError("atom and model dimension disagree")
    if q_t is not None and q_t.dim != model.dim:
        raise ValueError("mixture and model dimension disagree")


def relbo_estimate(
    s: BaseDensity,
    model: TargetModel,
    q_t: Optional[Mixture],
    lam: float,
    n: int,
    seed,
) -> float:
    """Monte-Carlo residual-ELBO estimate over ``n`` samples from ``s``: the
    value the atom solver's steps compute.  Its bits do not depend on the
    estimator the model picks, since a model's value-and-gradient callable
    returns the log-joint's value bit for bit.

    Without ``q_t`` (first iteration) the residual term is dropped, so with
    lam = 1 this is the plain ELBO estimate on the same samples.
    """
    _check_inputs(s.dim, model, q_t)
    eps = _noise(s.family, sample_count(n, "n"), s.dim, seed)
    return _relbo_grad_parts(s.family, s.loc, s.scale, eps, model, q_t, lam, None)[2]


def elbo_estimate(s: BaseDensity, model: TargetModel, n: int, seed) -> float:
    """Plain black-box VI objective: RELBO with lam = 1 and no current iterate."""
    return relbo_estimate(s, model, None, 1.0, n, seed)


def _relbo_grad_parts(
    family: Family,
    loc: np.ndarray,
    scale: np.ndarray,
    eps: np.ndarray,
    model: TargetModel,
    q_t: Optional[Mixture],
    lam: float,
    baseline: Optional[float],
):
    """One estimator call at atom (family, loc, scale) on the noise ``eps`` (n, D):
    reparameterization when the model has ``grad_log_joint_batch``, else the
    score function with ``baseline`` (None: the batch mean).

    Works on raw arrays: the caller has checked the dimensions.  Returns
    (g_loc, g_log_scale, relbo_value, residual_mean).
    """
    n = len(eps)
    reparam = model.grad_log_joint_batch is not None
    z = loc + scale * eps
    # residual integrand f = log p - log q_t, and its gradient g in z
    if reparam:
        value_and_grad = model.grad_log_joint_batch(z)
        if not isinstance(value_and_grad, tuple):
            # a bare (2, D) gradient would unpack without error
            raise TypeError("grad_log_joint_batch must return the tuple (log_joint, gradient)")
        f, g = value_and_grad
        if q_t is not None:
            log_q, grad_q = q_t.log_prob_and_grad(z)
            f, g = f - log_q, g - grad_q
    else:
        f = model.log_joint_batch(z)
        if q_t is not None:
            f = f - q_t.log_prob(z)
    u = (z - loc) / scale
    log_s = coordinate_log_prob(family, log_normalizer(family, scale), u).sum(axis=1)
    f_mean = f.sum() / n
    value = float(f_mean - lam * (log_s.sum() / n))

    if reparam:
        g_loc = g.sum(axis=0) / n
        g_log_scale = (g * eps).sum(axis=0) / n * scale
    else:
        b = f_mean if baseline is None else baseline
        # d log s / d loc = -psi / scale, d log s / d log-scale = -psi u - 1
        neg_psi = -standard_score(family, u)
        centered = (f - b)[:, None]
        g_loc = (centered * (neg_psi / scale)).sum(axis=0) / n
        g_log_scale = (centered * (neg_psi * u - 1.0)).sum(axis=0) / n
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
    baseline: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stochastic gradient of the RELBO w.r.t. (loc, log-scale), by the
    estimator the model picks, as in :func:`lmo_solve`."""
    _check_inputs(s.dim, model, q_t)
    eps = _noise(s.family, sample_count(n, "n"), s.dim, seed)
    g_loc, g_log_scale, _, _ = _relbo_grad_parts(
        s.family, s.loc, s.scale, eps, model, q_t, lam, baseline
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


def _child_seed(ss: np.random.SeedSequence, i: int) -> np.random.SeedSequence:
    """Child ``i`` (from 0) of those that ``ss.spawn`` hands out, built on its
    own: the atom solver makes each step's seed when the step runs, not all
    ``n_steps`` of them up front."""
    return np.random.SeedSequence(ss.entropy, spawn_key=(*ss.spawn_key, i),
                                  pool_size=ss.pool_size)


def lmo_solve(
    model: TargetModel,
    q_t: Optional[Mixture],
    t: int,
    cfg: LmoConfig,
    seed: int,
) -> LmoResult:
    """Fit one atom by stochastic gradient ascent on the RELBO.

    The gradient is the reparameterization estimate when the model has
    ``grad_log_joint_batch``, which each step calls once for the log-joint
    and its gradient; else it is the score-function estimate, whose steps
    call ``log_joint_batch`` once each.  The scale
    runs through ``SCALE_FLOOR + softplus(u)`` so the returned atom is never
    degenerate; locations are clipped to ``PARAM_BOX``.  The best iterate
    under an exponential moving average of the RELBO estimate is returned.
    Deterministic given (model, q_t, t, cfg, seed).
    """
    lam = lambda_at(t, cfg.entropy_weight)
    d = model.dim
    _check_inputs(d, model, q_t)
    family = cfg.family
    ss = np.random.SeedSequence(entropy=(seed, t))
    # child 0 draws the initial points, child k + 1 step k's noise
    init_rng = np.random.default_rng(_child_seed(ss, 0))

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
            softplus_u = _softplus(u)
            scale = SCALE_FLOOR + softplus_u
            g_loc, g_log_scale, value, f_mean = _relbo_grad_parts(
                family, loc, scale, _noise(family, cfg.n_mc_samples, d, _child_seed(ss, k + 1)),
                model, q_t, lam, baseline,
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
            # chain rule through scale = floor + softplus(u): softplus'(u) =
            # sigmoid(u) = 1 - exp(-softplus(u)), from the softplus in hand
            g_u = g_log_scale * -np.expm1(-softplus_u) / scale
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
