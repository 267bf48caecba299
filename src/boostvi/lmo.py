"""Black-box atom solver: stochastic gradient ascent on the residual ELBO.

The inner Frank-Wolfe step fits a fresh atom s by maximizing

    E_s[log p(x, z)] - lambda * E_s[log s(z)] - E_s[log q_t(z)]

over the atom's (loc, log-scale) parameters.  With ``q_t`` absent and
lambda = 1 this is exactly the ELBO, i.e. plain black-box VI.  Gradients come
from the reparameterization trick when the model supplies its value-and-gradient
callable, one model call per step, else from the score-function estimator with
a baseline, which calls only the log-joint: the model alone picks the
estimator.  The entropy term's gradient is always handled analytically, and
the RELBO value's Monte-Carlo E_s[log s] is read off the step's standardized
noise eps: the log normalizer summed over D plus the mean standardized log
density of eps, so the samples z = loc + scale * eps are never standardized
again.

A solve draws its randomness from the children of ``SeedSequence((seed, t))``:
child 0 draws the initial points and child k + 1 step k's noise, bit for bit
the streams ``ss.spawn`` hands out.  The solve derives every child's PCG64
state in one vectorized pass, a table of (n_steps + 1, 4) words, and sets one
generator to step k's state before its draw, so no step builds a seed or a
generator.
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
    DataError,
    Family,
    Mixture,
    log_normalizer,
    real_number,
    sample_count,
    standard_noise,
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


def _mean_log_density(family: Family, scale: np.ndarray, eps: np.ndarray) -> float:
    """Monte-Carlo E_s[log s] of an atom with ``scale`` on its samples loc +
    scale * eps, read off the noise ``eps`` (n, D): the summed log normalizer
    plus the mean standardized log density of eps, with no standardization
    of the samples."""
    if family is Family.GAUSSIAN:
        standardized = -0.5 * np.vdot(eps, eps)
    else:
        standardized = -np.abs(eps).sum()
    return np.add.reduce(log_normalizer(family, scale)) + standardized / len(eps)


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
    f_mean = f.sum() / n
    value = float(f_mean - lam * _mean_log_density(family, scale, eps))

    if reparam:
        g_loc = g.sum(axis=0) / n
        g_log_scale = (g * eps).sum(axis=0) / n * scale
    else:
        b = f_mean if baseline is None else baseline
        # d log s / d loc = -psi / scale, d log s / d log-scale = -psi u - 1,
        # at the standardized points u = (z - loc) / scale, which are eps;
        # -psi, minus the standardized score, is u (Gaussian) or sign(u)
        neg_psi = eps if family is Family.GAUSSIAN else np.sign(eps)
        centered = (f - b)[:, None]
        g_loc = (centered * (neg_psi / scale)).sum(axis=0) / n
        g_log_scale = (centered * (neg_psi * eps - 1.0)).sum(axis=0) / n
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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _uint32_words(value) -> list[int]:
    """The 32-bit words, least significant first, that SeedSequence reads a
    whole number >= 0, or a sequence of them, as."""
    if not isinstance(value, (int, np.integer)):
        return [w for v in value for w in _uint32_words(v)]
    value = int(value)
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's ``hashmix`` from hash constant ``init``, which each call
    multiplies by ``mult``, on uint32 arrays: they wrap without the warning a
    numpy scalar product gives."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _child_words(ss: np.random.SeedSequence, count: int) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of children 0..count-1 of ``ss``, the
    ones ``ss.spawn`` hands out, as (count, 4) rows.

    numpy's SeedSequence algorithm (entropy assembly, ``mix_entropy``,
    ``generate_state``) run over all children at once: they differ only in
    the last word of their spawn key.
    """
    run = _uint32_words(ss.entropy)
    # a child has a spawn key, so numpy pads its run entropy to the pool size
    run += [0] * (ss.pool_size - len(run))
    # every child's entropy is these words and then its own index: the shared
    # words hash once, as one-element arrays that broadcast against the index
    entropy = [np.array([word], np.uint32) for word in run + _uint32_words(ss.spawn_key)]
    entropy.append(np.arange(count, dtype=np.uint32))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    hashmix = _hasher(_INIT_A, _MULT_A)
    # the entropy is longer than the pool, so the pool starts from its words
    pool = [hashmix(word) for word in entropy[:ss.pool_size]]
    for src in range(ss.pool_size):
        for dst in range(ss.pool_size):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[ss.pool_size:]:
        for dst in range(ss.pool_size):
            pool[dst] = mix(pool[dst], hashmix(word))

    output = _hasher(_INIT_B, _MULT_B)
    state = np.empty((count, 4), "<u8")
    # as numpy reads them: uint64 word j is uint32 words 2j (low) and 2j + 1
    halves = state.view("<u4")
    for i in range(8):
        halves[:, i] = output(pool[i % ss.pool_size])
    return state.astype(np.uint64, copy=False)


def _pcg64_state(row: np.ndarray) -> dict:
    """``bit_generator.state`` of ``np.random.PCG64(child)``, where ``row`` is
    the child's ``generate_state(4, np.uint64)``: PCG64's seeding
    (``pcg64_set_seed``) on one row, in Python ints."""
    state_high, state_low, seq_high, seq_low = row.tolist()
    inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
    state = ((inc + (state_high << 64 | state_low)) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


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

    ``seed`` and ``t`` are whole numbers >= 0.  Child 0 of
    ``SeedSequence((seed, t))`` draws the initial points, also the second one
    after a non-finite attempt, and child k + 1 step k's noise: one table of
    stream states per solve, bit for bit the children ``ss.spawn`` hands out.
    """
    seed, t = whole_number(seed, "seed"), whole_number(t, "t")
    for name, whole in (("seed", seed), ("t", t)):
        if whole < 0:
            raise DataError(f"{name} must be >= 0, got {whole}")
    lam = lambda_at(t, cfg.entropy_weight)
    d = model.dim
    _check_inputs(d, model, q_t)
    family = cfg.family
    # each generator is set to the state default_rng(child) starts in
    streams = _child_words(np.random.SeedSequence(entropy=(seed, t)), cfg.n_steps + 1)
    init_rng, step_rng = np.random.default_rng(0), np.random.default_rng(0)
    init_rng.bit_generator.state = _pcg64_state(streams[0])
    step_bits = step_rng.bit_generator

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
            step_bits.state = _pcg64_state(streams[k + 1])
            g_loc, g_log_scale, value, f_mean = _relbo_grad_parts(
                family, loc, scale, standard_noise(family, cfg.n_mc_samples, d, step_rng),
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
