"""Functional Frank-Wolfe boosting loop with three step-size policies.

Variant 0 uses the fixed schedule gamma = 2 / (delta * t + 2), variant 1 a
Monte-Carlo line search over the blend weight, and variant 2 a fully
corrective simplex Frank-Wolfe solve over all atom weights.  The loop makes
one pass per LMO solve: pass t fits a fresh atom against q_{t-1}, certifies
q_{t-1}, then steps to q_t, and one extra pass certifies the last iterate.
The certificate estimates the duality gap of every row of a candidate pool:
the fresh atom, the rows of q_{t-1} and a spike probe.  The best row is the
stopping certificate, and the best row other than the probe is the fixed and
line-search step direction.  The certificate and both step solves estimate
E_s[log q - log p] on one table of each atom's fixed samples
(``_atom_sample_table``), built row by row and block by block from the
samples' noise streams, so none holds an (n, D) array of a sampled atom's
samples: the step solves write each row into their one table as it is
produced, and the certificate reduces each row as it is produced.
"""

from __future__ import annotations

import copy
import enum
import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .densities import (
    SCALE_FLOOR,
    BaseDensity,
    DataError,
    Mixture,
    log_weights,
    logsumexp,
    quadrature_kl,
    real_number,
    sample_blocks,
    sample_count,
    standard_noise,
    whole_number,
    _as_params,
    _trapezoid,
)
from .lmo import LmoConfig, _to_box, lmo_solve
from .models import TargetModel, log_joint_batch


def _entropy_int(seed) -> int:
    """Fold a seed-like value into an integer usable as SeedSequence entropy."""
    if isinstance(seed, np.random.SeedSequence):
        return int(seed.generate_state(1)[0])
    return int(seed)


class Variant(str, enum.Enum):
    FIXED_STEP = "fixed_step"
    LINE_SEARCH = "line_search"
    FULLY_CORRECTIVE = "fully_corrective"


@dataclass(frozen=True)
class FwConfig:
    variant: Variant = Variant.FIXED_STEP
    max_iters: int = 10
    delta: float = 1.0  # assumed LMO accuracy, enters the step size and certificate
    gap_tolerance: float = 0.0
    gap_samples: int = 2048
    seed: int = 0
    lmo: LmoConfig = field(default_factory=LmoConfig)

    def __post_init__(self):
        for name in ("max_iters", "gap_samples", "seed"):
            object.__setattr__(self, name, whole_number(getattr(self, name), name))
        for name in ("delta", "gap_tolerance"):
            object.__setattr__(self, name, real_number(getattr(self, name), name))
        if not isinstance(self.lmo, LmoConfig):
            raise TypeError(f"lmo must be an LmoConfig, got {self.lmo!r}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        # written to be False for NaN, so NaN is rejected
        if not 0 <= self.gap_tolerance < math.inf:
            raise ValueError("gap_tolerance must be finite and nonnegative")
        if self.gap_samples < 1:
            raise ValueError(f"gap_samples must be >= 1, got {self.gap_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "variant", Variant(self.variant))


@dataclass
class IterationRecord:
    t: int
    gamma: float
    train_ll: float
    relbo_estimate: float
    gap_estimate: Optional[float] = None
    gap_stderr: Optional[float] = None
    kl_oracle: Optional[float] = None
    wallclock: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BoostTrace:
    records: list[IterationRecord]
    mixtures: list[Mixture]
    eps0: Optional[float] = None
    best_iteration: int = 0
    stopped_early: bool = False

    def to_dict(self) -> dict:
        return {
            "records": [r.to_dict() for r in self.records],
            "mixtures": [
                {
                    "weights": m.weights.tolist(),
                    "atoms": [
                        {
                            "family": m.family.value,
                            "loc": loc.tolist(),
                            "scale": scale.tolist(),
                        }
                        for loc, scale in zip(m.locs, m.scales)
                    ],
                }
                for m in self.mixtures
            ],
            "eps0": self.eps0,
            "best_iteration": self.best_iteration,
            "stopped_early": self.stopped_early,
        }


def variant_config(variant: Variant, seed: int, max_iters: int = 10) -> FwConfig:
    """Per-variant settings of the bimodal benchmark runs: the fixed step
    with the 1/sqrt(t+1) entropy schedule, the line-search and corrective
    variants with delta = 0.5 and a constant entropy weight of 0.2."""
    if variant is Variant.FIXED_STEP:
        return FwConfig(variant=variant, max_iters=max_iters, delta=1.0, seed=seed,
                        lmo=LmoConfig(n_steps=1200))
    n_steps = 1200 if variant is Variant.LINE_SEARCH else 2000
    return FwConfig(variant=variant, max_iters=max_iters, delta=0.5, seed=seed,
                    lmo=LmoConfig(n_steps=n_steps, entropy_weight=0.2))


def fixed_step_gamma(t: int, delta: float) -> float:
    """Variant-0 step size 2 / (delta * t + 2)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    return 2.0 / (delta * t + 2.0)


def _append(q_t: Mixture, s: BaseDensity, weights: np.ndarray) -> Mixture:
    """q_t's rows and then ``s`` as row K, with the K + 1 ``weights`` over their sum."""
    if s.family is not q_t.family or s.dim != q_t.dim:
        raise ValueError("the atom must share the mixture's family and dimension")
    return Mixture(q_t.family, np.vstack([q_t.locs, s.loc]), np.vstack([q_t.scales, s.scale]),
                   weights / weights.sum())


def mixture_step(q_t: Mixture, s: BaseDensity, gamma: float) -> Mixture:
    """Convex step (1 - gamma) * q_t + gamma * s, merging duplicate atoms."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if gamma == 0.0:
        return q_t
    if gamma == 1.0:
        return Mixture.single(s)
    weights = q_t.weights * (1.0 - gamma)
    i = q_t.index_of(s)
    if i is None:
        return _append(q_t, s, np.append(weights, gamma))
    weights[i] += gamma
    return replace(q_t, weights=weights / weights.sum())


LINE_SEARCH_GRID = 21  # gammas 0, 0.05, ..., 1 tried before the refinement
CORRECTIVE_ITERS = 200  # simplex Frank-Wolfe steps of the corrective weight solve


def _atom_sample_table(q: Mixture, locs, scales, model: TargetModel, n: int, rngs,
                       table=None):
    """Each sampled atom's n fixed samples evaluated once, one row of the
    (P, D) ``locs`` and ``scales`` at a time.  Row i's samples are ``locs[i]
    + scales[i] * noise``, with the noise drawn from the Generator
    ``rngs[i]`` one block of ``sample_blocks(n)`` at a time: the rows of one
    (n, D) draw.  Each row yields ``(comp, logp)``: comp (n, K) the log
    density of every atom of ``q`` there, logp (n,) the model's log-joint,
    written into row i of the (P, n, K) and (P, n) pair ``table`` when one
    is given and into fresh arrays otherwise.  Only one block of samples is
    held at a time, so no (n, D) array and at most one (SAMPLE_BLOCK, K, D)
    standardization."""
    for i, (loc, scale, rng) in enumerate(zip(locs, scales, rngs)):
        if table is None:
            comp, logp = np.empty((n, len(q.weights))), np.empty(n)
        else:
            comp, logp = table[0][i], table[1][i]
        for b in sample_blocks(n):
            z = loc + scale * standard_noise(q.family, b.stop - b.start, q.dim, rng)
            comp[b] = q.components(z)[0]
            logp[b] = log_joint_batch(model, z)
        yield comp, logp


def _stacked_table(q: Mixture, locs, scales, model: TargetModel, n: int,
                   rngs) -> tuple[np.ndarray, np.ndarray]:
    """The rows of :func:`_atom_sample_table` as (P, n, K) and (P, n) arrays,
    allocated once and each row written into them as it is produced: no row
    is held beside the table or copied into it."""
    table = np.empty((len(locs), n, len(q.weights))), np.empty((len(locs), n))
    for _ in _atom_sample_table(q, locs, scales, model, n, rngs, table):
        pass
    return table


def _crn_atom_index(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The atom each common-random-number sample of a blend draws: the
    sample's uniform in ``u`` against the cumulative ``weights``, taken before
    normalization so that its rounding cannot move a selection."""
    edges = np.cumsum(weights)
    edges[-1] = 1.0
    return np.minimum(np.searchsorted(edges, u, side="right"), len(weights) - 1)


def line_search_gamma(
    q_t: Mixture,
    s: BaseDensity,
    model: TargetModel,
    n_samples: int = 2048,
    seed=0,
) -> float:
    """Variant-1 step size: search over ``LINE_SEARCH_GRID`` gammas plus
    golden-section refinement of the blended negative ELBO, with common random
    numbers across gamma.  Ties are broken toward smaller gamma.

    The common random numbers are one uniform per sample, which selects the
    sample's atom, and one standardized noise row per sample.  A blend only
    ever draws one of the K + 1 atoms' transforms of the noise, so each atom's
    transform meets the model once, and each gamma is a selection from that
    table."""
    n_samples = sample_count(n_samples, "n_samples")
    k = len(q_t.weights) + 1
    q = _append(q_t, s, np.ones(k))  # q_t's atoms and s as one mixture
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=n_samples)
    # every atom transforms the same noise, the stream after u: each row
    # draws it anew from its own copy of the generator there
    comp_logs, logp = _stacked_table(q, q.locs, q.scales, model, n_samples,
                                     (copy.deepcopy(rng) for _ in range(k)))
    rows = np.arange(n_samples)

    def objective(gamma: float) -> float:
        # KL up to a constant, E_q[log q - log p], on common random numbers
        weights = np.concatenate([q_t.weights * (1.0 - gamma), [gamma]])
        idx = _crn_atom_index(weights, u)
        logq = logsumexp(comp_logs[idx, rows] + log_weights(weights / weights.sum()), axis=1)
        return float(np.mean(logq - logp[idx, rows]))

    gammas = np.linspace(0.0, 1.0, LINE_SEARCH_GRID)
    values = np.array([objective(g) for g in gammas])
    best = int(np.argmin(values))  # argmin takes the first minimum: small-gamma tie-break
    if values[best] >= values[0] - 1e-12:
        return 0.0
    lo = gammas[max(best - 1, 0)]
    hi = gammas[min(best + 1, LINE_SEARCH_GRID - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(40):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = objective(d)
    refined = (a + b) / 2.0
    if objective(refined) < values[best]:
        return float(refined)
    return float(gammas[best])


def fully_corrective_weights(
    q: Mixture,
    model: TargetModel,
    n_samples: int = 2048,
    seed=0,
) -> np.ndarray:
    """Variant-2 weight solve: at most ``CORRECTIVE_ITERS`` steps of
    simplex-constrained Frank-Wolfe on the Monte-Carlo negative ELBO over the
    weights of ``q``'s atoms, from uniform, with fixed per-atom samples (CRN).

    Uses the identity grad_i = E_{s_i}[log q_w - log p] (up to a constant on
    the simplex) so one batch of samples per atom serves every inner step.

    The weights depend on the gradients only through each step's argmin and
    the stopping test, so most steps take a cheap gradient, log q_w =
    M + log(E w) with E = exp(C - M) and M the row maxima, fixed for the
    whole solve.  E w is one (k, n) array stepped with the weights, one
    column of E per step (:class:`_SteppedMass`); its rounding drift stays
    within about 1e-13 in log(E w) over the solve, which the tolerance, at
    least 6.7e-10, covers many times over.  A step falls back to the direct
    log-sum-exp when E w gets near underflow or when the cheap gradient
    leaves the argmin or the stopping test within that tolerance; the
    returned weights are those of the direct solve.
    """
    n_samples = sample_count(n_samples, "n_samples")
    k = len(q.weights)
    if k == 1:
        return np.array([1.0])
    ss = np.random.SeedSequence(entropy=(_entropy_int(seed), 1414))
    # fixed samples of each atom, from its own stream, and cached log densities
    comp_logs, logp = _stacked_table(q, q.locs, q.scales, model, n_samples,
                                     map(np.random.default_rng, ss.spawn(k)))

    def direct_grad(w: np.ndarray) -> np.ndarray:
        # row by row: no (k, n, k) temporaries
        log_w = log_weights(w)
        return np.array([np.mean(logsumexp(comp + log_w, axis=1) - lp)
                         for comp, lp in zip(comp_logs, logp)])

    row_max = comp_logs.max(axis=2)  # (k, n)
    offset = row_max - logp
    tol = _corrective_tolerance(row_max, offset)
    offset = offset.mean(axis=1)  # the cheap gradient's M - log p, averaged once

    w = np.full(k, 1.0 / k)
    stepped = _SteppedMass(comp_logs, row_max, w) if np.isfinite(tol) else None
    for it in range(CORRECTIVE_ITERS):
        exact = True
        if stepped is not None and stepped.mass.min() >= 1e-290:
            grad = stepped.gradient(offset)
            j = int(np.argmin(grad))
            fw_gap = float(w @ grad - grad[j])
            runner_up = np.partition(grad, 1)[1]
            exact = not (runner_up - grad[j] > tol and abs(fw_gap - 1e-8) > tol)
        if exact:
            grad = direct_grad(w)
            j = int(np.argmin(grad))
            fw_gap = float(w @ grad - grad[j])
        if fw_gap <= 1e-8:
            break
        gamma = 2.0 / (it + 2.0)
        w = (1.0 - gamma) * w
        w[j] += gamma
        if stepped is not None:
            stepped.step(j, gamma)
    return w / w.sum()


def _corrective_tolerance(row_max: np.ndarray, offset: np.ndarray) -> float:
    """Rounding bound for either gradient of the corrective solve: a wide
    margin over a few ulps of the largest term of log q - log p, where
    |log(E w)| <= 668 once E w >= 1e-290, and over the stepped mass's
    drift, about 1e-13 in log(E w).  Not finite when a log density is, and
    then every step takes the direct gradient."""
    return 1e-12 * (1.0 + np.abs(row_max).max() + np.abs(offset).max() + 668.0)


class _SteppedMass:
    """E w of the corrective solve's cheap gradient, for the (k, n, k)
    table C, its (k, n) row maxima M and E = exp(C - M): one (k, n) array,
    set from E's columns at the weights w and then stepped with them.  When
    w becomes (1 - gamma) w + gamma e_j, E w becomes (1 - gamma) E w +
    gamma E[:, :, j], so no (k, n, k) array beside the table is formed.

    Stepping carries each step's rounding forward: a few ulps of E w per
    step, and of the weights it tracks, none grown by the later (1 - gamma)
    factors, so over ``CORRECTIVE_ITERS`` steps about 1e-13 relative and
    about 1e-13 in log(E w), against a tolerance of at least 6.7e-10."""

    def __init__(self, comp_logs: np.ndarray, row_max: np.ndarray, w: np.ndarray):
        self._comp_logs, self._row_max = comp_logs, row_max
        self._scratch = np.empty_like(row_max)
        self.mass = np.zeros_like(row_max)
        for j, w_j in enumerate(w):
            self.mass += self._column(j, w_j)

    def _column(self, j: int, factor: float) -> np.ndarray:
        """factor * E[:, :, j], in the scratch array."""
        out = np.subtract(self._comp_logs[:, :, j], self._row_max, out=self._scratch)
        np.exp(out, out=out)
        out *= factor
        return out

    def step(self, j: int, gamma: float) -> None:
        """E w after w becomes (1 - gamma) w + gamma e_j."""
        self.mass *= 1.0 - gamma
        self.mass += self._column(j, gamma)

    def gradient(self, offset: np.ndarray) -> np.ndarray:
        """The cheap gradient, ``offset`` plus the row means of log(E w),
        with ``offset`` the row means of M - log p: the row means of log q_w
        - log p, rounded a few ulps of the largest term apart."""
        return offset + np.log(self.mass, out=self._scratch).mean(axis=1)


def certificate_gap(
    q_t: Mixture,
    locs,
    scales,
    model: TargetModel,
    n: int,
    seed,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo gaps of candidate atoms and of a spike probe, row by row.

    Each row s of the (P, D) ``locs`` and ``scales`` is a candidate atom of
    ``q_t``'s family and gets an estimate of <q_t - s, log(q_t / p)> with its
    standard error; the normalizer of ``p`` cancels between the two
    expectations.  The true duality gap is a supremum over all atoms, so the
    pool max is a lower estimate of it, nonnegative in expectation when the
    pool holds q_t's own atoms, whose weighted gaps sum to zero.  The last
    row is always a spike probe: a narrow atom at the sample q_t covers
    worst, clipped to the location box, where shrinking atoms approach the
    supremum.  Row i draws from stream i + 1 of ``seed``, the probe from the
    last, and all rows are rows of one :func:`_atom_sample_table`, each
    reduced to its n log-ratios as it is produced, so no (P + 1, n, K) table
    is formed.

    Returns ``(values, stderrs)``, each of shape (P + 1,), the probe last.
    """
    n = sample_count(n, "n")
    locs, scales = _as_params(locs, scales, ndim=2)
    if len(locs) == 0 or locs.shape[1] != q_t.dim:
        raise ValueError(f"candidates must be (P, D) rows with P >= 1 and D = {q_t.dim}, "
                         f"got shape {locs.shape}")
    seeds = np.random.SeedSequence(entropy=(_entropy_int(seed), 1618)).spawn(len(locs) + 2)
    zq = q_t.sample(n, seeds[0])
    aq = np.empty(n)
    for b in sample_blocks(n):
        aq[b] = q_t.log_prob(zq[b])
    aq -= log_joint_batch(model, zq)
    # the probe: one more row, at the sample q_t covers worst
    locs = np.vstack([locs, _to_box(zq[int(np.argmin(aq))])])
    scales = np.vstack([scales, np.maximum(0.1 * q_t.scales.mean(axis=0), SCALE_FLOOR)])
    del zq  # freed before the rows draw their samples
    log_w = log_weights(q_t.weights)
    as_ = np.empty((len(locs), n))
    rows = _atom_sample_table(q_t, locs, scales, model, n, map(np.random.default_rng, seeds[1:]))
    for i, (comp, lp) in enumerate(rows):
        comp += log_w
        as_[i] = logsumexp(comp, axis=1) - lp
    values = np.mean(aq) - np.mean(as_, axis=1)
    stderrs = np.sqrt(np.var(aq) / n + np.var(as_, axis=1) / n)
    return values, stderrs


_ORACLE_GRID = np.linspace(-12.0, 12.0, 4001)
_ORACLE_GRID.setflags(write=False)


def _kl_oracle(model: TargetModel, q: Mixture) -> Optional[float]:
    if model.posterior_log_pdf is None or model.dim != 1:
        return None
    return quadrature_kl(q, model.posterior_log_pdf, _ORACLE_GRID)


def check_kl_oracle_grid(model: TargetModel, source: str) -> None:
    """Raise a :class:`DataError`, naming ``source`` as the cause, unless the
    KL oracle's grid holds and resolves the model's normalized 1-D posterior:
    its trapezoid mass there must be 1 to within 1e-6.  The oracle
    renormalizes the posterior on its grid, so its KL is garbage for a
    component off the grid or narrower than the grid spacing.  A model
    without an oracle passes."""
    if model.posterior_log_pdf is None or model.dim != 1:
        return
    z = _ORACLE_GRID
    mass = float(_trapezoid(np.exp(model.posterior_log_pdf(z)), z))
    if not abs(mass - 1.0) <= 1e-6:
        raise DataError(f"{source} give the target mass {mass:.6g} on the KL oracle's grid, "
                        f"not 1: every component must lie inside [{z[0]:g}, {z[-1]:g}] "
                        f"and span several of its {z[1] - z[0]:g} steps")


def run_boosting(
    model: TargetModel,
    cfg: FwConfig,
    progress: Optional[Callable[[IterationRecord], None]] = None,
) -> tuple[Mixture, BoostTrace]:
    """One pass per LMO solve: pass t fits a fresh atom against q_{t-1} (pass
    0, with no q, is plain BBVI), certifies q_{t-1} on the pool [fresh atom;
    q_{t-1}'s rows; spike probe] into q_{t-1}'s record, steps to q_t and
    records it.  A gap under ``gap_tolerance`` stops before the step; when
    ``max_iters`` > 0, one extra pass certifies the last iterate.  Returns the
    iterate with the best training log-likelihood (the MC ELBO stands in when
    the model carries no training data)."""
    ss = np.random.SeedSequence(entropy=(cfg.seed, 2718))
    lmo_seeds = ss.spawn(cfg.max_iters + 2)
    gap_seeds = ss.spawn(cfg.max_iters + 2)
    step_seeds = ss.spawn(cfg.max_iters + 1)
    metric_seed = ss.spawn(1)[0]

    records: list[IterationRecord] = []
    mixtures: list[Mixture] = []
    q: Optional[Mixture] = None
    stopped = False
    for t in range(cfg.max_iters + 1 + (cfg.max_iters > 0)):
        t_iter = time.perf_counter()
        # the initial iterate is a plain black-box VI fit: full entropy weight
        lmo_cfg = replace(cfg.lmo, entropy_weight=1.0) if q is None else cfg.lmo
        res = lmo_solve(model, q, t, lmo_cfg, _entropy_int(lmo_seeds[t]))
        if q is None:
            gamma, q = 1.0, Mixture.single(res.atom)
        else:
            values, stderrs = certificate_gap(q, np.vstack([res.atom.loc, q.locs]),
                                              np.vstack([res.atom.scale, q.scales]), model,
                                              cfg.gap_samples, _entropy_int(gap_seeds[t]))
            # argmax takes the first maximum: the probe, last, wins only when strictly greater
            best = int(np.argmax(values))
            gap = records[-1].gap_estimate = float(values[best])
            records[-1].gap_stderr = float(stderrs[best])
            if t > cfg.max_iters:  # the extra pass: q_M is certified and nothing steps
                break
            # gap_tolerance = 0 disables stopping: the MC gap estimate of an
            # approximate LMO can dip below zero even when the primal error is not
            if cfg.gap_tolerance > 0.0 and gap / cfg.delta <= cfg.gap_tolerance:
                stopped = True
                break
            step_seed = _entropy_int(step_seeds[t - 1])
            if cfg.variant is Variant.FULLY_CORRECTIVE:
                trial = mixture_step(q, res.atom, 0.5)  # appends/merges the atom
                weights = fully_corrective_weights(trial, model, n_samples=cfg.gap_samples,
                                                   seed=step_seed)
                q = replace(trial, weights=weights)
                # the fresh atom's weight, at the index it merged into or was appended at
                gamma = float(weights[trial.index_of(res.atom)])
            else:
                # the step direction is the pool's best-gap atom other than the
                # probe: exact Frank-Wolfe restricted to {fresh atom} + current support
                j = int(np.argmax(values[:-1]))
                direction = res.atom if j == 0 else q.atom(j - 1)
                if cfg.variant is Variant.FIXED_STEP:
                    gamma = fixed_step_gamma(t, cfg.delta)
                else:
                    gamma = line_search_gamma(q, direction, model, n_samples=cfg.gap_samples,
                                              seed=step_seed)
                q = mixture_step(q, direction, gamma)
        # common seed across iterates: paired comparisons for selection
        z = q.sample(cfg.gap_samples, metric_seed)
        if model.train_log_likelihood is not None:
            train_ll = float(model.train_log_likelihood(z))
        else:
            train_ll = float(np.mean(log_joint_batch(model, z) - q.log_prob(z)))
        del z  # freed before the next pass's certificate draws its samples
        records.append(IterationRecord(t=t, gamma=gamma, train_ll=train_ll,
                                       relbo_estimate=res.relbo_estimate,
                                       kl_oracle=_kl_oracle(model, q),
                                       wallclock=time.perf_counter() - t_iter))
        mixtures.append(q)
        if progress:
            progress(records[-1])

    best = int(np.argmax([r.train_ll for r in records]))
    trace = BoostTrace(
        records=records,
        mixtures=mixtures,
        eps0=records[0].kl_oracle,
        best_iteration=best,
        stopped_early=stopped,
    )
    return mixtures[best], trace
