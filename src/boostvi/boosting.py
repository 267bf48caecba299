"""Functional Frank-Wolfe boosting loop with three step-size policies.

Variant 0 uses the fixed schedule gamma = 2 / (delta * t + 2), variant 1 a
Monte-Carlo line search over the blend weight, and variant 2 a fully
corrective simplex Frank-Wolfe solve over all atom weights.  A Monte-Carlo
duality-gap estimate per iteration doubles as stopping certificate, and
``curvature_probe`` exposes the smoothness surrogate used in the theory
checks.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .densities import (
    SCALE_FLOOR,
    BaseDensity,
    Family,
    Mixture,
    QuadratureGrid,
    log_weights,
    quadrature_kl,
    standard_noise,
    _trapezoid,
)
from .lmo import LmoConfig, LmoResult, lmo_solve
from .models import DataError, TargetModel, log_joint_batch


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
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.gap_tolerance < 0:
            raise ValueError("gap_tolerance must be nonnegative")
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
                            "family": a.family.value,
                            "loc": a.loc.tolist(),
                            "scale": a.scale.tolist(),
                        }
                        for a in m.atoms
                    ],
                }
                for m in self.mixtures
            ],
            "eps0": self.eps0,
            "best_iteration": self.best_iteration,
            "stopped_early": self.stopped_early,
        }


def mixture_from_dict(d: dict) -> Mixture:
    """Inverse of one ``mixtures`` entry of :meth:`BoostTrace.to_dict`; the
    weights are renormalized.  An entry no mixture can hold, such as a NaN
    parameter, raises a :class:`DataError`."""
    try:
        atoms = [BaseDensity(Family(a["family"]), a["loc"], a["scale"]) for a in d["atoms"]]
        return Mixture.from_unnormalized(atoms, d["weights"])
    except ValueError as e:
        raise DataError(f"invalid mixture entry: {e}")


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
        return Mixture.from_unnormalized(q_t.atoms + (s,), np.append(weights, gamma))
    weights[i] += gamma
    return Mixture.from_unnormalized(q_t.atoms, weights)


def _crn_mixture_sampler(family: Family, dim: int, n: int, seed):
    """Common-random-number sampler for mixtures of one family and dimension.

    Draws one uniform per sample for component selection and one standardized
    noise row per sample, so that draws at different weights are paired.
    ``sample(q, weights)`` selects among ``q``'s atoms by ``weights``, taken
    before normalization so that its rounding cannot move a selection.
    """
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=n)
    noise = standard_noise(family, n, dim, rng)

    def sample(q: Mixture, weights: np.ndarray) -> np.ndarray:
        edges = np.cumsum(weights)
        edges[-1] = 1.0
        idx = np.minimum(np.searchsorted(edges, u, side="right"), len(weights) - 1)
        return q.locs[idx] + q.scales[idx] * noise

    return sample


LINE_SEARCH_GRID = 21  # gammas 0, 0.05, ..., 1 tried before the refinement
CORRECTIVE_ITERS = 200  # simplex Frank-Wolfe steps of the corrective weight solve


def line_search_gamma(
    q_t: Mixture,
    s: BaseDensity,
    model: TargetModel,
    n_samples: int = 2048,
    seed=0,
) -> float:
    """Variant-1 step size: search over ``LINE_SEARCH_GRID`` gammas plus
    golden-section refinement of the blended negative ELBO, with common random
    numbers across gamma.  Ties are broken toward smaller gamma."""
    atoms = q_t.atoms + (s,)
    sampler = _crn_mixture_sampler(s.family, s.dim, n_samples, seed)

    def objective(gamma: float) -> float:
        # KL up to a constant, E_q[log q - log p], on common random numbers
        weights = np.concatenate([q_t.weights * (1.0 - gamma), [gamma]])
        q = Mixture.from_unnormalized(atoms, weights)
        z = sampler(q, weights)
        return float(np.mean(q.log_prob(z) - log_joint_batch(model, z)))

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
    atoms,
    model: TargetModel,
    n_samples: int = 2048,
    seed=0,
) -> np.ndarray:
    """Variant-2 weight solve: at most ``CORRECTIVE_ITERS`` steps of
    simplex-constrained Frank-Wolfe on the Monte-Carlo negative ELBO, with
    fixed per-atom samples (CRN).

    Uses the identity grad_i = E_{s_i}[log q_w - log p] (up to a constant on
    the simplex) so one batch of samples per atom serves every inner step.

    The weights depend on the gradients only through each step's argmin and
    the stopping test, so most steps take a cheap gradient, log q_w =
    M + log(E w) with E = exp(C - M) and M the row maxima, fixed for the
    whole solve.  A step falls back to the direct log-sum-exp when E w gets
    near underflow or when the cheap gradient leaves the argmin or the
    stopping test within its rounding error; the returned weights are those
    of the direct solve.
    """
    k = len(atoms)
    if k == 1:
        return np.array([1.0])
    q = Mixture.from_unnormalized(atoms, np.ones(k))  # the atoms stacked once
    ss = np.random.SeedSequence(entropy=(_entropy_int(seed), 1414))
    # fixed samples of each atom, from its own stream, and cached log densities
    comp_logs = np.empty((k, n_samples, k))  # comp_logs[i]: log s_j under atom i's samples
    logp = np.empty((k, n_samples))
    for i, s in enumerate(ss.spawn(k)):
        noise = standard_noise(q.family, n_samples, q.dim, np.random.default_rng(s))
        z = q.locs[i] + q.scales[i] * noise
        comp_logs[i] = q.components(z)[0]
        logp[i] = log_joint_batch(model, z)

    def direct_grad(w: np.ndarray) -> np.ndarray:
        logw = log_weights(w)
        grad = np.empty(k)
        for i in range(k):
            shifted = comp_logs[i] + logw
            m = shifted.max(axis=1)
            logq = m + np.log(np.sum(np.exp(shifted - m[:, None]), axis=1))
            grad[i] = np.mean(logq - logp[i])
        return grad

    row_max = comp_logs.max(axis=2)  # (k, n)
    scaled = comp_logs - row_max[:, :, None]
    np.exp(scaled, out=scaled)
    scaled = scaled.reshape(-1, k)
    offset = row_max - logp
    # rounding bound for either gradient: a wide margin over a few ulps of
    # the largest term of log q - log p, where |log(E w)| <= 668 once
    # E w >= 1e-290; not finite when a log density is, and then every step
    # takes the direct gradient
    tol = 1e-12 * (1.0 + np.abs(row_max).max() + np.abs(offset).max() + 668.0)

    w = np.full(k, 1.0 / k)
    for it in range(CORRECTIVE_ITERS):
        exact = True
        if np.isfinite(tol):
            mass = scaled @ w
            if mass.min() >= 1e-290:
                grad = (offset + np.log(mass).reshape(k, -1)).mean(axis=1)
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
    return w / w.sum()


class GapEstimate(NamedTuple):
    value: float
    stderr: float


def certificate_gap(
    q_t: Mixture,
    candidates: list[BaseDensity],
    model: TargetModel,
    n: int,
    seed,
    spike_probe: bool = True,
) -> tuple[GapEstimate, int]:
    """Best Monte-Carlo gap over a candidate atom pool.

    Each candidate s gets an estimate of <q_t - s, log(q_t / p)> with its
    standard error.  ``p`` enters only through the unnormalized log-joint;
    the normalizer cancels between the two expectations.

    The true duality gap is a supremum over all atoms; any finite pool gives a
    lower estimate, so the pool max is the tightest certificate available.
    Pools that include the current mixture's own atoms keep the estimate
    nonnegative in expectation, since the weighted atom gaps sum to zero.
    With ``spike_probe`` the pool also gets a narrow atom at the sampled point
    the mixture under-covers the most — the supremum is approached by
    shrinking atoms at the residual minimizer, so this candidate tightens the
    certificate further (it never influences the returned index).

    Returns the best estimate and the index of the provided atom attaining the
    best gap among ``candidates``.
    """
    if not candidates:
        raise ValueError("need at least one candidate atom")
    if any(s.family is not q_t.family or s.dim != q_t.dim for s in candidates):
        raise ValueError("candidates must share the mixture's family and dimension")
    ss = np.random.SeedSequence(entropy=(_entropy_int(seed), 1618))
    seeds = ss.spawn(len(candidates) + 2)
    zq = q_t.sample(n, seeds[0])
    aq = q_t.log_prob(zq) - log_joint_batch(model, zq)

    def atom_estimate(s: BaseDensity, s_seed) -> GapEstimate:
        noise = standard_noise(q_t.family, n, q_t.dim, np.random.default_rng(s_seed))
        zs = s.loc + s.scale * noise
        as_ = q_t.log_prob(zs) - log_joint_batch(model, zs)
        return GapEstimate(
            float(np.mean(aq) - np.mean(as_)),
            float(math.sqrt(np.var(aq) / n + np.var(as_) / n)),
        )

    best: Optional[GapEstimate] = None
    best_idx = 0
    for i, s in enumerate(candidates):
        est = atom_estimate(s, seeds[i + 1])
        if best is None or est.value > best.value:
            best, best_idx = est, i
    if spike_probe:
        z_star = zq[int(np.argmin(aq))]
        probe = BaseDensity(
            q_t.family, z_star, np.maximum(0.1 * q_t.scales.mean(axis=0), SCALE_FLOOR)
        )
        est = atom_estimate(probe, seeds[-1])
        if est.value > best.value:
            best = est
    return best, best_idx


def curvature_probe(
    s: BaseDensity, q: Mixture, gammas, grid: QuadratureGrid
) -> list[float]:
    """(2 / gamma^2) * KL(q + gamma (s - q) || q) by 1-D quadrature, per gamma."""
    if s.dim != 1 or q.dim != 1:
        raise ValueError("curvature probe is 1-D only")
    z = grid.points()
    dens_s = np.exp(s.log_prob(z.reshape(-1, 1)))
    dens_q = np.exp(q.log_prob(z.reshape(-1, 1)))
    out = []
    for gamma in gammas:
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        y = dens_q + gamma * (dens_s - dens_q)
        assert np.all(y >= 0.0), "blended density went negative"
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = np.where(y > 0, y * (np.log(y) - np.log(dens_q)), 0.0)
        kl = float(_trapezoid(integrand, z))
        out.append(2.0 / gamma**2 * kl)
    return out


_ORACLE_GRID = QuadratureGrid(-12.0, 12.0, 4001)


def _kl_oracle(model: TargetModel, q: Mixture) -> Optional[float]:
    if model.posterior_log_pdf is None or model.dim != 1:
        return None
    return quadrature_kl(q, model.posterior_log_pdf, _ORACLE_GRID)


def run_boosting(
    model: TargetModel,
    cfg: FwConfig,
    progress: Optional[Callable[[IterationRecord], None]] = None,
) -> tuple[Mixture, BoostTrace]:
    """Algorithm: plain BBVI for the initial iterate, then greedy residual
    atoms combined per the configured variant, with a duality-gap certificate
    each iteration.  Returns the iterate with the best training log-likelihood
    (the MC ELBO stands in when the model carries no training data)."""
    ss = np.random.SeedSequence(entropy=(cfg.seed, 2718))
    lmo_seeds = ss.spawn(cfg.max_iters + 2)
    gap_seeds = ss.spawn(cfg.max_iters + 2)
    step_seeds = ss.spawn(cfg.max_iters + 1)
    metric_seed = ss.spawn(1)[0]

    def solve(q: Optional[Mixture], t: int) -> LmoResult:
        lmo_cfg = cfg.lmo
        if q is None:
            # initial iterate is a plain black-box VI fit: full entropy weight
            lmo_cfg = replace(lmo_cfg, entropy_weight=1.0)
        return lmo_solve(model, q, t, lmo_cfg, _entropy_int(lmo_seeds[t]))

    def train_ll(q: Mixture) -> float:
        # common seed across iterates: paired comparisons for selection
        z = q.sample(cfg.gap_samples, metric_seed)
        if model.train_log_likelihood is not None:
            return float(model.train_log_likelihood(z))
        return float(np.mean(log_joint_batch(model, z) - q.log_prob(z)))

    records: list[IterationRecord] = []
    mixtures: list[Mixture] = []

    def record(t: int, gamma: float, q: Mixture, res: LmoResult, t_iter: float) -> None:
        records.append(
            IterationRecord(
                t=t,
                gamma=gamma,
                train_ll=train_ll(q),
                relbo_estimate=res.relbo_estimate,
                kl_oracle=_kl_oracle(model, q),
                wallclock=time.perf_counter() - t_iter,
            )
        )
        mixtures.append(q)
        if progress:
            progress(records[-1])

    def certify(q: Mixture, atom: BaseDensity, t: int) -> tuple[GapEstimate, BaseDensity]:
        """Gap of q over {atom} + its support, stored on the last record; also
        returns the pool's best-gap atom."""
        candidates = [atom] + list(q.atoms)
        gap, best_cand = certificate_gap(
            q, candidates, model, cfg.gap_samples, _entropy_int(gap_seeds[t])
        )
        records[-1].gap_estimate = gap.value
        records[-1].gap_stderr = gap.stderr
        return gap, candidates[best_cand]

    t_start = time.perf_counter()
    res = solve(None, 0)
    q = Mixture.single(res.atom)
    record(0, 1.0, q, res, t_start)
    stopped = False

    for t in range(1, cfg.max_iters + 1):
        t_iter = time.perf_counter()
        res = solve(q, t)
        # the step direction is the pool's best-gap atom: exact Frank-Wolfe
        # restricted to {fresh atom} + current support
        gap, direction = certify(q, res.atom, t)
        # gap_tolerance = 0 disables stopping: the MC gap estimate of an
        # approximate LMO can dip below zero even when the primal error is not
        if cfg.gap_tolerance > 0.0 and gap.value / cfg.delta <= cfg.gap_tolerance:
            stopped = True
            break
        step_seed = _entropy_int(step_seeds[t - 1])
        if cfg.variant is Variant.FIXED_STEP:
            gamma = fixed_step_gamma(t, cfg.delta)
            q = mixture_step(q, direction, gamma)
        elif cfg.variant is Variant.LINE_SEARCH:
            gamma = line_search_gamma(
                q, direction, model, n_samples=cfg.gap_samples, seed=step_seed
            )
            q = mixture_step(q, direction, gamma)
        else:
            trial = mixture_step(q, res.atom, 0.5)  # appends/merges the atom
            weights = fully_corrective_weights(
                trial.atoms, model, n_samples=cfg.gap_samples, seed=step_seed
            )
            q = Mixture(trial.atoms, weights)
            # the fresh atom's weight, at the index it merged into or was appended at
            gamma = float(weights[trial.index_of(res.atom)])
        record(t, gamma, q, res, t_iter)

    if not stopped and cfg.max_iters > 0:
        # certificate for the final iterate needs one extra LMO solve
        final_t = len(records)
        certify(q, solve(q, final_t).atom, final_t)

    best = int(np.argmax([r.train_ll for r in records]))
    trace = BoostTrace(
        records=records,
        mixtures=mixtures,
        eps0=records[0].kl_oracle,
        best_iteration=best,
        stopped_early=stopped,
    )
    return mixtures[best], trace
