"""Numeric probes backing the theory claims: entropy/sup-norm identity,
curvature boundedness, and the duality-gap bound on the primal error."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boosting import FwConfig, Variant, mixture_step, run_boosting
from .densities import BaseDensity, Family, Mixture, kl_gaussian_closed, _trapezoid
from .lmo import LmoConfig
from .models import synthetic_bimodal_target

PROBE_GRID = np.linspace(-16.0, 16.0, 8001)
PROBE_GRID.setflags(write=False)
SCALE_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)
CURVATURE_GAMMAS = (1e-3, 1e-2, 0.1, 0.5, 1.0)
# integrand at a grid end, relative to its peak, above which the chi-square
# integral counts as not resolved on the grid
TAIL_TOL = 1e-8


@dataclass(frozen=True)
class ProbeResult:
    name: str
    passed: bool
    detail: str


def entropy_bound_probe() -> list[ProbeResult]:
    """Entropy + log sup-norm identity: exactly 1/2 per dimension (Gaussian)
    and exactly 1 per dimension (Laplace) over a scale grid."""
    results = []
    for family, slack in ((Family.GAUSSIAN, 0.5), (Family.LAPLACE, 1.0)):
        worst = 0.0
        for s in SCALE_GRID:
            for dim in (1, 2, 3):
                d = BaseDensity(family, np.zeros(dim), np.full(dim, s))
                gap = d.entropy() + d.log_sup_norm() - slack * dim
                worst = max(worst, abs(gap))
        results.append(
            ProbeResult(
                name=f"entropy-bound/{family.value}",
                passed=worst <= 1e-10,
                detail=f"max |H + log sup - {slack}/dim| = {worst:.3e}",
            )
        )
    return results


def curvature_probe(s: BaseDensity, q: Mixture, gammas, z: np.ndarray) -> list[float]:
    """(2 / gamma^2) * KL(q + gamma (s - q) || q) by 1-D quadrature on the
    grid ``z``, per gamma.  The blend is the engine's step
    :func:`~boostvi.boosting.mixture_step`, so an ``s`` among ``q``'s atoms
    merges into it, and KL is integrated in log space without renormalizing,
    since both densities are proper."""
    if s.dim != 1 or q.dim != 1:
        raise ValueError("curvature probe is 1-D only")
    log_q = q.log_prob(z.reshape(-1, 1))
    out = []
    for gamma in gammas:
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        log_b = mixture_step(q, s, gamma).log_prob(z.reshape(-1, 1))
        kl = float(_trapezoid(np.exp(log_b) * (log_b - log_q), z))
        out.append(2.0 / gamma**2 * kl)
    return out


def chi_square_limit(s: BaseDensity, q, z: np.ndarray = PROBE_GRID) -> float:
    """Quadrature value of the true gamma -> 0 curvature limit, int (s-q)^2 / q.

    Returns ``math.inf`` when the integrand has not decayed at the grid ends,
    that is when its value at either end exceeds ``TAIL_TOL`` times its peak.
    For Gaussian s and q this happens exactly when var_s >= 2 var_q, where the
    integral diverges; a finite value there would only measure the grid.  A
    grid too narrow to hold a finite integrand's mass also reads as ``inf``,
    since the quadrature cannot tell the two apart.
    """
    log_s = s.log_prob(z.reshape(-1, 1))
    log_q = q.log_prob(z.reshape(-1, 1))
    # (s - q)^2 / q in log space: in the tails s^2 / q overflows and q
    # underflows to zero, which would hide a diverging integrand
    with np.errstate(divide="ignore"):
        log_abs_diff = np.maximum(log_s, log_q) + np.log(-np.expm1(-np.abs(log_s - log_q)))
    log_integrand = 2.0 * log_abs_diff - log_q
    if max(log_integrand[0], log_integrand[-1]) > log_integrand.max() + math.log(TAIL_TOL):
        return math.inf
    return float(_trapezoid(np.exp(log_integrand), z))


def gaussian_pair_grid() -> list[tuple[BaseDensity, Mixture]]:
    """9 (s, q) Gaussian pairs spanning locations and scales inside the box."""
    params = [
        ((0.0, 1.0), (1.0, 1.0)),
        ((0.0, 1.0), (0.0, 2.0)),
        ((-1.0, 0.5), (1.0, 0.5)),
        ((0.0, 0.5), (0.0, 1.0)),
        ((2.0, 1.0), (0.0, 1.0)),
        ((0.0, 2.0), (1.0, 0.5)),
        ((-0.5, 1.5), (0.5, 1.0)),
        ((1.0, 1.0), (1.0, 1.0)),
        ((0.5, 0.7), (-0.5, 1.3)),
    ]
    pairs = []
    for (ls, ss_), (lq, sq) in params:
        s = BaseDensity(Family.GAUSSIAN, [ls], [ss_])
        q = Mixture.single(BaseDensity(Family.GAUSSIAN, [lq], [sq]))
        pairs.append((s, q))
    return pairs


def curvature_probe_suite() -> list[ProbeResult]:
    """Finiteness over the gamma range, the exact gamma = 1 endpoint, and the
    gamma -> 0 limit against its chi-square-integral oracle."""
    results = []
    finite_ok = True
    max_value = 0.0
    endpoint_err = 0.0
    limit_err = 0.0
    limit_ok = True
    for s, q in gaussian_pair_grid():
        values = curvature_probe(s, q, CURVATURE_GAMMAS, PROBE_GRID)
        finite_ok = finite_ok and all(np.isfinite(v) for v in values)
        max_value = max(max_value, max(values))
        kl_sq = kl_gaussian_closed(s, q.atom(0))
        endpoint_err = max(endpoint_err, abs(values[-1] - 2.0 * kl_sq))
        limit = chi_square_limit(s, q)
        if limit <= 1e-12:
            limit_ok = limit_ok and abs(values[0]) <= 1e-6
            continue
        # When var_s >= 2 var_q the limit is infinite and the probe must still
        # grow as gamma shrinks.  When s sits far out in q's tail the limit is
        # finite but only reached at far smaller gamma than we can resolve;
        # there the probe must still sit below its limit.  Convergence is
        # detected by comparing the two smallest gammas.
        if math.isinf(limit):
            limit_ok = limit_ok and values[0] > values[1]
            continue
        converged = abs(values[0] - values[1]) <= 0.05 * values[0]
        if converged:
            limit_err = max(limit_err, abs(values[0] - limit) / limit)
        else:
            limit_ok = limit_ok and values[0] <= 1.05 * limit
    results.append(
        ProbeResult(
            "curvature/finite",
            finite_ok and np.isfinite(max_value),
            f"max probe value over grid = {max_value:.4g}",
        )
    )
    results.append(
        ProbeResult(
            "curvature/gamma=1 endpoint",
            endpoint_err <= 1e-6,
            f"max |probe(1) - 2 KL(s||q)| = {endpoint_err:.3e}",
        )
    )
    results.append(
        ProbeResult(
            "curvature/gamma->0 limit",
            limit_ok and limit_err <= 0.05,
            f"max rel. error vs chi-square integral at gamma=1e-3: {limit_err:.3e} "
            "(unsettled pairs checked as below their limit, divergent pairs as "
            "still growing)",
        )
    )
    return results


def gap_bound_probe(seed: int = 0, max_iters: int = 4) -> list[ProbeResult]:
    """On the bimodal instance the target lies in the atom family's convex
    hull, so the primal error equals KL(q_t || p); the estimated certificate
    gap/delta + 4 stderr must sit above it at every certified iteration.  The
    probe passes only when it checked at least one certificate: at
    ``max_iters`` 0 the single fit is not certified, so it fails."""
    model = synthetic_bimodal_target()
    cfg = FwConfig(
        variant=Variant.FIXED_STEP,
        max_iters=max_iters,
        delta=0.5,
        seed=seed,
        lmo=LmoConfig(n_steps=800, step_size=0.05),
    )
    _, trace = run_boosting(model, cfg)
    slacks = [rec.gap_estimate / cfg.delta + 4.0 * rec.gap_stderr - rec.kl_oracle
              for rec in trace.records if rec.gap_estimate is not None]
    violations = sum(slack < 0 for slack in slacks)
    shortfall = max([0.0] + [-slack for slack in slacks])
    return [
        ProbeResult(
            "gap-bound/bimodal",
            len(slacks) > 0 and violations == 0,
            f"{violations} violations over {len(slacks)} certificates, "
            f"worst shortfall={shortfall:.3e}",
        )
    ]


def default_probe_suite(seed: int = 0) -> list[ProbeResult]:
    results = entropy_bound_probe()
    results += curvature_probe_suite()
    results += gap_bound_probe(seed=seed)
    return results
