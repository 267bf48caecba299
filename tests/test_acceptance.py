"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line per criterion (to the real stderr so the
lines survive pytest's capture).  Criterion 4 checks the small-gamma limit of
the curvature probe against the closed-form chi-square integral int (s-q)^2 / q
in ``oracles``, pair by pair: within 5% where the probe has settled, below the
limit where it has not, and still growing where the limit is infinite.
"""

import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from boostvi import (
    BaseDensity,
    Family,
    FwConfig,
    LmoConfig,
    Mixture,
    Variant,
    curvature_probe,
    elbo_estimate,
    kl_gaussian_closed,
    quadrature_kl,
    relbo_estimate,
    relbo_grad,
    run_boosting,
    synthetic_bimodal_target,
    variant_config,
)
from boostvi.cli import EXIT_OK, main as cli_main
from boostvi.harness import ExperimentConfig, run_single_seed
from boostvi.models import Dataset, logistic_regression_model, matrix_factorization_model
from boostvi.probes import gaussian_pair_grid

from oracles import (
    CHI_SQUARE_LIMIT_01_11,
    finite_difference,
    gaussian_chi_square,
    relative_error,
)

SEEDS = (1, 2, 3)
ORACLE_GRID = np.linspace(-12.0, 12.0, 4001)
PROBE_GRID = np.linspace(-16.0, 16.0, 8001)

def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {criterion:2d}: {status} - {detail}", file=sys.__stderr__, flush=True)


@pytest.fixture(scope="module")
def bimodal_runs():
    """The three step-size policies, three seeds each, on the default target."""
    model = synthetic_bimodal_target()
    t0 = time.perf_counter()
    runs = {}
    for variant in Variant:
        for seed in SEEDS:
            cfg = variant_config(variant, seed)
            q, trace = run_boosting(model, cfg)
            kl = quadrature_kl(q, model.posterior_log_pdf, ORACLE_GRID)
            runs[(variant, seed)] = (cfg, trace, kl)
    elapsed = time.perf_counter() - t0
    return model, runs, elapsed


def test_criterion_1_bimodal_mixture_recovery(bimodal_runs):
    model, runs, elapsed = bimodal_runs
    # sanity on the benchmark itself: the target is exactly representable, so
    # the quadrature error of the true component mixture is numerically zero
    exact = Mixture(Family.GAUSSIAN, [[-1.0], [1.0]], [[0.5], [0.5]], [0.4, 0.6])
    assert quadrature_kl(exact, model.posterior_log_pdf, ORACLE_GRID) < 1e-8

    thresholds = {
        Variant.FIXED_STEP: 0.1,
        Variant.LINE_SEARCH: 0.05,
        Variant.FULLY_CORRECTIVE: 0.02,
    }
    details = []
    ok = True
    for variant, bound in thresholds.items():
        kl0 = max(runs[(variant, s)][1].records[0].kl_oracle for s in SEEDS)
        kls = [runs[(variant, s)][2] for s in SEEDS]
        ok = ok and kl0 > 0.05 and max(kls) < bound
        details.append(f"{variant.value}: start {kl0:.3f}, final max {max(kls):.4f} (< {bound})")
    ok = ok and elapsed < 180.0
    report(1, ok, "; ".join(details) + f"; runtime {elapsed:.0f}s")
    assert ok


def test_criterion_2_convergence_rate_shapes():
    model = synthetic_bimodal_target()
    t0 = time.perf_counter()
    fc_curves = []
    fx_curves = []
    for seed in SEEDS:
        _, tr = run_boosting(model, variant_config(Variant.FULLY_CORRECTIVE, seed, 16))
        fc_curves.append([r.kl_oracle for r in tr.records])
        _, tr = run_boosting(model, variant_config(Variant.FIXED_STEP, seed, 16))
        fx_curves.append(np.minimum.accumulate([r.kl_oracle for r in tr.records]))
    elapsed = time.perf_counter() - t0

    ts = np.array([2, 4, 8, 16])
    ys = np.mean(fc_curves, axis=0)[ts]
    slope = float(np.polyfit(np.log(ts), np.log(ys), 1)[0])

    e = np.mean(fx_curves, axis=0)[1:]
    t = np.arange(1, len(e) + 1)
    C = float(np.max(t * e))  # smallest constant with e_t <= C / t everywhere
    r2 = float(1.0 - np.sum((e - C / t) ** 2) / np.sum((e - e.mean()) ** 2))

    ok = slope <= -0.7 and r2 >= 0.8 and elapsed < 300.0
    report(2, ok, f"corrective slope {slope:.2f} (<= -0.7); "
                  f"fixed-step envelope C={C:.2f}, R^2={r2:.2f} (>= 0.8); "
                  f"runtime {elapsed:.0f}s")
    assert ok


def test_criterion_3_gap_certificate_covers_error(bimodal_runs):
    _, runs, _ = bimodal_runs
    violations = 0
    checked = 0
    worst = math.inf
    for (variant, seed), (cfg, trace, _) in runs.items():
        for rec in trace.records:
            if rec.gap_estimate is None or rec.kl_oracle is None:
                continue
            checked += 1
            slack = rec.gap_estimate / cfg.delta + 4.0 * rec.gap_stderr - rec.kl_oracle
            worst = min(worst, slack)
            if slack < 0:
                violations += 1
    ok = checked > 0 and violations == 0
    report(3, ok, f"{violations} violations over {checked} certificates "
                  f"(worst slack {worst:+.4f})")
    assert ok


def test_criterion_4_curvature_limits():
    """(2/gamma^2) KL(q + gamma (s - q) || q) is finite, exact at gamma = 1, and
    tends to the chi-square integral int (s - q)^2 / q as gamma -> 0."""
    finite_ok = True
    endpoint_err = 0.0
    limit_err = 0.0
    limit_ok = True
    values = {}
    for s, q in gaussian_pair_grid():
        key = (float(s.loc[0]), float(s.scale[0]),
               float(q.locs[0, 0]), float(q.scales[0, 0]))
        probe = curvature_probe(s, q, [1e-4, 1e-3, 1e-2, 1.0], PROBE_GRID)
        values[key] = probe
        finite_ok = finite_ok and all(np.isfinite(v) for v in probe)
        endpoint_err = max(endpoint_err, abs(probe[3] - 2 * kl_gaussian_closed(s, q.atom(0))))
        v4, v3, v2 = probe[:3]
        limit = gaussian_chi_square(*key)
        if limit == 0.0:
            limit_ok = limit_ok and abs(v3) <= 1e-6
        elif math.isinf(limit):
            # var_s >= 2 var_q: the probe must keep growing as gamma shrinks
            limit_ok = limit_ok and v4 > v3 > v2
        elif abs(v3 - v2) <= 0.05 * v3:
            limit_err = max(limit_err, abs(v3 - limit) / limit)
        else:
            # s far out in q's tail: the limit is only reached at far smaller
            # gamma, so the probe must still sit below it
            limit_ok = limit_ok and v3 <= 1.05 * limit
    unit_pair = values[(0.0, 1.0, 1.0, 1.0)][1]
    pair_ok = abs(unit_pair - CHI_SQUARE_LIMIT_01_11) / CHI_SQUARE_LIMIT_01_11 <= 0.05
    ok = finite_ok and endpoint_err <= 1e-6 and limit_ok and limit_err <= 0.05 and pair_ok
    report(4, ok,
           f"finite={finite_ok}; gamma=1 endpoint err {endpoint_err:.2e} (<= 1e-6); "
           f"settled small-gamma vs chi-square integral err {limit_err:.1%} (<= 5%); "
           f"unsettled below / divergent growing: {limit_ok}; unit pair probe "
           f"{unit_pair:.4f} vs {CHI_SQUARE_LIMIT_01_11:.4f}")
    assert ok


def test_criterion_5_entropy_supnorm_identity():
    worst = 0.0
    for family, per_dim in ((Family.GAUSSIAN, 0.5), (Family.LAPLACE, 1.0)):
        for scale in (0.1, 0.5, 1.0, 2.0, 5.0):
            for dim in (1, 2, 3):
                d = BaseDensity(family, np.linspace(-1, 1, dim), np.full(dim, scale))
                worst = max(worst, abs(d.entropy() + d.log_sup_norm() - per_dim * dim))
    ok = worst <= 1e-10
    report(5, ok, f"max |entropy + log sup-norm - slack*dim| = {worst:.2e} (<= 1e-10)")
    assert ok


def test_criterion_6_residual_objective_reduces_to_elbo():
    model = synthetic_bimodal_target()
    s = BaseDensity(Family.GAUSSIAN, [0.3], [0.9])
    a = relbo_estimate(s, model, None, 1.0, 2048, seed=13)
    b = elbo_estimate(s, model, 2048, seed=13)
    ok = a == b
    report(6, ok, f"shared-seed estimates {a:.12f} vs {b:.12f} (bit-identical)")
    assert ok


def test_criterion_7_gradient_sanity():
    rng = np.random.default_rng(21)
    data = Dataset(features=rng.standard_normal((30, 2)),
                   labels=(rng.uniform(size=30) < 0.5).astype(float))
    logistic = logistic_regression_model(data)

    # estimator check: central differences of the Monte-Carlo objective
    s = BaseDensity(Family.GAUSSIAN, [0.3, -0.2], [0.8, 1.2])
    lam, n, seed, h = 0.8, 100_000, 4, 1e-5

    def objective(loc, log_scale):
        atom = BaseDensity(Family.GAUSSIAN, loc, np.exp(log_scale))
        return relbo_estimate(atom, logistic, None, lam, n, seed)

    loc0, ls0 = s.loc.copy(), np.log(s.scale)
    fd = np.zeros(4)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd[i] = (objective(loc0 + e, ls0) - objective(loc0 - e, ls0)) / (2 * h)
        fd[2 + i] = (objective(loc0, ls0 + e) - objective(loc0, ls0 - e)) / (2 * h)
    est_errs = {}
    # the model picks the estimator: without its gradient, the score function
    for estimator, m in (("reparameterization", logistic),
                         ("score_function", replace(logistic, grad_log_joint_batch=None))):
        g_loc, g_ls = relbo_grad(s, m, None, lam, n, seed)
        est_errs[estimator] = relative_error(np.concatenate([g_loc, g_ls]), fd)

    # analytic model gradients against finite differences
    mf = matrix_factorization_model(
        Dataset(features=None, labels=rng.standard_normal((5, 4)),
                mask=rng.uniform(size=(5, 4)) < 0.6),
        latent_dim=2,
    )
    model_errs = {}
    for name, model in (("bimodal", synthetic_bimodal_target()),
                        ("logistic", logistic), ("factorization", mf)):
        z = 0.5 * rng.standard_normal(model.dim)
        fd_g = finite_difference(lambda x: model.log_joint_batch(x[None])[0], z)
        model_errs[name] = relative_error(model.grad_log_joint_batch(z[None])[1][0], fd_g)

    ok = max(est_errs.values()) < 0.05 and max(model_errs.values()) < 1e-4
    report(7, ok, "estimator rel. err " +
           ", ".join(f"{k} {v:.1%}" for k, v in est_errs.items()) +
           " (< 5%); model grad rel. err " +
           ", ".join(f"{k} {v:.1e}" for k, v in model_errs.items()) + " (< 1e-4)")
    assert ok


def _predictive_run(model: str, params: dict, variant: Variant, iters: int, seed: int):
    cfg = ExperimentConfig(
        model=model, model_params=params,
        fw=FwConfig(variant=variant, max_iters=iters, delta=1.0, seed=seed,
                    gap_samples=512,
                    lmo=LmoConfig(n_steps=1000, n_mc_samples=32)),
    )
    metrics, _, _ = run_single_seed(cfg, seed)
    return metrics


def test_criterion_8_logistic_auroc_dominance():
    params = {"n": 200, "n_features": 5, "margin": 0.2, "flip_fraction": 0.1}
    base, boost = [], []
    for seed in range(5):
        base.append(_predictive_run("logistic", params, Variant.FULLY_CORRECTIVE, 0, seed)["auroc"])
        boost.append(_predictive_run("logistic", params, Variant.FULLY_CORRECTIVE, 6, seed)["auroc"])
    base, boost = np.array(base), np.array(boost)
    mean_ok = boost.mean() >= base.mean()
    std_ok = boost.std() <= 1.5 * base.std() + 1e-12
    ok = mean_ok and std_ok
    report(8, ok, f"AUROC boosted {boost.mean():.4f}+/-{boost.std():.4f} vs "
                  f"baseline {base.mean():.4f}+/-{base.std():.4f} over 5 seeds")
    assert ok


def test_criterion_9_factorization_mse_dominance():
    t0 = time.perf_counter()
    ok = True
    details = []
    for latent_dim in (2, 3):
        params = {"rows": 20, "cols": 15, "rank": 2, "noise": 0.1,
                  "mask_fraction": 0.5, "latent_dim": latent_dim}
        base = np.array([
            _predictive_run("matrix_factorization", params, Variant.LINE_SEARCH, 0, s)["mse"]
            for s in range(3)
        ])
        boost = np.array([
            _predictive_run("matrix_factorization", params, Variant.LINE_SEARCH, 4, s)["mse"]
            for s in range(3)
        ])
        ok = ok and boost.mean() <= base.mean()
        details.append(f"D={latent_dim}: boosted {boost.mean():.3f} vs baseline {base.mean():.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report(9, ok, "; ".join(details) + f"; runtime {elapsed:.0f}s")
    assert ok


def test_criterion_10_cli_determinism(tmp_path):
    import json

    flags = ["run", "--model", "bimodal", "--variant", "fixed", "--iters", "3",
             "--lmo-steps", "300", "--mc-samples", "16", "--seed", "11"]
    payloads = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(flags + ["--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "trace.json").read_text())
        for trace in payload["traces"]:
            for rec in trace["records"]:
                rec.pop("wallclock", None)
        payloads.append(payload)
    ok = payloads[0] == payloads[1]
    report(10, ok, "identical trace.json modulo wallclock fields")
    assert ok
