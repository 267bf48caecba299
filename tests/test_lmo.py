import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit
from hypothesis import given, settings
from hypothesis import strategies as st

from boostvi import (
    BaseDensity,
    Estimator,
    Family,
    LmoConfig,
    Mixture,
    elbo_estimate,
    kl_gaussian_closed,
    lambda_at,
    lmo_solve,
    relbo_estimate,
    relbo_grad,
    synthetic_bimodal_target,
)
from boostvi.densities import PARAM_BOX, SCALE_FLOOR, standard_noise
from boostvi.lmo import _Adam, _initial_params
from boostvi.models import Dataset, TargetModel, logistic_regression_model

from oracles import RESIDUAL_ATOM_OPT, SINGLE_GAUSSIAN_FIT, gaussian_logpdf, relative_error


def gaussian(loc, scale):
    return BaseDensity(Family.GAUSSIAN, np.atleast_1d(loc), np.atleast_1d(scale))


class TestLambdaSchedule:
    def test_inverse_sqrt_values(self):
        assert LmoConfig().entropy_weight is None
        assert lambda_at(0) == 1.0
        assert lambda_at(3, None) == pytest.approx(0.5)

    def test_constant(self):
        for t in (0, 1, 17):
            assert lambda_at(t, 0.7) == 0.7

    def test_validation(self):
        for weight in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="entropy_weight"):
                LmoConfig(entropy_weight=weight)
        with pytest.raises(ValueError):
            lambda_at(-1)

    @given(t=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_inverse_sqrt_formula(self, t):
        assert lambda_at(t) == pytest.approx(1.0 / math.sqrt(t + 1))


class TestRelboEstimate:
    def test_reduces_to_elbo(self):
        model = synthetic_bimodal_target()
        s = gaussian(0.2, 0.9)
        a = relbo_estimate(s, model, None, 1.0, 512, seed=3)
        b = elbo_estimate(s, model, 512, seed=3)
        assert a == b  # bit-identical under a shared seed

    def test_entropy_recovery_when_target_is_current(self):
        # log p identical to log q_t: the joint and residual terms cancel and
        # the estimate is the Monte-Carlo entropy of s
        q_t = Mixture.single(gaussian(0.5, 1.3))
        model = TargetModel(dim=1, log_joint_batch=lambda Z: q_t.log_prob(Z))
        s = gaussian(-0.2, 0.8)
        n = 100_000
        est = relbo_estimate(s, model, q_t, 1.0, n, seed=5)
        # standard error of the entropy estimate for a 1-D Gaussian
        se = math.sqrt(0.5 / n)
        assert abs(est - s.entropy()) < 4 * se

    def test_elbo_matches_closed_form_kl(self):
        # a normalized Gaussian target p: ELBO(s) = -KL(s || p) exactly, so
        # the estimate must sit within 4 standard errors of the closed form,
        # the standard error taken from an independent sample of log p - log s
        p = gaussian(0.7, 1.3)
        model = TargetModel(dim=1, log_joint_batch=lambda Z: gaussian_logpdf(Z[:, 0], 0.7, 1.3))
        n = 100_000
        for s in (gaussian(0.0, 1.0), gaussian(1.5, 0.4), gaussian(-1.0, 2.5)):
            z = np.random.default_rng(21).normal(s.loc[0], s.scale[0], n)
            integrand = gaussian_logpdf(z, 0.7, 1.3) - gaussian_logpdf(z, s.loc[0], s.scale[0])
            se = integrand.std() / math.sqrt(n)
            est = elbo_estimate(s, model, n, seed=8)
            assert abs(est + kl_gaussian_closed(s, p)) < 4 * se

    def test_deterministic(self):
        model = synthetic_bimodal_target()
        s = gaussian(0.0, 1.0)
        assert relbo_estimate(s, model, None, 0.5, 64, seed=9) == relbo_estimate(
            s, model, None, 0.5, 64, seed=9
        )

    def test_dimension_mismatch(self):
        model = synthetic_bimodal_target()
        with pytest.raises(ValueError, match="dimension"):
            relbo_estimate(
                BaseDensity(Family.GAUSSIAN, [0.0, 0.0], [1.0, 1.0]),
                model, None, 1.0, 16, seed=0,
            )


def _random_logistic_model(seed=0, n=30, n_feat=2):
    rng = np.random.default_rng(seed)
    data = Dataset(
        features=rng.standard_normal((n, n_feat)),
        labels=(rng.uniform(size=n) < 0.5).astype(float),
    )
    return logistic_regression_model(data)


class TestRelboGrad:
    def test_score_function_zero_mean_for_constant_objective(self):
        # constant integrand: the score part has expectation zero, leaving
        # only the analytic entropy gradient (lam per log-scale coordinate)
        model = TargetModel(dim=2, log_joint_batch=lambda Z: np.ones(len(Z)))
        s = BaseDensity(Family.GAUSSIAN, [0.0, 0.5], [1.0, 2.0])
        n = 100_000
        g_loc, g_ls = relbo_grad(
            s, model, None, 0.7, n, seed=2, estimator=Estimator.SCORE_FUNCTION,
            baseline=1.0,
        )
        se = 4.0 / math.sqrt(n)
        assert np.all(np.abs(g_loc) < 4 * se)
        assert np.all(np.abs(g_ls - 0.7) < 8 * se)

    def test_estimators_match_finite_differences(self):
        # central differences of the Monte-Carlo objective under common
        # random numbers, compared against both gradient estimators
        model = _random_logistic_model()
        s = BaseDensity(Family.GAUSSIAN, [0.3, -0.2], [0.8, 1.2])
        lam, n, seed = 0.8, 100_000, 4

        def objective(loc, log_scale):
            atom = BaseDensity(Family.GAUSSIAN, loc, np.exp(log_scale))
            return relbo_estimate(atom, model, None, lam, n, seed)

        h = 1e-5
        loc0, ls0 = s.loc.copy(), np.log(s.scale)
        fd_loc = np.zeros(2)
        fd_ls = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd_loc[i] = (objective(loc0 + e, ls0) - objective(loc0 - e, ls0)) / (2 * h)
            fd_ls[i] = (objective(loc0, ls0 + e) - objective(loc0, ls0 - e)) / (2 * h)
        for estimator in (Estimator.REPARAMETERIZATION, Estimator.SCORE_FUNCTION):
            g_loc, g_ls = relbo_grad(s, model, None, lam, n, seed, estimator=estimator)
            assert relative_error(g_loc, fd_loc) < 0.05, estimator
            assert relative_error(g_ls, fd_ls) < 0.05, estimator

    def test_reparameterization_needs_model_gradient(self):
        model = TargetModel(dim=1, log_joint_batch=lambda Z: np.zeros(len(Z)))
        with pytest.raises(ValueError, match="gradient"):
            relbo_grad(gaussian(0, 1), model, None, 1.0, 8, seed=0)


class TestLmoSolve:
    def test_first_iteration_matches_quadrature_optimum(self):
        # the best single-Gaussian fit of the bimodal target is mode-covering;
        # frozen from a quadrature grid search + simplex refinement
        model = synthetic_bimodal_target()
        res = lmo_solve(model, None, 0, LmoConfig(), 0)
        loc_opt, scale_opt = SINGLE_GAUSSIAN_FIT
        assert abs(res.atom.loc[0] - loc_opt) < 0.15
        assert abs(res.atom.scale[0] - scale_opt) < 0.15

    def test_residual_step_targets_uncovered_mode(self):
        # current iterate covers the +1 mode; the quadrature-oracle optimum of
        # the residual objective sits left of the -1 mode (frozen value)
        model = synthetic_bimodal_target()
        q0 = Mixture.single(gaussian(1.0, 1.0))
        res = lmo_solve(model, q0, 1, LmoConfig(n_steps=1500), 0)
        loc_opt, scale_opt = RESIDUAL_ATOM_OPT
        assert res.atom.loc[0] < 0.0
        assert abs(res.atom.loc[0] - loc_opt) < 0.35
        assert abs(res.atom.scale[0] - scale_opt) < 0.3

    def test_scale_respects_floor(self):
        # a target narrower than SCALE_FLOOR pulls the scale down from its
        # initial 0.5; the solve keeps it at or above the floor
        sd = 1e-4
        model = TargetModel(dim=1, log_joint_batch=lambda Z: gaussian_logpdf(Z[:, 0], 0.0, sd),
                            grad_log_joint_batch=lambda Z: -Z / sd**2)
        res = lmo_solve(model, None, 0, LmoConfig(n_steps=400, step_size=0.1), 1)
        assert np.all(res.atom.scale >= SCALE_FLOOR)
        assert np.all(res.atom.scale < 0.05)

    def test_deterministic(self):
        model = synthetic_bimodal_target()
        cfg = LmoConfig(n_steps=100)
        a = lmo_solve(model, None, 0, cfg, 3)
        b = lmo_solve(model, None, 0, cfg, 3)
        np.testing.assert_array_equal(a.atom.loc, b.atom.loc)
        np.testing.assert_array_equal(a.atom.scale, b.atom.scale)
        assert a.relbo_estimate == b.relbo_estimate

    def test_score_function_estimator_runs(self):
        # a model without a gradient gets the score-function estimator
        model = replace(synthetic_bimodal_target(), grad_log_joint_batch=None)
        cfg = LmoConfig(n_steps=800, n_mc_samples=64, step_size=0.05)
        res = lmo_solve(model, None, 0, cfg, 2)
        assert np.isfinite(res.relbo_estimate)
        assert abs(res.atom.loc[0]) < 1.5  # lands in the bulk of the target

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LmoConfig(n_mc_samples=0)
        with pytest.raises(ValueError):
            LmoConfig(step_size=-0.1)
        for steps in (0, -3):
            with pytest.raises(ValueError, match="n_steps"):
                LmoConfig(n_steps=steps)

    def test_one_atom_built_per_solve(self, monkeypatch):
        # the step loop works on raw arrays: the returned atom is the only
        # validated BaseDensity, also when the non-finite retry ran
        built = []
        post_init = BaseDensity.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        base = synthetic_bimodal_target()
        calls = []

        def nan_on_first_call(Z):
            calls.append(len(Z))
            out = base.log_joint_batch(Z)
            return out * np.nan if len(calls) == 1 else out

        flaky = TargetModel(dim=1, log_joint_batch=nan_on_first_call,
                            grad_log_joint_batch=base.grad_log_joint_batch)
        cfg = LmoConfig(n_steps=40)
        monkeypatch.setattr(BaseDensity, "__post_init__", counting)
        clean = lmo_solve(base, None, 0, cfg, 1)
        assert len(built) == 1 and built[0] is clean.atom
        retried = lmo_solve(flaky, None, 0, cfg, 1)
        assert len(calls) == 1 + cfg.n_steps  # one failed step, then a clean attempt
        assert len(built) == 2 and built[1] is retried.atom
        assert np.isfinite(retried.relbo_estimate)


def _reference_solve(model, q_t, t, cfg, seed, estimator):
    """lmo_solve rebuilt from public pieces: a validated BaseDensity and a
    relbo_grad call per step, the RELBO value from the atom's own log_prob,
    the same seed layout and the same Adam, EMA and box steps."""
    lam = lambda_at(t, cfg.entropy_weight)
    d, n, box, floor = model.dim, cfg.n_mc_samples, PARAM_BOX, SCALE_FLOOR
    ss = np.random.SeedSequence(entropy=(seed, t))
    init_rng = np.random.default_rng(ss.spawn(1)[0])
    step_seeds = ss.spawn(cfg.n_steps + 1)
    loc, u = _initial_params(d, init_rng)
    opt = _Adam(2 * d, cfg.step_size)
    ema = baseline = checkpoint = best = None
    best_ema = -np.inf
    for k in range(cfg.n_steps):
        scale = floor + np.logaddexp(0.0, u)
        s = BaseDensity(cfg.family, loc, scale)
        g_loc, g_log_scale = relbo_grad(s, model, q_t, lam, n, step_seeds[k],
                                        estimator, baseline)
        rng = np.random.default_rng(step_seeds[k])
        z = s.transform(standard_noise(cfg.family, n, d, rng))
        f = model.log_joint_batch(z)
        if q_t is not None:
            f = f - q_t.log_prob(z)
        value = float(np.mean(f) - lam * np.mean(s.log_prob(z)))
        f_mean = float(np.mean(f))
        baseline = f_mean if baseline is None else 0.9 * baseline + 0.1 * f_mean
        ema = value if ema is None else 0.9 * ema + 0.1 * value
        if k >= min(20, cfg.n_steps // 10) and ema > best_ema:
            best_ema, best = ema, (loc.copy(), u.copy())
        if k == (3 * cfg.n_steps) // 4:
            checkpoint = ema
        g_u = g_log_scale * expit(u) / scale
        delta = opt.step(np.concatenate([g_loc, g_u]))
        loc = np.clip(loc + delta[:d], -box, box)
        u = u + delta[d:]
    loc, u = best
    atom = BaseDensity(cfg.family, loc, floor + np.logaddexp(0.0, u))
    converged = abs(best_ema - checkpoint) <= 1e-2 * (1.0 + abs(best_ema))
    return atom, best_ema, converged


class TestSolverMatchesReferenceLoop:
    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("estimator", list(Estimator))
    @pytest.mark.parametrize("n_atoms", [None, 3])
    def test_bit_identical(self, family, estimator, n_atoms):
        model = _random_logistic_model(seed=2, n=40, n_feat=3)
        if estimator is Estimator.SCORE_FUNCTION:
            # lmo_solve takes the score-function estimator for a model without a gradient
            model = replace(model, grad_log_joint_batch=None)
        q_t = None
        if n_atoms is not None:
            rng = np.random.default_rng(12)
            q_t = Mixture.from_unnormalized(
                [BaseDensity(family, rng.standard_normal(3), rng.uniform(0.3, 1.5, 3))
                 for _ in range(n_atoms)],
                rng.uniform(0.5, 1.5, n_atoms),
            )
        cfg = LmoConfig(family=family, n_steps=80, n_mc_samples=16, step_size=0.05)
        res = lmo_solve(model, q_t, 2, cfg, 4)
        atom, relbo, converged = _reference_solve(model, q_t, 2, cfg, 4, estimator)
        np.testing.assert_array_equal(res.atom.loc, atom.loc)
        np.testing.assert_array_equal(res.atom.scale, atom.scale)
        assert res.relbo_estimate == relbo
        assert res.converged == converged
        assert res.atom.family is family
