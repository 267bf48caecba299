import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostvi import (
    BaseDensity,
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
from boostvi.lmo import (
    MAX_ENTROPY_WEIGHT,
    _Adam,
    _child_words,
    _initial_params,
    _pcg64_state,
)
from boostvi.models import (
    Dataset,
    TargetModel,
    logistic_regression_model,
    matrix_factorization_model,
)

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
        for weight in (0.0, -1.0, math.nan, 1e200, math.nextafter(MAX_ENTROPY_WEIGHT, math.inf)):
            with pytest.raises(ValueError, match="entropy_weight"):
                LmoConfig(entropy_weight=weight)
        for weight in (1e150, MAX_ENTROPY_WEIGHT):
            assert LmoConfig(entropy_weight=weight).entropy_weight == weight
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

    @pytest.mark.parametrize("name", ["bimodal", "logistic", "factorization"])
    @pytest.mark.parametrize("with_q_t", [False, True])
    def test_same_bits_without_model_gradient(self, name, with_q_t):
        # the model's gradient picks the estimator; the RELBO value is the
        # same either way, since the value-and-gradient callable's value is
        # the log-joint bit for bit, and a mixture's log_prob_and_grad value
        # its log_prob
        rng = np.random.default_rng(31)
        if name == "bimodal":
            model = synthetic_bimodal_target()
        elif name == "logistic":
            model = _random_logistic_model(seed=4, n=40, n_feat=3)
        else:
            model = matrix_factorization_model(
                Dataset(features=None, labels=rng.standard_normal((5, 4)),
                        mask=rng.uniform(size=(5, 4)) < 0.7),
                latent_dim=2,
            )
        d = model.dim
        s = BaseDensity(Family.GAUSSIAN, rng.standard_normal(d), rng.uniform(0.3, 1.5, d))
        q_t = None
        if with_q_t:
            q_t = Mixture.from_unnormalized(
                [BaseDensity(Family.GAUSSIAN, rng.standard_normal(d), rng.uniform(0.3, 1.5, d))
                 for _ in range(3)],
                rng.uniform(0.5, 1.5, 3),
            )
        gradient_free = replace(model, grad_log_joint_batch=None)
        for lam in (1.0, 0.3):
            a = relbo_estimate(s, model, q_t, lam, 64, seed=6)
            b = relbo_estimate(s, gradient_free, q_t, lam, 64, seed=6)
            assert np.isfinite(a)
            assert a == b

    def test_dimension_mismatch(self):
        model = synthetic_bimodal_target()
        with pytest.raises(ValueError, match="dimension"):
            relbo_estimate(
                BaseDensity(Family.GAUSSIAN, [0.0, 0.0], [1.0, 1.0]),
                model, None, 1.0, 16, seed=0,
            )


@pytest.mark.parametrize("n", [0, -3, 2.5, True, "8"])
@pytest.mark.parametrize("estimator", ["relbo_estimate", "elbo_estimate", "relbo_grad"])
def test_estimator_bad_count_names_n(estimator, n):
    # n = 0 would give a NaN mean with only a RuntimeWarning
    s, model = gaussian(0.0, 1.0), synthetic_bimodal_target()
    calls = {
        "relbo_estimate": lambda: relbo_estimate(s, model, None, 1.0, n, seed=0),
        "elbo_estimate": lambda: elbo_estimate(s, model, n, seed=0),
        "relbo_grad": lambda: relbo_grad(s, model, None, 1.0, n, seed=0),
    }
    with pytest.raises(ValueError, match="^n must be"):
        calls[estimator]()


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
        # the model has no gradient, so relbo_grad takes the score function
        g_loc, g_ls = relbo_grad(s, model, None, 0.7, n, seed=2, baseline=1.0)
        se = 4.0 / math.sqrt(n)
        assert np.all(np.abs(g_loc) < 4 * se)
        assert np.all(np.abs(g_ls - 0.7) < 8 * se)

    def test_estimators_match_finite_differences(self):
        # central differences of the Monte-Carlo objective under common
        # random numbers, compared against both gradient estimators: the
        # model's reparameterization and, without its gradient, the score function
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
        for estimator, m in (("reparameterization", model),
                             ("score_function", replace(model, grad_log_joint_batch=None))):
            g_loc, g_ls = relbo_grad(s, m, None, lam, n, seed)
            assert relative_error(g_loc, fd_loc) < 0.05, estimator
            assert relative_error(g_ls, fd_ls) < 0.05, estimator

    @pytest.mark.parametrize("n", [2, 8])
    def test_gradient_alone_is_rejected(self, n):
        # the value-and-gradient callable returns a tuple; a bare gradient
        # (n, D) is an error, also at n = 2, where it would unpack silently
        model = TargetModel(dim=2, log_joint_batch=lambda Z: -0.5 * (Z * Z).sum(axis=1),
                            grad_log_joint_batch=lambda Z: -Z)
        s = BaseDensity(Family.GAUSSIAN, [0.0, 0.5], [1.0, 2.0])
        with pytest.raises(TypeError, match="tuple"):
            relbo_grad(s, model, None, 1.0, n, seed=0)

    def test_gradient_free_model_calls_only_the_log_joint(self):
        # the model picks the estimator: without a gradient, relbo_grad takes
        # the score function, which needs the log-joint alone
        model, calls = _counting_model(
            TargetModel(dim=1, log_joint_batch=lambda Z: np.zeros(len(Z))))
        g_loc, g_ls = relbo_grad(gaussian(0, 1), model, None, 1.0, 8, seed=0)
        assert calls == {"log_joint": 1, "value_and_grad": 0}
        assert np.isfinite(g_loc).all() and np.isfinite(g_ls).all()


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
                            grad_log_joint_batch=lambda Z: (gaussian_logpdf(Z[:, 0], 0.0, sd),
                                                            -Z / sd**2))
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
        for step in (-0.1, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="step_size"):
                LmoConfig(step_size=step)
        for weight in (-0.1, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="lambda"):
                LmoConfig(entropy_weight=weight)
        for steps in (0, -3, 20.5):
            with pytest.raises(ValueError, match="n_steps"):
                LmoConfig(n_steps=steps)
        with pytest.raises(ValueError, match="n_mc_samples"):
            LmoConfig(n_mc_samples=2.5)

    @pytest.mark.parametrize("field, value", [
        ("step_size", "0.1"), ("step_size", True), ("entropy_weight", "0.1"),
        ("entropy_weight", True),
    ])
    def test_non_real_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got {value!r}"):
            LmoConfig(**{field: value})

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
            value, grad = base.grad_log_joint_batch(Z)
            return (value * np.nan if len(calls) == 1 else value), grad

        flaky = TargetModel(dim=1, log_joint_batch=base.log_joint_batch,
                            grad_log_joint_batch=nan_on_first_call)
        cfg = LmoConfig(n_steps=40)
        monkeypatch.setattr(BaseDensity, "__post_init__", counting)
        clean = lmo_solve(base, None, 0, cfg, 1)
        assert len(built) == 1 and built[0] is clean.atom
        retried = lmo_solve(flaky, None, 0, cfg, 1)
        assert len(calls) == 1 + cfg.n_steps  # one failed step, then a clean attempt
        assert len(built) == 2 and built[1] is retried.atom
        assert np.isfinite(retried.relbo_estimate)
        # the clean attempt starts from child 0's second initial point and
        # replays the step streams from step 0
        atom, relbo, converged = _reference_solve(base, None, 0, cfg, 1, failed_attempts=1)
        np.testing.assert_array_equal(retried.atom.loc, atom.loc)
        np.testing.assert_array_equal(retried.atom.scale, atom.scale)
        assert (retried.relbo_estimate, retried.converged) == (relbo, converged)

    def test_stream_objects_built_once_per_solve(self, monkeypatch):
        # the step streams come from one table, not from a SeedSequence and a
        # Generator built per step
        counts = {}
        for name in ("SeedSequence", "PCG64", "Generator", "default_rng"):
            def counted(*args, _build=getattr(np.random, name), _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _build(*args, **kwargs)
            monkeypatch.setattr(np.random, name, counted)
        model = synthetic_bimodal_target()
        per_solve = []
        for n_steps in (10, 500):
            counts.clear()
            lmo_solve(model, None, 0, LmoConfig(n_steps=n_steps), 1)
            per_solve.append(dict(counts))
        assert per_solve[0] == per_solve[1]

    @pytest.mark.parametrize("name", ["seed", "t"])
    @pytest.mark.parametrize("value", ["3", True, None, 2.5, -1])
    def test_bad_seed_or_t_names_it(self, name, value):
        args = {"seed": 1, "t": 0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            lmo_solve(synthetic_bimodal_target(), None, args["t"], LmoConfig(n_steps=5),
                      args["seed"])

    def test_whole_float_seed_and_t_read_as_ints(self):
        model, cfg = synthetic_bimodal_target(), LmoConfig(n_steps=30)
        a = lmo_solve(model, None, 2.0, cfg, 3.0)
        b = lmo_solve(model, None, 2, cfg, 3)
        np.testing.assert_array_equal(a.atom.loc, b.atom.loc)
        np.testing.assert_array_equal(a.atom.scale, b.atom.scale)
        assert a.relbo_estimate == b.relbo_estimate


def _counting_model(model):
    """``model`` with call counters on its log-joint and value-and-gradient
    callables (None stays None)."""
    calls = {"log_joint": 0, "value_and_grad": 0}

    def log_joint(Z):
        calls["log_joint"] += 1
        return model.log_joint_batch(Z)

    def value_and_grad(Z):
        calls["value_and_grad"] += 1
        return model.grad_log_joint_batch(Z)

    fused = None if model.grad_log_joint_batch is None else value_and_grad
    return replace(model, log_joint_batch=log_joint, grad_log_joint_batch=fused), calls


class TestModelCallsPerStep:
    @pytest.mark.parametrize("with_q_t", [False, True])
    def test_reparameterization_step_makes_one_fused_call(self, with_q_t):
        # each step needs the log-joint and its gradient at the same points:
        # one value-and-gradient call, and no separate log-joint call
        model, calls = _counting_model(_random_logistic_model(seed=3, n=30, n_feat=2))
        q_t = Mixture.single(gaussian([0.2, -0.1], [0.7, 1.1])) if with_q_t else None
        cfg = LmoConfig(n_steps=50, n_mc_samples=16)
        lmo_solve(model, q_t, 1, cfg, 5)
        assert calls == {"log_joint": 0, "value_and_grad": cfg.n_steps}

    def test_score_function_step_calls_only_the_log_joint(self):
        model, calls = _counting_model(
            replace(_random_logistic_model(seed=3, n=30, n_feat=2), grad_log_joint_batch=None))
        cfg = LmoConfig(n_steps=50, n_mc_samples=16)
        lmo_solve(model, None, 1, cfg, 5)
        assert calls == {"log_joint": cfg.n_steps, "value_and_grad": 0}
        # also outside the solver: relbo_grad and relbo_estimate on the same model
        model, calls = _counting_model(
            replace(_random_logistic_model(seed=3, n=30, n_feat=2), grad_log_joint_batch=None))
        s = gaussian([0.2, -0.1], [0.7, 1.1])
        relbo_grad(s, model, None, 1.0, 16, 0)
        relbo_estimate(s, model, None, 1.0, 16, 0)
        assert calls == {"log_joint": 2, "value_and_grad": 0}


def _reference_solve(model, q_t, t, cfg, seed, failed_attempts=0):
    """lmo_solve rebuilt from public pieces: a validated BaseDensity and a
    relbo_grad call per step, the RELBO value from the atom's own log_prob,
    the same seed layout and the same Adam, EMA and box steps.  The attempt
    it runs follows ``failed_attempts`` failed ones, each of which drew one
    initial point."""
    lam = lambda_at(t, cfg.entropy_weight)
    d, n, box, floor = model.dim, cfg.n_mc_samples, PARAM_BOX, SCALE_FLOOR
    ss = np.random.SeedSequence(entropy=(seed, t))
    init_rng = np.random.default_rng(ss.spawn(1)[0])
    step_seeds = ss.spawn(cfg.n_steps)
    for _ in range(failed_attempts):
        _initial_params(d, init_rng)
    loc, u = _initial_params(d, init_rng)
    opt = _Adam(2 * d, cfg.step_size)
    ema = baseline = checkpoint = best = None
    best_ema = -np.inf
    for k in range(cfg.n_steps):
        softplus_u = np.logaddexp(0.0, u)
        scale = floor + softplus_u
        s = BaseDensity(cfg.family, loc, scale)
        g_loc, g_log_scale = relbo_grad(s, model, q_t, lam, n, step_seeds[k], baseline)
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
        # softplus'(u) = sigmoid(u) = 1 - exp(-softplus(u))
        g_u = g_log_scale * -np.expm1(-softplus_u) / scale
        delta = opt.step(np.concatenate([g_loc, g_u]))
        loc = np.clip(loc + delta[:d], -box, box)
        u = u + delta[d:]
    loc, u = best
    atom = BaseDensity(cfg.family, loc, floor + np.logaddexp(0.0, u))
    converged = abs(best_ema - checkpoint) <= 1e-2 * (1.0 + abs(best_ema))
    return atom, best_ema, converged


class TestSolverMatchesReferenceLoop:
    @pytest.mark.parametrize("family", list(Family))
    # ids name the estimator that the model's gradient, or its absence, picks
    @pytest.mark.parametrize("with_gradient", [True, False],
                             ids=["reparameterization", "score_function"])
    @pytest.mark.parametrize("n_atoms", [None, 3])
    def test_bit_identical(self, family, with_gradient, n_atoms):
        model = _random_logistic_model(seed=2, n=40, n_feat=3)
        if not with_gradient:
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
        atom, relbo, converged = _reference_solve(model, q_t, 2, cfg, 4)
        np.testing.assert_array_equal(res.atom.loc, atom.loc)
        np.testing.assert_array_equal(res.atom.scale, atom.scale)
        assert res.relbo_estimate == relbo
        assert res.converged == converged
        assert res.atom.family is family


# entropies of one to three words, one wider than the pool (the third mixing
# loop), words at the 32-bit edges, and a parent that has a spawn key
STREAM_SEEDS = {"4,2": ((4, 2), ()), "0,0": ((0, 0), ()), "2^40,7": ((2**40, 7), ()),
                "2^40,2^70": ((2**40, 2**70), ()), "2^33": ((2**33,), ()),
                "2^32-1,2^31": ((2**32 - 1, 2**31), ()), "5,3,key=1,2": ((5, 3), (1, 2))}


class TestStepStreams:
    @pytest.fixture(params=list(STREAM_SEEDS.values()), ids=list(STREAM_SEEDS))
    def spawned(self, request):
        # the solver's one initial-point child and then its 2000 step
        # children, as spawn(1) and spawn(2000) hand them out
        entropy, spawn_key = request.param
        ss = np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)
        return ss, ss.spawn(1) + ss.spawn(2000)

    def test_words_are_the_spawned_childrens(self, spawned):
        ss, children = spawned
        words = _child_words(ss, len(children))
        assert words.shape == (len(children), 4) and words.dtype == np.uint64
        for row, child in zip(words, children):
            assert row.tobytes() == child.generate_state(4, np.uint64).tobytes()

    def test_state_is_pcg64s(self, spawned):
        ss, children = spawned
        for row, child in zip(_child_words(ss, len(children)), children):
            assert _pcg64_state(row) == np.random.PCG64(child).state

    @pytest.mark.parametrize("family", list(Family))
    def test_step_noise_is_default_rngs(self, spawned, family):
        # one generator, set to each child's state in turn after draws from
        # the previous one, as the solver's steps do
        ss, children = spawned
        rng = np.random.default_rng(0)
        for i in (1, 2, 1000, 2000):
            rng.bit_generator.state = _pcg64_state(_child_words(ss, i + 1)[i])
            drawn = standard_noise(family, 16, 3, rng)
            expected = standard_noise(family, 16, 3, np.random.default_rng(children[i]))
            assert drawn.tobytes() == expected.tobytes()
