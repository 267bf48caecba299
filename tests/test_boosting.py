import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostvi import (
    BaseDensity,
    Family,
    FwConfig,
    LmoConfig,
    LmoResult,
    Mixture,
    QuadratureGrid,
    Variant,
    certificate_gap,
    curvature_probe,
    fixed_step_gamma,
    fully_corrective_weights,
    kl_gaussian_closed,
    line_search_gamma,
    mixture_step,
    quadrature_kl,
    run_boosting,
    synthetic_bimodal_target,
)
from boostvi.boosting import _crn_mixture_sampler, mixture_from_dict
from boostvi.densities import standard_noise
from boostvi.models import TargetModel

from oracles import CHI_SQUARE_LIMIT_01_11, bimodal_logpdf

GRID = QuadratureGrid(-12.0, 12.0, 4001)


def gaussian(loc, scale):
    return BaseDensity(Family.GAUSSIAN, np.atleast_1d(loc), np.atleast_1d(scale))


def density_model(q: Mixture) -> TargetModel:
    """Target whose log-joint is the (normalized) log density of ``q``."""
    return TargetModel(
        dim=q.dim,
        log_joint_batch=lambda Z: q.log_prob(Z),
        grad_log_joint_batch=lambda Z: q.grad_log_prob(Z),
    )


class TestFixedStepGamma:
    def test_reference_values(self):
        assert fixed_step_gamma(0, 1.0) == 1.0
        assert fixed_step_gamma(2, 1.0) == pytest.approx(0.5)
        assert fixed_step_gamma(2, 0.5) == pytest.approx(0.666667, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            fixed_step_gamma(-1, 1.0)
        with pytest.raises(ValueError):
            fixed_step_gamma(0, 0.0)
        with pytest.raises(ValueError):
            fixed_step_gamma(0, 1.5)

    @given(t=st.integers(min_value=0, max_value=100),
           delta=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_decreasing_in_t(self, t, delta):
        assert fixed_step_gamma(t + 1, delta) < fixed_step_gamma(t, delta) <= 1.0


class TestMixtureStep:
    def test_weight_blend(self):
        q = Mixture((gaussian(-1, 0.5), gaussian(1, 0.5)), np.array([0.5, 0.5]))
        out = mixture_step(q, gaussian(0, 1), 0.2)
        np.testing.assert_allclose(out.weights, [0.4, 0.4, 0.2])

    def test_gamma_one_collapses(self):
        q = Mixture.single(gaussian(-1, 0.5))
        s = gaussian(2, 0.7)
        out = mixture_step(q, s, 1.0)
        assert len(out.atoms) == 1
        np.testing.assert_array_equal(out.atoms[0].loc, s.loc)

    def test_gamma_zero_identity(self):
        q = Mixture.single(gaussian(-1, 0.5))
        assert mixture_step(q, gaussian(2, 0.7), 0.0) is q

    def test_duplicate_atom_merges(self):
        a = gaussian(0.5, 0.8)
        q = Mixture.single(a)
        out = mixture_step(q, a, 0.3)
        assert len(out.atoms) == 1
        np.testing.assert_allclose(out.weights, [1.0])

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            mixture_step(Mixture.single(gaussian(0, 1)), gaussian(1, 1), 1.5)

    @given(gamma=st.floats(min_value=0.0, max_value=1.0),
           raw=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=5),
           pick=st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_weights_stay_on_simplex_and_merge(self, gamma, raw, pick):
        atoms = [gaussian(float(k), 0.5 + 0.1 * k) for k in range(len(raw))]
        q = Mixture.from_unnormalized(atoms, raw)
        for s in (gaussian(-3.0, 0.7), atoms[pick % len(atoms)]):
            out = mixture_step(q, s, gamma)
            assert np.all(out.weights >= 0.0)
            assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)
        # below gamma = 1 (which collapses to the atom), a step toward an atom
        # of q keeps the atoms and adds gamma to the atom's scaled weight
        if gamma < 1.0:
            k = pick % len(atoms)
            out = mixture_step(q, atoms[k], gamma)
            assert len(out.atoms) == len(atoms)
            expected = (1.0 - gamma) * q.weights
            expected[k] += gamma
            np.testing.assert_allclose(out.weights, expected, rtol=1e-12, atol=1e-15)


class TestLineSearch:
    def test_full_step_when_new_atom_is_target(self):
        target_atom = gaussian(0.0, 1.0)
        model = density_model(Mixture.single(target_atom))
        q_t = Mixture.single(gaussian(2.0, 1.0))
        gamma = line_search_gamma(q_t, target_atom, model, n_samples=4096, seed=0)
        assert gamma == pytest.approx(1.0, abs=0.05)

    def test_tie_breaks_to_zero(self):
        atom = gaussian(0.3, 0.9)
        model = density_model(Mixture.single(atom))
        gamma = line_search_gamma(Mixture.single(atom), atom, model, seed=1)
        assert gamma == 0.0

    def test_missing_mass_step(self):
        # current iterate covers the +1 mode only; the quadrature oracle puts
        # the optimal blend at the missing mass 0.4
        model = synthetic_bimodal_target()
        q_t = Mixture.single(gaussian(1.0, 0.5))
        s = gaussian(-1.0, 0.5)
        gamma = line_search_gamma(q_t, s, model, n_samples=8192, seed=2)
        assert gamma == pytest.approx(0.4, abs=0.1)


class TestCrnMixtureSampler:
    """Draws through the stacked (K, D) parameters must be those of a loop
    over the atoms that transforms each atom's rows of the shared noise."""

    @staticmethod
    def atom_by_atom(atoms, weights, n, seed):
        rng = np.random.default_rng(seed)
        u = rng.uniform(size=n)
        noise = standard_noise(atoms[0].family, n, atoms[0].dim, rng)
        edges = np.cumsum(weights)
        edges[-1] = 1.0
        idx = np.minimum(np.searchsorted(edges, u, side="right"), len(atoms) - 1)
        out = np.empty((n, atoms[0].dim))
        for k, atom in enumerate(atoms):
            sel = idx == k
            if sel.any():
                out[sel] = atom.transform(noise[sel])
        return out

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("dim", [1, 105])
    def test_matches_atom_by_atom(self, family, dim):
        rng = np.random.default_rng(dim)
        atoms = tuple(BaseDensity(family, rng.normal(size=dim), rng.uniform(0.1, 2.0, dim))
                      for _ in range(4))
        base = np.array([0.5, 0.0, 0.3, 0.2])
        sampler = _crn_mixture_sampler(family, dim, 300, 8)
        # the line search's blends (1 - gamma) * q + gamma * s, unnormalized
        for gamma in (0.0, 0.37, 1.0):
            weights = np.concatenate([base[:3] * (1.0 - gamma), [gamma]])
            q = Mixture.from_unnormalized(atoms, weights)
            np.testing.assert_array_equal(
                sampler(q, weights), self.atom_by_atom(atoms, weights, 300, 8))


def direct_corrective_weights(atoms, model, n_samples, seed, inner_iters=200):
    """Simplex Frank-Wolfe on per-atom fixed samples, with a direct
    log-sum-exp gradient at every inner step."""
    k = len(atoms)
    ss = np.random.SeedSequence(entropy=(seed, 1414))
    seeds = ss.spawn(k)
    comp_logs, logp = [], []
    for i, atom in enumerate(atoms):
        z = atom.sample(n_samples, seeds[i])
        comp_logs.append(np.stack([a.log_prob(z) for a in atoms], axis=1))
        logp.append(model.log_joint_batch(z))
    w = np.full(k, 1.0 / k)
    for it in range(inner_iters):
        with np.errstate(divide="ignore"):
            logw = np.where(w > 0, np.log(np.maximum(w, 1e-300)), -np.inf)
        grad = np.empty(k)
        for i in range(k):
            shifted = comp_logs[i] + logw
            m = shifted.max(axis=1)
            logq = m + np.log(np.sum(np.exp(shifted - m[:, None]), axis=1))
            grad[i] = np.mean(logq - logp[i])
        j = int(np.argmin(grad))
        if float(w @ grad - grad[j]) <= 1e-8:
            break
        gamma = 2.0 / (it + 2.0)
        w = (1.0 - gamma) * w
        w[j] += gamma
    return w / w.sum()


class TestFullyCorrective:
    @pytest.mark.parametrize("locs", [
        (-1.0, 1.0, 0.3, -0.2, 2.0),  # overlapping atoms
        (-30.0, -1.0, 1.0, 30.0),  # far atoms: exp(C - M) underflows
        (-1.0, -1.0, 1.0),  # duplicated atom
    ])
    def test_matches_direct_solve(self, locs):
        model = synthetic_bimodal_target()
        atoms = [gaussian(loc, 0.4 + 0.1 * i) for i, loc in enumerate(locs)]
        if locs[0] == locs[1]:
            atoms[1] = atoms[0]
        w = fully_corrective_weights(atoms, model, n_samples=512, seed=5)
        np.testing.assert_array_equal(w, direct_corrective_weights(atoms, model, 512, 5))

    def test_single_atom(self):
        model = synthetic_bimodal_target()
        np.testing.assert_array_equal(
            fully_corrective_weights([gaussian(0, 1)], model), [1.0]
        )

    def test_recovers_target_weights(self):
        model = synthetic_bimodal_target()
        w = fully_corrective_weights(
            [gaussian(-1.0, 0.5), gaussian(1.0, 0.5)], model, n_samples=4096, seed=0
        )
        np.testing.assert_allclose(w, [0.4, 0.6], atol=0.05)

    def test_duplicated_atom_density_invariance(self):
        model = synthetic_bimodal_target()
        a = gaussian(0.2, 0.9)
        w = fully_corrective_weights([a, a], model, n_samples=512, seed=3)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        m = Mixture((a, a), w)
        z = np.linspace(-3, 3, 50).reshape(-1, 1)
        np.testing.assert_allclose(m.log_prob(z), a.log_prob(z), rtol=1e-10)


def gap_estimate(q, s, model, n, seed):
    """Monte-Carlo gap of one candidate atom, without the spike probe."""
    return certificate_gap(q, [s], model, n, seed, spike_probe=False)[0]


class TestDualityGap:
    def test_zero_when_target_equals_iterate(self):
        q = Mixture((gaussian(-1, 0.5), gaussian(1, 0.5)), np.array([0.4, 0.6]))
        model = density_model(q)
        est = gap_estimate(q, q.atoms[0], model, 4096, seed=0)
        assert abs(est.value) < 4 * est.stderr + 1e-9

    def test_normalizer_invariance(self):
        model = synthetic_bimodal_target()
        shifted = TargetModel(
            dim=1,
            log_joint_batch=lambda Z: model.log_joint_batch(Z) + 57.0,
        )
        q = Mixture.single(gaussian(0.2, 1.0))
        s = gaussian(-1.0, 0.5)
        a = gap_estimate(q, s, model, 1024, seed=4)
        b = gap_estimate(q, s, shifted, 1024, seed=4)
        assert a.value == pytest.approx(b.value, abs=1e-8)

    def test_matches_quadrature_oracle(self):
        model = synthetic_bimodal_target()
        q = Mixture.single(gaussian(0.2, 1.0))
        s = gaussian(-1.0, 0.5)
        z = np.linspace(-16, 16, 32001)
        lq = q.log_prob(z.reshape(-1, 1))
        ls = s.log_prob(z.reshape(-1, 1))
        r = lq - bimodal_logpdf(z)
        oracle = np.trapezoid(np.exp(lq) * r, z) - np.trapezoid(np.exp(ls) * r, z)
        est = gap_estimate(q, s, model, 8192, seed=5)
        assert est.value == pytest.approx(oracle, abs=4 * est.stderr)

    def test_certificate_pool_max(self):
        model = synthetic_bimodal_target()
        q = Mixture.single(gaussian(0.2, 1.0))
        cands = [gaussian(-1.0, 0.5), gaussian(0.2, 1.0), gaussian(1.0, 0.5)]
        best, idx = certificate_gap(q, cands, model, 2048, seed=6, spike_probe=False)
        singles = [gap_estimate(q, s, model, 2048, seed=6) for s in cands]
        assert 0 <= idx < len(cands)
        # the pool max dominates the same-seed atom estimate of the winner
        assert best.value >= max(s.value for s in singles) - 4 * best.stderr

    def test_certificate_spike_probe_tightens(self):
        model = synthetic_bimodal_target()
        q = Mixture.single(gaussian(0.2, 1.0))
        plain, _ = certificate_gap(q, [q.atoms[0]], model, 2048, seed=7, spike_probe=False)
        probed, _ = certificate_gap(q, [q.atoms[0]], model, 2048, seed=7, spike_probe=True)
        assert probed.value >= plain.value

    def test_candidates_share_family_and_dimension(self):
        model = synthetic_bimodal_target()
        q = Mixture.single(gaussian(0.2, 1.0))
        for s in (BaseDensity(Family.LAPLACE, [0.0], [1.0]), gaussian([0.0, 0.0], [1.0, 1.0])):
            with pytest.raises(ValueError, match="family and dimension"):
                certificate_gap(q, [q.atoms[0], s], model, 64, seed=0)


class TestCurvatureProbe:
    def test_gamma_one_is_twice_kl(self):
        s = gaussian(0.0, 1.0)
        q = Mixture.single(gaussian(1.0, 1.0))
        (val,) = curvature_probe(s, q, [1.0], QuadratureGrid(-16, 16, 8001))
        assert val == pytest.approx(2.0 * kl_gaussian_closed(s, q.atoms[0]), abs=1e-6)

    def test_identical_pair_is_zero(self):
        s = gaussian(0.3, 0.8)
        q = Mixture.single(s)
        vals = curvature_probe(s, q, [1e-3, 0.5, 1.0], QuadratureGrid(-16, 16, 8001))
        assert np.allclose(vals, 0.0, atol=1e-10)

    def test_small_gamma_limit_is_chi_square_integral(self):
        # (2 / g^2) KL(q + g (s - q) || q) -> int (s - q)^2 / q as g -> 0
        s = gaussian(0.0, 1.0)
        q = Mixture.single(gaussian(1.0, 1.0))
        (val,) = curvature_probe(s, q, [1e-3], QuadratureGrid(-16, 16, 8001))
        assert val == pytest.approx(CHI_SQUARE_LIMIT_01_11, rel=0.05)

    def test_invalid_gamma(self):
        s = gaussian(0, 1)
        q = Mixture.single(gaussian(1, 1))
        with pytest.raises(ValueError):
            curvature_probe(s, q, [0.0], QuadratureGrid(-16, 16, 801))


class TestRunBoosting:
    def test_zero_iterations_returns_plain_fit(self):
        model = synthetic_bimodal_target()
        cfg = FwConfig(max_iters=0, seed=0, lmo=LmoConfig(n_steps=400))
        q, trace = run_boosting(model, cfg)
        assert len(trace.records) == 1
        assert len(q.atoms) == 1
        assert trace.records[0].gamma == 1.0

    def test_model_without_gradient_runs(self):
        # no grad_log_joint_batch: every atom solve takes the score-function estimator
        model = replace(synthetic_bimodal_target(), grad_log_joint_batch=None)
        cfg = FwConfig(variant=Variant.FULLY_CORRECTIVE, max_iters=2, seed=4, gap_samples=256,
                       lmo=LmoConfig(n_steps=200, n_mc_samples=64, step_size=0.05))
        q, trace = run_boosting(model, cfg)
        assert len(trace.records) == 3
        assert all(math.isfinite(r.relbo_estimate) and math.isfinite(r.gap_estimate)
                   for r in trace.records)
        assert math.isclose(q.weights.sum(), 1.0)

    def test_deterministic(self):
        model = synthetic_bimodal_target()
        cfg = FwConfig(max_iters=2, seed=5, lmo=LmoConfig(n_steps=200))
        _, a = run_boosting(model, cfg)
        _, b = run_boosting(model, cfg)
        da, db = a.to_dict(), b.to_dict()
        for ra, rb in zip(da["records"], db["records"]):
            ra.pop("wallclock")
            rb.pop("wallclock")
        da.pop("eps0"), db.pop("eps0")
        assert da["records"] == db["records"]
        assert da["mixtures"] == db["mixtures"]

    def test_fixed_step_improves_on_single_gaussian(self):
        model = synthetic_bimodal_target()
        cfg = FwConfig(variant=Variant.FIXED_STEP, max_iters=10, delta=1.0, seed=1,
                       lmo=LmoConfig(n_steps=800))
        q, trace = run_boosting(model, cfg)
        kl_q = quadrature_kl(q, model.posterior_log_pdf, GRID)
        assert kl_q < trace.eps0

    def test_gap_recorded_every_iteration(self):
        model = synthetic_bimodal_target()
        cfg = FwConfig(max_iters=3, seed=2, lmo=LmoConfig(n_steps=200))
        _, trace = run_boosting(model, cfg)
        assert all(r.gap_estimate is not None for r in trace.records)
        assert all(r.gap_stderr is not None for r in trace.records)

    def test_gap_tolerance_stop(self):
        # an enormous tolerance stops the loop after the first certificate
        model = synthetic_bimodal_target()
        cfg = FwConfig(max_iters=8, seed=3, gap_tolerance=1e6,
                       lmo=LmoConfig(n_steps=200))
        _, trace = run_boosting(model, cfg)
        assert trace.stopped_early
        assert len(trace.records) == 1

    def test_corrective_gamma_is_weight_of_merged_atom(self, monkeypatch):
        # the LMO returns A, B, then A again: at t=2 the fresh atom merges
        # into A, so the recorded step is A's weight, not the last atom's
        a, b = gaussian(-1.0, 0.5), gaussian(1.0, 0.5)
        atoms = iter([a, b, a, a])
        monkeypatch.setattr(
            "boostvi.boosting.lmo_solve",
            lambda model, q, t, cfg, seed: LmoResult(next(atoms), 0.0, True, 0),
        )
        cfg = FwConfig(variant=Variant.FULLY_CORRECTIVE, max_iters=2, seed=0,
                       gap_samples=512)
        _, trace = run_boosting(synthetic_bimodal_target(), cfg)
        final = trace.mixtures[2]
        assert len(final.atoms) == 2
        assert final.atoms[0] is a
        assert trace.records[2].gamma == final.weights[0]
        assert trace.records[2].gamma != final.weights[1]

    def test_trace_serialization_roundtrip_fields(self):
        model = synthetic_bimodal_target()
        cfg = FwConfig(max_iters=1, seed=4, lmo=LmoConfig(n_steps=100))
        _, trace = run_boosting(model, cfg)
        d = trace.to_dict()
        assert set(d) == {"records", "mixtures", "eps0", "best_iteration", "stopped_early"}
        assert {"family", "loc", "scale"} <= set(d["mixtures"][0]["atoms"][0])

    @pytest.mark.parametrize("field, value", [
        ("loc", math.nan), ("scale", math.nan), ("scale", math.inf),
    ])
    def test_mixture_from_dict_rejects_non_finite_atom(self, field, value):
        # a hand-edited trace.json entry: json reads NaN and Infinity as floats
        entry = {"weights": [0.5, 0.5], "atoms": [
            {"family": "gaussian", "loc": [0.0], "scale": [1.0]},
            {"family": "gaussian", "loc": [1.0], "scale": [0.5]},
        ]}
        entry["atoms"][1][field] = [value]
        with pytest.raises(ValueError, match=field):
            mixture_from_dict(entry)

    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [math.inf, 1.0], [0.0, 0.0]])
    def test_mixture_from_dict_rejects_non_finite_weights(self, weights):
        entry = {"weights": weights, "atoms": [
            {"family": "gaussian", "loc": [0.0], "scale": [1.0]},
            {"family": "gaussian", "loc": [1.0], "scale": [0.5]},
        ]}
        with pytest.raises(ValueError, match="weights"):
            mixture_from_dict(entry)
