import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from boostvi import (
    BaseDensity,
    Family,
    FwConfig,
    LmoConfig,
    LmoResult,
    Mixture,
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
from boostvi import boosting
from boostvi.boosting import LINE_SEARCH_GRID, _crn_atom_index
from boostvi.densities import PARAM_BOX, log_weights, standard_noise
from boostvi.harness import make_lowrank_matrix, make_separable_classification, split
from boostvi.models import (
    SAMPLE_BLOCK,
    TargetModel,
    class_probabilities,
    log_joint_batch,
    logistic_regression_model,
    matrix_factorization_model,
)

from oracles import (
    CHI_SQUARE_LIMIT_01_11,
    bimodal_logpdf,
    einsum_factorization_log_joint_and_grad,
    gaussian_logpdf,
    reference_certificate,
)

GRID = np.linspace(-12.0, 12.0, 4001)


def gaussian(loc, scale):
    return BaseDensity(Family.GAUSSIAN, np.atleast_1d(loc), np.atleast_1d(scale))


def mixture(atoms, weights):
    """The atoms' stacked rows with ``weights``, through the array
    constructor and its strict simplex check."""
    return Mixture(atoms[0].family, np.stack([a.loc for a in atoms]),
                   np.stack([a.scale for a in atoms]), weights)


def uniform(atoms):
    return Mixture.from_unnormalized(atoms, np.ones(len(atoms)))


def density_model(q: Mixture) -> TargetModel:
    """Target whose log-joint is the (normalized) log density of ``q``."""
    return TargetModel(
        dim=q.dim,
        log_joint_batch=q.log_prob,
        grad_log_joint_batch=q.log_prob_and_grad,
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
        q = mixture((gaussian(-1, 0.5), gaussian(1, 0.5)), np.array([0.5, 0.5]))
        out = mixture_step(q, gaussian(0, 1), 0.2)
        np.testing.assert_allclose(out.weights, [0.4, 0.4, 0.2])

    def test_gamma_one_collapses(self):
        q = Mixture.single(gaussian(-1, 0.5))
        s = gaussian(2, 0.7)
        out = mixture_step(q, s, 1.0)
        assert len(out.weights) == 1
        np.testing.assert_array_equal(out.locs[0], s.loc)

    def test_gamma_zero_identity(self):
        q = Mixture.single(gaussian(-1, 0.5))
        assert mixture_step(q, gaussian(2, 0.7), 0.0) is q

    def test_duplicate_atom_merges(self):
        a = gaussian(0.5, 0.8)
        q = Mixture.single(a)
        out = mixture_step(q, a, 0.3)
        assert len(out.weights) == 1
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
            assert len(out.weights) == len(atoms)
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


class TestStepSolveSampleCount:
    q = Mixture.from_unnormalized([gaussian(-1.0, 0.5), gaussian(1.0, 0.5)], [0.4, 0.6])

    def _solve(self, solve, n_samples):
        model = synthetic_bimodal_target()
        if solve == "line_search":
            return line_search_gamma(self.q, gaussian(0.0, 1.0), model, n_samples=n_samples)
        return fully_corrective_weights(self.q, model, n_samples=n_samples)

    @pytest.mark.parametrize("solve", ["line_search", "corrective"])
    @pytest.mark.parametrize("n_samples", [0, -3, 2.5, True, "64"])
    def test_bad_count_names_n_samples(self, solve, n_samples):
        with pytest.raises(ValueError, match="^n_samples must be"):
            self._solve(solve, n_samples)

    @pytest.mark.parametrize("solve", ["line_search", "corrective"])
    def test_whole_float_count_solves_as_its_int(self, solve):
        np.testing.assert_array_equal(self._solve(solve, 64.0), self._solve(solve, 64))


def crn_mixture_sampler(family, dim, n, seed):
    """Common random numbers across blend weights: one uniform per sample
    for the atom selection and one standardized noise row per sample.
    ``sample(q, weights)`` selects among ``q``'s atoms by ``weights``, taken
    before normalization."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=n)
    noise = standard_noise(family, n, dim, rng)

    def sample(q, weights):
        edges = np.cumsum(weights)
        edges[-1] = 1.0
        idx = np.minimum(np.searchsorted(edges, u, side="right"), len(weights) - 1)
        return q.locs[idx] + q.scales[idx] * noise

    return sample


def direct_line_search_gamma(q_t, s, model, n_samples, seed):
    """The line search with a mixture built, sampled and evaluated, and the
    model called, once per trial gamma."""
    atoms = [q_t.atom(k) for k in range(len(q_t.weights))] + [s]
    sampler = crn_mixture_sampler(s.family, s.dim, n_samples, seed)

    def objective(gamma):
        weights = np.concatenate([q_t.weights * (1.0 - gamma), [gamma]])
        q = Mixture.from_unnormalized(atoms, weights)
        z = sampler(q, weights)
        return float(np.mean(q.log_prob(z) - log_joint_batch(model, z)))

    gammas = np.linspace(0.0, 1.0, LINE_SEARCH_GRID)
    values = np.array([objective(g) for g in gammas])
    best = int(np.argmin(values))
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


def line_search_case(family, dim, k, seed):
    """K atoms about three scales away from a fresh atom s in each coordinate.
    With s as the target the search steps toward s (gamma > 0); with the K
    atoms as the target and s moved 10 further, it stays put (gamma = 0)."""
    rng = np.random.default_rng((seed, dim, k))
    s = BaseDensity(family, rng.normal(size=dim), rng.uniform(0.5, 1.5, dim))
    atoms = [BaseDensity(family, s.loc + 3.0 * rng.normal(size=dim),
                         s.scale * rng.uniform(0.7, 1.3, dim)) for _ in range(k)]
    q_t = Mixture.from_unnormalized(atoms, rng.uniform(0.2, 1.0, k))
    far = BaseDensity(family, s.loc + 10.0, s.scale)
    return [(q_t, s, density_model(Mixture.single(s))), (q_t, far, density_model(q_t))]


class TestLineSearchMatchesReferenceLoop:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dim", [1, 105])
    @pytest.mark.parametrize("family", list(Family))
    def test_bit_identical(self, family, dim, k):
        kinds = set()
        for seed in range(4):
            for q_t, s, model in line_search_case(family, dim, k, seed):
                gamma = line_search_gamma(q_t, s, model, n_samples=256, seed=seed)
                assert gamma == direct_line_search_gamma(q_t, s, model, 256, seed)
                kinds.add("zero" if gamma == 0.0 else "one" if gamma == 1.0 else "interior")
        # the early return, a golden-section gamma and the grid's end all checked
        assert kinds == {"zero", "interior", "one"}

    @pytest.mark.parametrize("grid", [5, LINE_SEARCH_GRID, 41])
    def test_model_called_once_per_atom(self, monkeypatch, grid):
        monkeypatch.setattr("boostvi.boosting.LINE_SEARCH_GRID", grid)
        cases = line_search_case(Family.GAUSSIAN, 4, 3, seed=0)
        for refines, (q_t, s, model) in zip((True, False), cases):
            calls = []

            def counted(Z, model=model):
                calls.append(len(Z))
                return model.log_joint_batch(Z)

            gamma = line_search_gamma(q_t, s, replace(model, log_joint_batch=counted),
                                      n_samples=256, seed=0)
            # one call per atom of q_t + s, with or without the refinement
            assert calls == [256] * (len(q_t.weights) + 1)
            assert (gamma > 0.0) == refines  # gamma > 0 only after the refinement


class TestCrnMixtureSampler:
    """The points the line search selects from its per-atom table must be
    those of a loop over the atoms that transforms each atom's rows of the
    shared noise."""

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
        q_t = Mixture.from_unnormalized(atoms[:3], [0.5, 0.0, 0.3])
        calls = []  # the points of each log-joint call, a block of one row at most

        def recording(Z):
            calls.append(Z.copy())
            return np.zeros(len(Z))

        line_search_gamma(q_t, atoms[3], TargetModel(dim=dim, log_joint_batch=recording),
                          n_samples=300, seed=8)
        # the points each atom's row of the table holds, (k, n, D)
        table = np.concatenate(calls).reshape(-1, 300, dim)
        u = np.random.default_rng(8).uniform(size=300)  # the search's first draw
        # the line search's blends (1 - gamma) * q_t + gamma * s, unnormalized
        for gamma in (0.0, 0.37, 1.0):
            weights = np.concatenate([q_t.weights * (1.0 - gamma), [gamma]])
            np.testing.assert_array_equal(
                table[_crn_atom_index(weights, u), np.arange(300)],
                self.atom_by_atom(atoms, weights, 300, 8))


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
        tuple(np.linspace(-2.5, 2.5, 12)),  # many atoms: the mass steps over many columns
    ])
    def test_matches_direct_solve(self, locs):
        model = synthetic_bimodal_target()
        atoms = [gaussian(loc, 0.4 + 0.1 * i) for i, loc in enumerate(locs)]
        if locs[0] == locs[1]:
            atoms[1] = atoms[0]
        w = fully_corrective_weights(uniform(atoms), model, n_samples=512, seed=5)
        np.testing.assert_array_equal(w, direct_corrective_weights(atoms, model, 512, 5))

    def test_single_atom(self):
        model = synthetic_bimodal_target()
        np.testing.assert_array_equal(
            fully_corrective_weights(Mixture.single(gaussian(0, 1)), model), [1.0]
        )

    def test_recovers_target_weights(self):
        model = synthetic_bimodal_target()
        w = fully_corrective_weights(
            uniform([gaussian(-1.0, 0.5), gaussian(1.0, 0.5)]), model, n_samples=4096, seed=0
        )
        np.testing.assert_allclose(w, [0.4, 0.6], atol=0.05)

    @pytest.mark.parametrize("k", range(2, 14))
    def test_stepped_mass_gradient_drift(self, k):
        # the full solve, without its stopping test, on a random mixture: at
        # every step whose mass is clear of underflow, the stepped mass's
        # cheap gradient lies within half the solve's tolerance of the
        # direct log-sum-exp gradient, so the two pick the same argmin and
        # stopping test wherever the solve trusts the cheap one
        model = synthetic_bimodal_target()
        rng = np.random.default_rng((41, k))
        q = uniform([gaussian(loc, scale) for loc, scale in
                     zip(rng.uniform(-4.0, 4.0, k), rng.uniform(0.1, 2.0, k))])
        comp_logs, logp = boosting._stacked_table(
            q, q.locs, q.scales, model, 512, map(np.random.default_rng, range(k)))
        row_max = comp_logs.max(axis=2)
        offset = row_max - logp
        tol = boosting._corrective_tolerance(row_max, offset)
        offset = offset.mean(axis=1)
        w = np.full(k, 1.0 / k)
        stepped = boosting._SteppedMass(comp_logs, row_max, w)
        checked = 0
        for it in range(boosting.CORRECTIVE_ITERS):
            log_w = log_weights(w)
            direct = np.array([np.mean(scipy_logsumexp(c + log_w, axis=1) - lp)
                               for c, lp in zip(comp_logs, logp)])
            if stepped.mass.min() >= 1e-290:
                assert np.max(np.abs(stepped.gradient(offset) - direct)) < tol / 2
                checked += 1
            j = int(np.argmin(direct))
            gamma = 2.0 / (it + 2.0)
            w = (1.0 - gamma) * w
            w[j] += gamma
            stepped.step(j, gamma)
        assert checked > boosting.CORRECTIVE_ITERS // 2

    def test_duplicated_atom_density_invariance(self):
        model = synthetic_bimodal_target()
        a = gaussian(0.2, 0.9)
        w = fully_corrective_weights(uniform([a, a]), model, n_samples=512, seed=3)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        m = mixture((a, a), w)
        z = np.linspace(-3, 3, 50).reshape(-1, 1)
        np.testing.assert_allclose(m.log_prob(z), a.log_prob(z), rtol=1e-10)


def gap_estimate(q, s, model, n, seed):
    """Monte-Carlo gap of one candidate atom and its standard error: row 0
    of a one-row pool."""
    values, stderrs = certificate_gap(q, s.loc[None], s.scale[None], model, n, seed)
    return values[0], stderrs[0]


class TestDualityGap:
    def test_zero_when_target_equals_iterate(self):
        q = mixture((gaussian(-1, 0.5), gaussian(1, 0.5)), np.array([0.4, 0.6]))
        model = density_model(q)
        value, stderr = gap_estimate(q, q.atom(0), model, 4096, seed=0)
        assert abs(value) < 4 * stderr + 1e-9

    def test_normalizer_invariance(self):
        model = synthetic_bimodal_target()
        shifted = TargetModel(
            dim=1,
            log_joint_batch=lambda Z: model.log_joint_batch(Z) + 57.0,
        )
        q = Mixture.single(gaussian(0.2, 1.0))
        s = gaussian(-1.0, 0.5)
        a, _ = gap_estimate(q, s, model, 1024, seed=4)
        b, _ = gap_estimate(q, s, shifted, 1024, seed=4)
        assert a == pytest.approx(b, abs=1e-8)

    def test_matches_quadrature_oracle(self):
        model = synthetic_bimodal_target()
        q = Mixture.single(gaussian(0.2, 1.0))
        s = gaussian(-1.0, 0.5)
        z = np.linspace(-16, 16, 32001)
        lq = q.log_prob(z.reshape(-1, 1))
        ls = s.log_prob(z.reshape(-1, 1))
        r = lq - bimodal_logpdf(z)
        oracle = np.trapezoid(np.exp(lq) * r, z) - np.trapezoid(np.exp(ls) * r, z)
        value, stderr = gap_estimate(q, s, model, 8192, seed=5)
        assert value == pytest.approx(oracle, abs=4 * stderr)

    def test_certificate_pool_max(self):
        model = synthetic_bimodal_target()
        q = Mixture.single(gaussian(0.2, 1.0))
        cands = [gaussian(-1.0, 0.5), gaussian(0.2, 1.0), gaussian(1.0, 0.5)]
        locs, scales = np.stack([s.loc for s in cands]), np.stack([s.scale for s in cands])
        values, stderrs = certificate_gap(q, locs, scales, model, 2048, seed=6)
        singles = [gap_estimate(q, s, model, 2048, seed=6)[0] for s in cands]
        assert values.shape == stderrs.shape == (len(cands) + 1,)
        # the pool max dominates the same-seed atom estimate of the winner
        idx = int(np.argmax(values[:-1]))
        assert values[idx] >= max(singles) - 4 * stderrs[idx]

    def test_certificate_spike_probe_tightens(self):
        model = synthetic_bimodal_target()
        q = Mixture.single(gaussian(0.2, 1.0))
        values, _ = certificate_gap(q, q.locs, q.scales, model, 2048, seed=7)
        assert values[-1] >= values[:-1].max()

    def test_spike_probe_outside_the_box_is_clipped(self):
        # q_t = N(995, 3^2) covers worst the sample nearest the target at
        # 1010, beyond PARAM_BOX: the probe sits at the box edge instead
        q = Mixture.single(gaussian(995.0, 3.0))
        model = TargetModel(dim=1, log_joint_batch=lambda Z: gaussian_logpdf(Z[:, 0], 1010.0, 0.5))
        seeds = np.random.SeedSequence(entropy=(0, 1618)).spawn(3)
        zq = q.sample(256, seeds[0])
        assert zq[np.argmin(q.log_prob(zq) - model.log_joint_batch(zq)), 0] > PARAM_BOX
        values, stderrs = certificate_gap(q, q.locs, q.scales, model, 256, seed=0)
        ref_values, ref_stderrs = reference_certificate(q, q.locs, q.scales, model, 256, 0)
        np.testing.assert_array_equal(values, ref_values)
        np.testing.assert_array_equal(stderrs, ref_stderrs)
        assert values[-1] > values[:-1].max()  # the clipped probe sets the certificate

    def test_candidates_share_family_and_dimension(self):
        model = synthetic_bimodal_target()
        q = Mixture.single(gaussian(0.2, 1.0))
        for locs, scales, message in (
            ([[0.0, 0.0]], [[1.0, 1.0]], r"D = 1, got shape \(1, 2\)"),
            (np.empty((0, 1)), np.empty((0, 1)), r"P >= 1 and D = 1, got shape \(0, 1\)"),
            ([[0.0], [math.nan]], [[1.0], [1.0]], "param_box"),
            ([[0.0], [2 * PARAM_BOX]], [[1.0], [1.0]], "param_box"),
            ([[0.0]], [[1e-4]], "scale_floor"),
            ([[0.0], [1.0]], [[1.0]], "same length"),
        ):
            with pytest.raises(ValueError, match=message):
                certificate_gap(q, locs, scales, model, 64, seed=0)

    @pytest.mark.parametrize("n", [0, -3, 2.5, True, "8"])
    def test_bad_count_names_n(self, n):
        # checked as the step solves check n_samples, before any draw
        q = Mixture.single(gaussian(0.2, 1.0))
        with pytest.raises(ValueError, match="^n must be"):
            certificate_gap(q, q.locs, q.scales, synthetic_bimodal_target(), n, seed=0)


def certificate_case(family, dim, k, seed):
    """A K-atom iterate q_t and the candidate pool of the loop: a fresh atom
    as row 0, then q_t's rows.  An even seed's target is two atoms wide, so
    the spike probe tends to win; an odd seed's is the fresh atom moved away
    from q_t, so the fresh atom tends to."""
    rng = np.random.default_rng((seed, dim, k, 1618))

    def atom():
        return BaseDensity(family, 2.0 * rng.normal(size=dim), rng.uniform(0.4, 1.5, dim))

    q_t = Mixture.from_unnormalized([atom() for _ in range(k)], rng.uniform(0.2, 1.0, k))
    fresh = atom()
    if seed % 2:
        fresh = BaseDensity(family, fresh.loc + 8.0, fresh.scale)
        target = Mixture.single(fresh)
    else:
        target = Mixture.from_unnormalized([atom(), atom()], rng.uniform(0.2, 1.0, 2))
    locs, scales = np.vstack([fresh.loc, q_t.locs]), np.vstack([fresh.scale, q_t.scales])
    return q_t, locs, scales, density_model(target)


class TestCertificateMatchesReferenceLoop:
    # with_support: the pool is the fresh atom and q_t's rows, as in the
    # loop, or the fresh atom alone
    @pytest.mark.parametrize("with_support", [True, False])
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("family", list(Family))
    def test_bit_identical(self, family, dim, k, with_support):
        winners = set()
        for seed in range(6):
            q_t, locs, scales, model = certificate_case(family, dim, k, seed)
            if not with_support:
                locs, scales = locs[:1], scales[:1]
            values, stderrs = certificate_gap(q_t, locs, scales, model, 256, seed)
            ref_values, ref_stderrs = reference_certificate(q_t, locs, scales, model, 256, seed)
            np.testing.assert_array_equal(values, ref_values)
            np.testing.assert_array_equal(stderrs, ref_stderrs)
            best = int(np.argmax(values))
            winners.add("probe" if best == len(locs) else "fresh" if best == 0 else "atom")
        # both a candidate's and the probe's row set the certificate
        assert "probe" in winners
        assert winners - {"probe"}


@st.composite
def certificate_pools(draw):
    family = draw(st.sampled_from(list(Family)))
    dim, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    q_t, locs, scales, model = certificate_case(family, dim, k, draw(st.integers(0, 2**16)))
    return q_t, locs, scales, model, draw(st.integers(1, len(locs))), draw(st.integers(0, 2**16))


class TestCertificatePoolProperties:
    """Row i's samples come from stream i + 1 of the certificate's seed
    whatever the pool around it, so these hold exactly."""

    @settings(max_examples=30, deadline=None)
    @given(certificate_pools())
    def test_prefix_never_certifies_more(self, case):
        q_t, locs, scales, model, m, seed = case
        whole = certificate_gap(q_t, locs, scales, model, 128, seed)
        prefix = certificate_gap(q_t, locs[:m], scales[:m], model, 128, seed)
        # only the probe row, on the last stream, depends on the pool's size
        for rows_whole, rows_prefix in zip(whole, prefix):
            np.testing.assert_array_equal(rows_prefix[:m], rows_whole[:m])
        assert prefix[0][:-1].max() <= whole[0][:-1].max()

    @settings(max_examples=30, deadline=None)
    @given(certificate_pools())
    def test_spike_probe_never_lowers_or_moves_the_index(self, case):
        # the probe row depends on the candidate rows only through their
        # number: it cannot move them, nor the step direction that the
        # loop takes as the argmax of values[:-1]
        q_t, locs, scales, model, _, seed = case
        values, stderrs = certificate_gap(q_t, locs, scales, model, 128, seed)
        rev_values, rev_stderrs = certificate_gap(q_t, locs[::-1], scales[::-1], model, 128, seed)
        assert [values[-1], stderrs[-1]] == [rev_values[-1], rev_stderrs[-1]]
        assert values.max() >= values[:-1].max()


class TestCurvatureProbe:
    def test_gamma_one_is_twice_kl(self):
        s = gaussian(0.0, 1.0)
        q = Mixture.single(gaussian(1.0, 1.0))
        (val,) = curvature_probe(s, q, [1.0], np.linspace(-16, 16, 8001))
        assert val == pytest.approx(2.0 * kl_gaussian_closed(s, q.atom(0)), abs=1e-6)

    def test_identical_pair_is_zero(self):
        s = gaussian(0.3, 0.8)
        q = Mixture.single(s)
        vals = curvature_probe(s, q, [1e-3, 0.5, 1.0], np.linspace(-16, 16, 8001))
        assert np.allclose(vals, 0.0, atol=1e-10)

    def test_small_gamma_limit_is_chi_square_integral(self):
        # (2 / g^2) KL(q + g (s - q) || q) -> int (s - q)^2 / q as g -> 0
        s = gaussian(0.0, 1.0)
        q = Mixture.single(gaussian(1.0, 1.0))
        (val,) = curvature_probe(s, q, [1e-3], np.linspace(-16, 16, 8001))
        assert val == pytest.approx(CHI_SQUARE_LIMIT_01_11, rel=0.05)

    def test_invalid_gamma(self):
        s = gaussian(0, 1)
        q = Mixture.single(gaussian(1, 1))
        with pytest.raises(ValueError):
            curvature_probe(s, q, [0.0], np.linspace(-16, 16, 801))


class TestFwConfig:
    @pytest.mark.parametrize("field, value", [
        ("gap_tolerance", -1.0), ("gap_tolerance", math.nan), ("gap_tolerance", math.inf),
        ("seed", -1), ("max_iters", -1), ("delta", 0.0), ("delta", math.nan),
        ("gap_samples", 0), ("gap_samples", -5), ("gap_samples", 2.5),
        ("max_iters", 1.5), ("seed", 2.5), ("gap_samples", True),
    ])
    def test_out_of_range_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            FwConfig(**{field: value})

    def test_whole_float_counts_are_stored_as_ints(self):
        cfg = FwConfig(max_iters=2.0, gap_samples=64.0, seed=3.0)
        assert [type(v) for v in (cfg.max_iters, cfg.gap_samples, cfg.seed)] == [int] * 3

    @pytest.mark.parametrize("field, value", [
        ("delta", "0.5"), ("gap_tolerance", "1"), ("delta", True), ("gap_tolerance", None),
    ])
    def test_non_real_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got "
                                             + re.escape(repr(value))):
            FwConfig(**{field: value})

    def test_int_reals_are_stored_as_floats(self):
        cfg = FwConfig(delta=1, gap_tolerance=2)
        assert [type(v) for v in (cfg.delta, cfg.gap_tolerance)] == [float] * 2

    def test_lmo_of_another_type_names_its_field(self):
        with pytest.raises(TypeError, match="^lmo must be an LmoConfig, got {}"):
            FwConfig(lmo={})


class TestRunBoosting:
    @pytest.mark.parametrize("max_iters, gap_tolerance, solves, records, stopped", [
        (3, 0.0, 5, 4, False),  # passes 0-3 step, pass 4 only certifies q_3
        (0, 0.0, 1, 1, False),  # the initial fit alone: nothing to certify
        (3, 1e6, 2, 1, True),  # pass 1 certifies q_0 under the tolerance and stops
        # the gaps of q_0..q_3 are 5.99, 1.30, 0.94 and 1.31: pass 3 stops
        (3, 1.1, 4, 3, True),
    ])
    def test_one_lmo_solve_per_pass(self, monkeypatch, max_iters, gap_tolerance, solves,
                                    records, stopped):
        calls = []
        solve = boosting.lmo_solve

        def counting(model, q_t, t, *args):
            calls.append(t)
            return solve(model, q_t, t, *args)

        monkeypatch.setattr(boosting, "lmo_solve", counting)
        cfg = FwConfig(max_iters=max_iters, gap_tolerance=gap_tolerance, gap_samples=128,
                       seed=1, lmo=LmoConfig(n_steps=30, n_mc_samples=8))
        _, trace = run_boosting(synthetic_bimodal_target(), cfg)
        assert calls == list(range(solves))
        assert [r.t for r in trace.records] == list(range(records))
        assert trace.stopped_early is stopped
        # every recorded iterate is certified, except the one a zero-iteration run returns
        assert all(r.gap_estimate is not None for r in trace.records) is (max_iters > 0)

    def test_zero_iterations_returns_plain_fit(self):
        model = synthetic_bimodal_target()
        cfg = FwConfig(max_iters=0, seed=0, lmo=LmoConfig(n_steps=400))
        q, trace = run_boosting(model, cfg)
        assert len(trace.records) == 1
        assert len(q.weights) == 1
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

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_every_iterate_has_simplex_weights(self, variant, family):
        logistic = logistic_regression_model(
            make_separable_classification(40, 3, seed=0, flip_fraction=0.1))
        cfg = FwConfig(variant=variant, max_iters=3, seed=1, gap_samples=256,
                       lmo=LmoConfig(n_steps=50, family=family))
        for model in (synthetic_bimodal_target(), logistic):
            q, trace = run_boosting(model, cfg)
            for m in trace.mixtures + [q]:
                assert (m.weights >= 0).all()
                assert abs(m.weights.sum() - 1.0) <= 1e-12

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
        assert len(final.weights) == 2
        np.testing.assert_array_equal(final.locs[0], a.loc)
        np.testing.assert_array_equal(final.scales[0], a.scale)
        assert trace.records[2].gamma == final.weights[0]
        assert trace.records[2].gamma != final.weights[1]

    def test_trace_serialization_roundtrip_fields(self):
        model = synthetic_bimodal_target()
        cfg = FwConfig(max_iters=1, seed=4, lmo=LmoConfig(n_steps=100))
        _, trace = run_boosting(model, cfg)
        d = trace.to_dict()
        assert set(d) == {"records", "mixtures", "eps0", "best_iteration", "stopped_early"}
        assert {"family", "loc", "scale"} <= set(d["mixtures"][0]["atoms"][0])


def einsum_factorization_model(data, latent_dim: int) -> TargetModel:
    """The factorization model built from the einsum oracle: a log-joint
    pass and a separate value-and-gradient pass, and an einsum posterior-mean
    reconstruction for the training log-likelihood."""
    R, mask = data.labels, data.mask
    rows, cols = R.shape

    def train_ll(samples):
        U = samples[:, : latent_dim * rows].reshape(-1, latent_dim, rows)
        V = samples[:, latent_dim * rows:].reshape(-1, latent_dim, cols)
        resid = (R - np.einsum("nlr,nlc->nrc", U, V).mean(axis=0))[mask]
        return float(np.mean(-0.5 * resid**2 - 0.5 * math.log(2 * math.pi)))

    return TargetModel(
        dim=latent_dim * (rows + cols),
        log_joint_batch=lambda Z: einsum_factorization_log_joint_and_grad(Z, R, mask, latent_dim)[0],
        grad_log_joint_batch=lambda Z: einsum_factorization_log_joint_and_grad(
            Z, R, mask, latent_dim),
        train_log_likelihood=train_ll,
    )


def _leaves(obj, out):
    """The scalars of a nested dict/list in a fixed order."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            _leaves(obj[key], out)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _leaves(item, out)
    else:
        out.append(obj)
    return out


class TestFactorizationKernelRounding:
    """The batched-matmul kernels round differently from einsum; a whole run
    must take the same discrete path (steps, atoms, best iterate) with every
    float within rtol 1e-9."""

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_run_matches_einsum_model(self, variant, family):
        data = make_lowrank_matrix(6, 5, 2, 0.1, 0.6, seed=1)
        cfg = FwConfig(variant=variant, max_iters=3, seed=1, gap_samples=256,
                       lmo=LmoConfig(n_steps=200, family=family))
        _, new = run_boosting(matrix_factorization_model(data, 2), cfg)
        _, old = run_boosting(einsum_factorization_model(data, 2), cfg)
        assert [r.gamma for r in new.records] == [r.gamma for r in old.records]
        assert new.best_iteration == old.best_iteration
        assert [len(m.weights) for m in new.mixtures] == [len(m.weights) for m in old.mixtures]
        a, b = new.to_dict(), old.to_dict()
        for rec in a["records"] + b["records"]:
            rec.pop("wallclock")
        a, b = _leaves(a, []), _leaves(b, [])
        assert len(a) == len(b)
        for x, y in zip(a, b):
            if isinstance(y, float):
                assert x == pytest.approx(y, rel=1e-9, abs=0.0)
            else:
                assert x == y


def recording_model(model: TargetModel, sizes: list) -> TargetModel:
    """``model`` with a log-joint that appends each call's row count to ``sizes``."""

    def recording(Z):
        sizes.append(len(Z))
        return model.log_joint_batch(Z)

    return replace(model, log_joint_batch=recording)


class TestSampleBlockBound:
    """Every log-joint call of the certificate, the step solves and the
    bimodal training log-likelihood sees at most ``SAMPLE_BLOCK`` rows, and
    every sample row is evaluated once."""

    NS = [1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 2048]

    @staticmethod
    def case(sizes):
        q = mixture((BaseDensity(Family.GAUSSIAN, [-0.5, 0.2], [0.6, 0.8]),
                     BaseDensity(Family.GAUSSIAN, [0.7, -0.1], [0.5, 0.4])), [0.3, 0.7])
        target = mixture((gaussian([0.0, 0.5], [1.0, 0.7]),), [1.0])
        return q, recording_model(density_model(target), sizes)

    @pytest.mark.parametrize("n", NS)
    def test_certificate_gap(self, n):
        sizes = []
        q, model = self.case(sizes)
        certificate_gap(q, q.locs, q.scales, model, n, seed=3)
        assert max(sizes) <= SAMPLE_BLOCK
        assert sum(sizes) == (1 + len(q.weights) + 1) * n  # q_t's samples, the rows, the probe

    @pytest.mark.parametrize("n", NS)
    def test_line_search_gamma(self, n):
        sizes = []
        q, model = self.case(sizes)
        line_search_gamma(Mixture.single(q.atom(0)), q.atom(1), model, n_samples=n, seed=4)
        assert max(sizes) <= SAMPLE_BLOCK
        assert sum(sizes) == 2 * n

    @pytest.mark.parametrize("n", NS)
    def test_fully_corrective_weights(self, n):
        sizes = []
        q, model = self.case(sizes)
        fully_corrective_weights(q, model, n_samples=n, seed=5)
        assert max(sizes) <= SAMPLE_BLOCK
        assert sum(sizes) == len(q.weights) * n

    @pytest.mark.parametrize("n", NS)
    def test_run_boosting_bimodal_train_ll(self, n):
        # the atom solver calls only the gradient callable, and zero
        # iterations certify nothing: every recorded call is the training
        # log-likelihood's
        sizes = []
        model = recording_model(synthetic_bimodal_target(), sizes)
        run_boosting(model, FwConfig(max_iters=0, gap_samples=n, seed=2,
                                     lmo=LmoConfig(n_steps=20, n_mc_samples=8)))
        assert max(sizes) <= SAMPLE_BLOCK
        assert sum(sizes) == n


class TestBlockedMemory:
    """On the logistic model of 280 training rows at n = 16384 samples, the
    certificate and the corrective solve hold less than one (n, N) float
    array at once, and the training log-likelihood and its posterior-predictive
    probabilities under a quarter of one: their memory does not grow with the
    width times n."""

    N_SAMPLES = 16384

    @pytest.fixture(scope="class")
    def train(self):
        data = make_separable_classification(400, 5, margin=0.2, flip_fraction=0.1,
                                             seed=(1, 9001))
        return split(data, 0.7, seed=(1, 777))[0]

    @pytest.fixture(scope="class")
    def case(self, train):
        q = mixture((BaseDensity(Family.GAUSSIAN, np.full(5, -0.2), np.full(5, 0.3)),
                     BaseDensity(Family.GAUSSIAN, np.full(5, 0.4), np.full(5, 0.2))), [0.5, 0.5])
        return logistic_regression_model(train), q, self.N_SAMPLES * train.n * 8

    @staticmethod
    def traced_peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_certificate_gap(self, case):
        model, q, wide = case
        assert wide == self.N_SAMPLES * 280 * 8
        peak = self.traced_peak(
            lambda: certificate_gap(q, q.locs, q.scales, model, self.N_SAMPLES, seed=0))
        assert peak < wide

    def test_fully_corrective_weights(self, case):
        model, q, wide = case
        peak = self.traced_peak(
            lambda: fully_corrective_weights(q, model, n_samples=self.N_SAMPLES, seed=0))
        assert peak < wide

    def test_train_log_likelihood(self, case):
        model, q, wide = case
        z = q.sample(self.N_SAMPLES, 0)
        peak = self.traced_peak(lambda: model.train_log_likelihood(z))
        assert peak < 0.25 * wide

    def test_class_probabilities(self, case, train):
        _, q, wide = case
        z = q.sample(self.N_SAMPLES, 0)
        peak = self.traced_peak(lambda: class_probabilities(z, train.features))
        assert peak < 0.25 * wide

    def test_certificate_gap_page_faults(self):
        # Each logistic log-joint call holds its logits and exp(-|s|) in one
        # (2, n, 280) allocation.  As two separate (256, 280) arrays, glibc
        # returned them to the kernel after each block and faulted them back
        # in: 19,840 minor faults per certificate call (0.08 s) in a fresh
        # interpreter, against 0 (0.05 s) with the one allocation.  A fresh
        # interpreter, since a large free earlier in a process raises glibc's
        # thresholds and hides the faults; call 1 pays the interpreter's own.
        pytest.importorskip("resource")
        check = """if True:
            import json, resource
            import numpy as np
            from boostvi import Family, Mixture, certificate_gap
            from boostvi.harness import make_separable_classification, split
            from boostvi.models import logistic_regression_model
            data = make_separable_classification(400, 5, margin=0.2, flip_fraction=0.1,
                                                 seed=(1, 9001))
            model = logistic_regression_model(split(data, 0.7, seed=(1, 777))[0])
            locs = np.linspace(-0.5, 0.5, 8)[:, None] * np.ones(5)
            q = Mixture(Family.GAUSSIAN, locs, np.full((8, 5), 0.3), np.full(8, 0.125))
            faults = []
            for seed in range(4):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                certificate_gap(q, q.locs, q.scales, model, 2048, seed=seed)
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            print(json.dumps(faults))
        """
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        res = subprocess.run([sys.executable, "-c", check], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        faults = json.loads(res.stdout)
        assert all(f < 2000 for f in faults[1:]), faults


class TestStreamedMemory:
    """On the factorization model (D = 105) at n = 16384 samples, the
    sampler, the certificate, the training log-likelihood and both step
    solves hold at most about the one (n, D) array a caller keeps: none of
    them forms a second (n, D) array or an (n, rows, cols) array.  On a
    16-atom 1-D mixture, where the step solves' own (P, n, K) table is the
    largest array, each holds that one table and a few (P, n) arrays: under
    1.3 tables, where a second copy of the table would make 2."""

    N_SAMPLES = 16384

    @pytest.fixture(scope="class")
    def case(self):
        model = matrix_factorization_model(make_lowrank_matrix(20, 15, 2, 0.1, 0.5, seed=1), 3)
        q = mixture([BaseDensity(Family.GAUSSIAN, np.full(model.dim, 0.1 * i),
                                 np.full(model.dim, 0.3 + 0.1 * i)) for i in range(2)], [0.5, 0.5])
        return model, q, self.N_SAMPLES * model.dim * 8

    def test_sample(self, case):
        model, q, wide = case
        assert wide == self.N_SAMPLES * 105 * 8
        # the returned samples and block-sized temporaries
        peak = TestBlockedMemory.traced_peak(lambda: q.sample(self.N_SAMPLES, 0))
        assert peak < 1.25 * wide

    def test_certificate_gap(self, case):
        model, q, wide = case
        # q_t's samples, held until the spike probe is placed
        peak = TestBlockedMemory.traced_peak(
            lambda: certificate_gap(q, q.locs, q.scales, model, self.N_SAMPLES, seed=0))
        assert peak < 1.25 * wide

    def test_train_log_likelihood(self, case):
        model, q, wide = case
        z = q.sample(self.N_SAMPLES, 0)
        peak = TestBlockedMemory.traced_peak(lambda: model.train_log_likelihood(z))
        assert peak < 0.25 * wide

    def test_fully_corrective_weights(self, case):
        model, q, wide = case
        peak = TestBlockedMemory.traced_peak(
            lambda: fully_corrective_weights(q, model, n_samples=self.N_SAMPLES, seed=0))
        assert peak < 0.25 * wide

    def test_line_search_gamma(self, case):
        model, q, wide = case
        peak = TestBlockedMemory.traced_peak(
            lambda: line_search_gamma(Mixture.single(q.atom(0)), q.atom(1), model,
                                      n_samples=self.N_SAMPLES, seed=0))
        assert peak < 0.25 * wide

    @pytest.fixture(scope="class")
    def many_atoms(self):
        q = uniform([gaussian(loc, 0.3 + 0.05 * i)
                     for i, loc in enumerate(np.linspace(-3.0, 3.0, 16))])
        return synthetic_bimodal_target(), q

    def test_fully_corrective_weights_one_table(self, many_atoms):
        model, q = many_atoms
        k = len(q.weights)
        table = k * self.N_SAMPLES * k * 8
        peak = TestBlockedMemory.traced_peak(
            lambda: fully_corrective_weights(q, model, n_samples=self.N_SAMPLES, seed=0))
        assert peak < 1.3 * table

    def test_line_search_gamma_one_table(self, many_atoms):
        model, q = many_atoms
        k = len(q.weights)  # q_t's k - 1 atoms and the direction
        q_t = Mixture(q.family, q.locs[:-1], q.scales[:-1], np.full(k - 1, 1.0 / (k - 1)))
        table = k * self.N_SAMPLES * k * 8
        peak = TestBlockedMemory.traced_peak(
            lambda: line_search_gamma(q_t, q.atom(k - 1), model, n_samples=self.N_SAMPLES,
                                      seed=0))
        assert peak < 1.3 * table
