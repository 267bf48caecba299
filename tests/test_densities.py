import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostvi import (
    BaseDensity,
    Family,
    Mixture,
    QuadratureGrid,
    kl_gaussian_closed,
    quadrature_kl,
)

from boostvi.densities import logsumexp, standard_noise

from oracles import (
    BIMODAL_LOGPDF_AT_0,
    SINGLE_GAUSSIAN_FIT,
    bimodal_logpdf,
    gaussian_logpdf,
    laplace_logpdf,
)


def gaussian(loc, scale):
    return BaseDensity(Family.GAUSSIAN, np.atleast_1d(loc), np.atleast_1d(scale))


def laplace(loc, scale):
    return BaseDensity(Family.LAPLACE, np.atleast_1d(loc), np.atleast_1d(scale))


scales = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)
locs = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


class TestBaseLogProb:
    def test_standard_normal_at_zero(self):
        assert gaussian(0.0, 1.0).log_prob([0.0]) == pytest.approx(-0.918939, abs=1e-6)

    def test_standard_laplace_at_zero(self):
        assert laplace(0.0, 1.0).log_prob([0.0]) == pytest.approx(-0.693147, abs=1e-6)

    def test_narrow_gaussian_at_mode(self):
        assert gaussian(1.0, 0.5).log_prob([1.0]) == pytest.approx(-0.225791, abs=1e-6)

    def test_batch_shape(self):
        d = gaussian([0.0, 1.0], [1.0, 2.0])
        out = d.log_prob(np.zeros((7, 2)))
        assert out.shape == (7,)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            gaussian(0.0, 1.0).log_prob(np.zeros((3, 2)))

    @given(loc=locs, scale=scales, z=locs)
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_gaussian(self, loc, scale, z):
        got = gaussian(loc, scale).log_prob([z])
        assert got == pytest.approx(float(gaussian_logpdf(z, loc, scale)), rel=1e-12)

    @given(loc=locs, scale=scales, z=locs)
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_laplace(self, loc, scale, z):
        got = laplace(loc, scale).log_prob([z])
        assert got == pytest.approx(float(laplace_logpdf(z, loc, scale)), rel=1e-12)


class TestDegeneracyGuards:
    def test_scale_below_floor_rejected(self):
        with pytest.raises(ValueError, match="scale_floor"):
            gaussian(0.0, 1e-6)

    def test_loc_outside_box_rejected(self):
        with pytest.raises(ValueError, match="param_box"):
            gaussian(2e3, 1.0)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("loc, scale, match", [
        ([math.nan], [1.0], "param_box"),
        ([0.0, math.nan], [1.0, 1.0], "param_box"),
        ([0.0], [math.nan], "scale"),
        ([0.0, 0.0], [1.0, math.nan], "scale"),
        ([0.0], [math.inf], "scale"),
    ])
    def test_non_finite_parameters_rejected(self, family, loc, scale, match):
        with pytest.raises(ValueError, match=match):
            BaseDensity(family, loc, scale)


class TestMixtureLogProb:
    def test_single_atom_identity(self):
        a = gaussian(0.3, 0.8)
        m = Mixture.single(a)
        z = np.array([[-1.0], [0.0], [2.0]])
        np.testing.assert_allclose(m.log_prob(z), a.log_prob(z))

    def test_duplicate_atoms_symmetry(self):
        a = gaussian(0.3, 0.8)
        m = Mixture((a, a), np.array([0.5, 0.5]))
        assert m.log_prob([0.1]) == pytest.approx(a.log_prob([0.1]), rel=1e-12)

    def test_bimodal_two_term_sum(self):
        m = Mixture(
            (gaussian(-1.0, 0.5), gaussian(1.0, 0.5)), np.array([0.4, 0.6])
        )
        assert m.log_prob([0.0]) == pytest.approx(BIMODAL_LOGPDF_AT_0, abs=1e-12)

    def test_weight_sum_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Mixture((gaussian(0, 1), gaussian(1, 1)), np.array([0.5, 0.6]))

    @pytest.mark.parametrize("weights", [
        [math.nan, math.nan], [math.nan, 1.0], [0.5, math.nan],
    ])
    def test_non_finite_weights_rejected(self, weights):
        a = gaussian(0.0, 1.0)
        with pytest.raises(ValueError, match="weights"):
            Mixture((a, a), np.array(weights))

    @pytest.mark.parametrize("weights", [[math.inf, 1.0], [math.nan, 1.0], [0.0, 0.0]])
    def test_from_unnormalized_rejects_unnormalizable(self, weights):
        # [inf, 1] normalizes to [nan, 0], [0, 0] to [nan, nan]
        a = gaussian(0.0, 1.0)
        with pytest.raises(ValueError, match="weights"):
            Mixture.from_unnormalized((a, a), weights)

    def test_from_unnormalized(self):
        m = Mixture.from_unnormalized((gaussian(0, 1), gaussian(1, 1)), [2.0, 6.0])
        np.testing.assert_allclose(m.weights, [0.25, 0.75])

    @given(w=st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=30, deadline=None)
    def test_integrates_to_one(self, w):
        # a fine grid keeps the trapezoid error at the Laplace kinks below tol
        z = np.linspace(-20, 20, 32001)
        for atom in (gaussian, laplace):
            m = Mixture((atom(-1, 0.5), atom(1, 0.7)), np.array([w, 1 - w]))
            mass = np.trapezoid(np.exp(m.log_prob(z.reshape(-1, 1))), z)
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_zero_weight_component_ignored(self):
        a, b = gaussian(0, 1), gaussian(50, 1)
        m = Mixture((a, b), np.array([1.0, 0.0]))
        assert m.log_prob([0.0]) == pytest.approx(a.log_prob([0.0]), rel=1e-12)


class TestStackedMixtureEvaluation:
    """Mixtures evaluate all atoms at once on their stacked (K, D) parameters;
    the results must be those of the atom-by-atom sum, bit for bit."""

    @staticmethod
    def atom_by_atom(m, Z):
        from scipy.special import logsumexp as scipy_logsumexp

        comp = np.stack([a.log_prob(Z) for a in m.atoms], axis=1)
        with np.errstate(divide="ignore"):
            logits = comp + np.log(m.weights)
        lse = scipy_logsumexp(logits, axis=1, keepdims=True)
        grads = np.stack([a.grad_log_prob(Z) for a in m.atoms], axis=1)
        grad = np.einsum("nk,nkd->nd", np.exp(logits - lse), grads)
        return lse[:, 0], grad

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.LAPLACE])
    @pytest.mark.parametrize("dim", [1, 3, 105])  # 105: the factorization width
    def test_matches_atom_by_atom(self, family, dim):
        rng = np.random.default_rng(dim)
        atoms = [BaseDensity(family, rng.normal(size=dim), rng.uniform(0.1, 2.0, dim))
                 for _ in range(4)]
        m = Mixture(tuple(atoms), np.array([0.1, 0.0, 0.6, 0.3]))
        Z = rng.normal(scale=3.0, size=(50, dim))
        log_ref, grad_ref = self.atom_by_atom(m, Z)
        np.testing.assert_array_equal(m.log_prob(Z), log_ref)
        np.testing.assert_array_equal(m.grad_log_prob(Z), grad_ref)
        log_q, grad_q = m.log_prob_and_grad(Z)
        np.testing.assert_array_equal(log_q, log_ref)
        np.testing.assert_array_equal(grad_q, grad_ref)

    def test_mixed_families(self):
        with pytest.raises(ValueError, match="one family"):
            Mixture((gaussian(0.0, 1.0), laplace(1.0, 0.5)), np.array([0.3, 0.7]))

    def test_stacked_parameters(self):
        atoms = (laplace([0.0, 1.0], [1.0, 2.0]), laplace([-1.0, 0.5], [0.3, 0.4]))
        m = Mixture(atoms, np.array([0.5, 0.5]))
        assert m.family is Family.LAPLACE
        np.testing.assert_array_equal(m.locs, [[0.0, 1.0], [-1.0, 0.5]])
        np.testing.assert_array_equal(m.scales, [[1.0, 2.0], [0.3, 0.4]])
        with pytest.raises(ValueError):
            m.locs[0, 0] = 5.0

    def test_index_of_first_match(self):
        a, b = gaussian(0.0, 1.0), gaussian(1.0, 0.5)
        m = Mixture((a, b, a), np.array([0.2, 0.3, 0.5]))
        assert m.index_of(a) == 0
        assert m.index_of(gaussian(1.0 + 1e-10, 0.5 - 1e-10)) == 1
        assert m.index_of(gaussian(1.0 + 1e-8, 0.5)) is None
        assert m.index_of(gaussian(1.0, 0.5 + 1e-8)) is None
        assert m.index_of(laplace(0.0, 1.0)) is None
        assert m.index_of(gaussian([0.0, 0.0], [1.0, 1.0])) is None

    def test_single_point_and_dimension_check(self):
        m = Mixture((BaseDensity(Family.GAUSSIAN, [0.0, 1.0], [1.0, 2.0]),), np.array([1.0]))
        log_q, grad_q = m.log_prob_and_grad(np.array([0.5, 0.5]))
        assert log_q == m.log_prob(np.array([0.5, 0.5]))
        assert grad_q.shape == (2,)
        with pytest.raises(ValueError):
            m.log_prob_and_grad(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            m.grad_log_prob(np.zeros((3, 1)))


class TestLogSumExp:
    """The local log-sum-exp must agree with SciPy's bit for bit, edge cases
    included."""

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_matches_scipy(self, axis, keepdims):
        from scipy.special import logsumexp as scipy_logsumexp

        rng = np.random.default_rng(7)
        cases = [rng.normal(scale=s, size=(40, 6)) for s in (1e-3, 1.0, 50.0, 800.0)]
        ties = np.round(rng.normal(size=(40, 6)))
        cases.append(ties)
        holes = rng.normal(size=(40, 6))
        holes[rng.random((40, 6)) < 0.3] = -np.inf
        holes[0, :] = -np.inf
        cases.append(holes)
        special = rng.normal(size=(40, 6))
        special[1, 2], special[3, 4], special[5, :] = np.inf, np.nan, -np.inf
        cases.append(special)
        wide = np.full((4, 3), 1e308)
        wide[0, 0] = -1e308
        cases.append(wide)
        for a in cases:
            with np.errstate(all="ignore"):
                ref = scipy_logsumexp(a, axis=axis, keepdims=keepdims)
            out = logsumexp(a, axis=axis, keepdims=keepdims)
            assert out.shape == ref.shape
            np.testing.assert_array_equal(out, ref)


class TestSampling:
    @staticmethod
    def atom_by_atom(m, n, seed):
        """Draws of a loop over the atoms, each drawing its own noise in turn."""
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(m.atoms), size=n, p=m.weights)
        out = np.empty((n, m.dim))
        for k, atom in enumerate(m.atoms):
            sel = idx == k
            if sel.any():
                out[sel] = atom.transform(standard_noise(atom.family, int(sel.sum()), m.dim, rng))
        return out

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.LAPLACE])
    @pytest.mark.parametrize("dim", [1, 3, 105])
    def test_matches_atom_by_atom(self, family, dim):
        rng = np.random.default_rng(dim)
        atoms = [BaseDensity(family, rng.normal(size=dim), rng.uniform(0.1, 2.0, dim))
                 for _ in range(5)]
        m = Mixture(tuple(atoms), np.array([0.1, 0.0, 0.4, 0.3, 0.2]))
        for n, seed in ((1, 0), (7, 3), (500, 11)):
            np.testing.assert_array_equal(m.sample(n, seed), self.atom_by_atom(m, n, seed))

    def test_same_seed_identical(self):
        m = Mixture((gaussian(-1, 0.5), gaussian(1, 0.5)), np.array([0.4, 0.6]))
        np.testing.assert_array_equal(m.sample(64, 7), m.sample(64, 7))

    def test_degenerate_weights(self):
        m = Mixture((gaussian(0.0, 0.01), gaussian(100.0, 0.01)), np.array([1.0, 0.0]))
        z = m.sample(500, 3)
        assert np.all(np.abs(z) < 1.0)

    def test_moments_gaussian(self):
        n = 100_000
        z = gaussian(0.0, 1.0).sample(n, 11)
        assert abs(z.mean()) < 4.0 / math.sqrt(n)
        assert z.var() == pytest.approx(1.0, rel=0.05)

    def test_moments_laplace(self):
        n = 100_000
        z = laplace(0.0, 1.0).sample(n, 11)
        # standard Laplace has variance 2 b^2
        assert abs(z.mean()) < 6.0 / math.sqrt(n)
        assert z.var() == pytest.approx(2.0, rel=0.05)


class TestEntropyAndSupNorm:
    def test_entropy_values(self):
        assert gaussian(0, 1).entropy() == pytest.approx(1.418939, abs=1e-6)
        assert laplace(0, 1).entropy() == pytest.approx(1.693147, abs=1e-6)
        assert gaussian([0, 0], [1, 1]).entropy() == pytest.approx(2.837877, abs=1e-6)

    def test_sup_norm_values(self):
        assert gaussian(0, 0.5).sup_norm() == pytest.approx(0.797885, abs=1e-6)
        assert laplace(0, 1).sup_norm() == pytest.approx(0.5, abs=1e-12)
        assert gaussian(0, 1).sup_norm() == pytest.approx(0.398942, abs=1e-6)

    @given(
        family=st.sampled_from([Family.GAUSSIAN, Family.LAPLACE]),
        scale=st.lists(scales, min_size=1, max_size=4),
        loc=st.lists(locs, min_size=1, max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_entropy_plus_log_sup_identity(self, family, scale, loc):
        # entropy and peak height trade off exactly: 1/2 per dimension for
        # Gaussians, 1 per dimension for Laplace, independent of parameters
        dim = min(len(scale), len(loc))
        d = BaseDensity(family, loc[:dim], scale[:dim])
        per_dim = 0.5 if family is Family.GAUSSIAN else 1.0
        assert d.entropy() + d.log_sup_norm() == pytest.approx(per_dim * dim, abs=1e-10)


class TestClosedFormKL:
    def test_identity(self):
        assert kl_gaussian_closed(gaussian(0, 1), gaussian(0, 1)) == 0.0

    def test_mean_shift(self):
        assert kl_gaussian_closed(gaussian(0, 1), gaussian(1, 1)) == pytest.approx(0.5)

    def test_scale_change(self):
        got = kl_gaussian_closed(gaussian(0, 2), gaussian(0, 1))
        # 0.5 * (ratio - 1 - log ratio) with variance ratio 4
        assert got == pytest.approx(0.5 * (4 - 1 - math.log(4)), abs=1e-9)

    def test_rejects_laplace(self):
        with pytest.raises(ValueError, match="Gaussian"):
            kl_gaussian_closed(laplace(0, 1), gaussian(0, 1))

    @given(l1=locs, s1=scales, l2=locs, s2=scales)
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, l1, s1, l2, s2):
        assert kl_gaussian_closed(gaussian(l1, s1), gaussian(l2, s2)) >= -1e-12


class TestQuadratureKL:
    GRID = QuadratureGrid(-8.0, 8.0, 4001)

    def test_self_kl_zero(self):
        q = Mixture.single(gaussian(0, 1))
        val = quadrature_kl(q, lambda z: gaussian_logpdf(z, 0.0, 1.0), self.GRID)
        assert abs(val) < 1e-6

    def test_matches_closed_form(self):
        q = Mixture.single(gaussian(0, 1))
        val = quadrature_kl(q, lambda z: gaussian_logpdf(z, 1.0, 1.0), self.GRID)
        assert val == pytest.approx(0.5, abs=1e-4)

    def test_bimodal_fit_positive_and_grid_stable(self):
        # doubling the resolution of GRID moves the value by at most 1e-6
        loc, scale = SINGLE_GAUSSIAN_FIT
        q = Mixture.single(gaussian(loc, scale))
        coarse = quadrature_kl(q, bimodal_logpdf, self.GRID)
        val = quadrature_kl(q, bimodal_logpdf, QuadratureGrid(-8.0, 8.0, 8001))
        assert abs(val - coarse) <= 1e-6
        assert val > 0.05

    def test_unnormalized_target_invariance(self):
        q = Mixture.single(gaussian(0.2, 0.9))
        a = quadrature_kl(q, bimodal_logpdf, self.GRID)
        b = quadrature_kl(q, lambda z: bimodal_logpdf(z) + 123.0, self.GRID)
        assert a == pytest.approx(b, abs=1e-9)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            QuadratureGrid(1.0, -1.0, 100)
