import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostvi import (
    BaseDensity,
    Family,
    Mixture,
    kl_gaussian_closed,
    quadrature_kl,
)

from boostvi.densities import SAMPLE_BLOCK, logsumexp, sample_blocks, standard_noise

from oracles import (
    BIMODAL_LOGPDF_AT_0,
    SINGLE_GAUSSIAN_FIT,
    bimodal_logpdf,
    gaussian_logpdf,
    laplace_logpdf,
    logsumexp_reference,
    softmax_reference,
)


def gaussian(loc, scale):
    return BaseDensity(Family.GAUSSIAN, np.atleast_1d(loc), np.atleast_1d(scale))


def laplace(loc, scale):
    return BaseDensity(Family.LAPLACE, np.atleast_1d(loc), np.atleast_1d(scale))


def mixture(atoms, weights):
    """The atoms' stacked rows with ``weights``, through the array
    constructor and its strict simplex check."""
    return Mixture(atoms[0].family, np.stack([a.loc for a in atoms]),
                   np.stack([a.scale for a in atoms]), weights)


scales = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)
locs = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


class TestBaseLogProb:
    def test_standard_normal_at_zero(self):
        assert gaussian(0.0, 1.0).log_prob([[0.0]])[0] == pytest.approx(-0.918939, abs=1e-6)

    def test_standard_laplace_at_zero(self):
        assert laplace(0.0, 1.0).log_prob([[0.0]])[0] == pytest.approx(-0.693147, abs=1e-6)

    def test_narrow_gaussian_at_mode(self):
        assert gaussian(1.0, 0.5).log_prob([[1.0]])[0] == pytest.approx(-0.225791, abs=1e-6)

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
        got = gaussian(loc, scale).log_prob([[z]])[0]
        assert got == pytest.approx(float(gaussian_logpdf(z, loc, scale)), rel=1e-12)

    @given(loc=locs, scale=scales, z=locs)
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_laplace(self, loc, scale, z):
        got = laplace(loc, scale).log_prob([[z]])[0]
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
        m = mixture((a, a), np.array([0.5, 0.5]))
        assert m.log_prob([[0.1]])[0] == pytest.approx(a.log_prob([[0.1]])[0], rel=1e-12)

    def test_bimodal_two_term_sum(self):
        m = mixture(
            (gaussian(-1.0, 0.5), gaussian(1.0, 0.5)), np.array([0.4, 0.6])
        )
        assert m.log_prob([[0.0]])[0] == pytest.approx(BIMODAL_LOGPDF_AT_0, abs=1e-12)

    def test_weight_sum_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            mixture((gaussian(0, 1), gaussian(1, 1)), np.array([0.5, 0.6]))

    @pytest.mark.parametrize("weights", [
        [math.nan, math.nan], [math.nan, 1.0], [0.5, math.nan],
    ])
    def test_non_finite_weights_rejected(self, weights):
        a = gaussian(0.0, 1.0)
        with pytest.raises(ValueError, match="weights"):
            mixture((a, a), np.array(weights))

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
            m = mixture((atom(-1, 0.5), atom(1, 0.7)), np.array([w, 1 - w]))
            mass = np.trapezoid(np.exp(m.log_prob(z.reshape(-1, 1))), z)
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_zero_weight_component_ignored(self):
        a, b = gaussian(0, 1), gaussian(50, 1)
        m = mixture((a, b), np.array([1.0, 0.0]))
        assert m.log_prob([[0.0]])[0] == pytest.approx(a.log_prob([[0.0]])[0], rel=1e-12)


class TestStackedMixtureEvaluation:
    """Mixtures evaluate all atoms at once on their stacked (K, D) parameters;
    the results must be those of the atom-by-atom sum, bit for bit."""

    @staticmethod
    def atom_by_atom(m, Z):
        atoms = [m.atom(k) for k in range(len(m.weights))]
        comp = np.stack([a.log_prob(Z) for a in atoms], axis=1)
        with np.errstate(divide="ignore"):
            logits = comp + np.log(m.weights)
        grads = np.stack([a.grad_log_prob(Z) for a in atoms], axis=1)
        grad = np.einsum("nk,nkd->nd", softmax_reference(logits, axis=1), grads)
        return logsumexp_reference(logits, axis=1), grad

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.LAPLACE])
    @pytest.mark.parametrize("dim", [1, 3, 105])  # 105: the factorization width
    def test_matches_atom_by_atom(self, family, dim):
        rng = np.random.default_rng(dim)
        atoms = [BaseDensity(family, rng.normal(size=dim), rng.uniform(0.1, 2.0, dim))
                 for _ in range(4)]
        m = mixture(atoms, np.array([0.1, 0.0, 0.6, 0.3]))
        Z = rng.normal(scale=3.0, size=(50, dim))
        log_ref, grad_ref = self.atom_by_atom(m, Z)
        np.testing.assert_array_equal(m.log_prob(Z), log_ref)
        np.testing.assert_array_equal(m.grad_log_prob(Z), grad_ref)
        log_q, grad_q = m.log_prob_and_grad(Z)
        np.testing.assert_array_equal(log_q, log_ref)
        np.testing.assert_array_equal(grad_q, grad_ref)

    def test_mixed_families(self):
        with pytest.raises(ValueError, match="one family"):
            Mixture.from_unnormalized((gaussian(0.0, 1.0), laplace(1.0, 0.5)), [0.3, 0.7])

    @pytest.mark.parametrize("atoms, weights, match", [
        ((gaussian(0.0, 1.0), gaussian(1.0, 0.5)), [math.nan, 1.0], "finite with a positive sum"),
        ((gaussian(0.0, 1.0), gaussian(1.0, 0.5)), [math.inf, 1.0], "finite with a positive sum"),
        ((gaussian(0.0, 1.0), gaussian(1.0, 0.5)), [0.0, 0.0], "finite with a positive sum"),
        ((), [1.0], "needs at least one atom"),
        ((gaussian(0.0, 1.0), gaussian([1.0, 2.0], [0.5, 0.5])), [0.5, 0.5], "one dimension"),
    ], ids=["nan-weight", "inf-weight", "zero-sum", "no-atoms", "two-dimensions"])
    def test_from_unnormalized_checks(self, atoms, weights, match):
        with pytest.raises(ValueError, match=match):
            Mixture.from_unnormalized(atoms, weights)

    def test_stacked_parameters(self):
        atoms = (laplace([0.0, 1.0], [1.0, 2.0]), laplace([-1.0, 0.5], [0.3, 0.4]))
        m = mixture(atoms, np.array([0.5, 0.5]))
        assert m.family is Family.LAPLACE
        np.testing.assert_array_equal(m.locs, [[0.0, 1.0], [-1.0, 0.5]])
        np.testing.assert_array_equal(m.scales, [[1.0, 2.0], [0.3, 0.4]])
        with pytest.raises(ValueError):
            m.locs[0, 0] = 5.0

    def test_state_is_the_stacked_arrays(self):
        assert [f.name for f in dataclasses.fields(Mixture)] == [
            "family", "locs", "scales", "weights"]
        assert not hasattr(mixture((gaussian(0.0, 1.0),), [1.0]), "atoms")

    @pytest.mark.parametrize("locs, scales, weights, match", [
        ([[0.0], [2e3]], [[1.0], [1.0]], [0.5, 0.5], "loc entries must lie in the param_box"),
        ([[0.0], [math.nan]], [[1.0], [1.0]], [0.5, 0.5], "loc entries must lie in the param_box"),
        ([[0.0], [1.0]], [[1.0], [1e-6]], [0.5, 0.5], "scale entries must be finite"),
        ([[0.0], [1.0]], [[1.0], [math.inf]], [0.5, 0.5], "scale entries must be finite"),
        ([[0.0], [1.0]], [[1.0, 1.0], [1.0, 1.0]], [0.5, 0.5], "same length"),
        ([0.0, 1.0], [1.0, 1.0], [0.5, 0.5], "loc must be a 2-D array"),
        ([[0.0], [1.0]], [[1.0], [1.0]], [1.0], "weights and atoms must have the same length"),
        ([[0.0], [1.0]], [[1.0], [1.0]], [1.5, -0.5], "weights must be nonnegative"),
        ([[0.0], [1.0]], [[1.0], [1.0]], [0.5, math.nan], "weights must be nonnegative"),
        ([[0.0], [1.0]], [[1.0], [1.0]], [0.5, 0.6], "weights must sum to 1"),
        (np.zeros((2, 0)), np.zeros((2, 0)), [0.5, 0.5], "at least one dimension"),
    ])
    def test_array_constructor_checks(self, locs, scales, weights, match):
        with pytest.raises(ValueError, match=match):
            Mixture(Family.GAUSSIAN, locs, scales, weights)

    def test_atom_needs_a_dimension(self):
        with pytest.raises(ValueError, match="at least one dimension"):
            BaseDensity(Family.GAUSSIAN, [], [])

    def test_atom_is_a_row(self):
        m = mixture((laplace([0.0, 1.0], [1.0, 2.0]), laplace([-1.0, 0.5], [0.3, 0.4])),
                    [0.5, 0.5])
        a = m.atom(1)
        assert a.family is Family.LAPLACE
        np.testing.assert_array_equal(a.loc, [-1.0, 0.5])
        np.testing.assert_array_equal(a.scale, [0.3, 0.4])

    def test_index_of_first_match(self):
        a, b = gaussian(0.0, 1.0), gaussian(1.0, 0.5)
        m = mixture((a, b, a), np.array([0.2, 0.3, 0.5]))
        assert m.index_of(a) == 0
        assert m.index_of(gaussian(1.0 + 1e-10, 0.5 - 1e-10)) == 1
        assert m.index_of(gaussian(1.0 + 1e-8, 0.5)) is None
        assert m.index_of(gaussian(1.0, 0.5 + 1e-8)) is None
        assert m.index_of(laplace(0.0, 1.0)) is None
        assert m.index_of(gaussian([0.0, 0.0], [1.0, 1.0])) is None

    def test_single_point_and_dimension_check(self):
        m = mixture((BaseDensity(Family.GAUSSIAN, [0.0, 1.0], [1.0, 2.0]),), np.array([1.0]))
        with pytest.raises(ValueError):
            m.log_prob_and_grad(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            m.grad_log_prob(np.zeros((3, 1)))
        # a single point (D,) is not a batch: every density call raises
        for call in (m.log_prob, m.grad_log_prob, m.log_prob_and_grad,
                     m.atom(0).log_prob, m.atom(0).grad_log_prob):
            with pytest.raises(ValueError, match="dimension"):
                call(np.array([0.5, 0.5]))


def logsumexp_cases():
    """(40, 6) rows at several scales, ties, -inf holes, +-inf and NaN
    entries, entries near the float limit, and rows whose maximum is not
    finite."""
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
    cases.append(np.array([[np.inf, np.inf, 1.0], [np.inf, -np.inf, 0.0],
                           [np.nan, np.inf, 0.0], [1e308, np.inf, 3.0],
                           [-np.inf, -np.inf, -np.inf]]))
    return cases


class TestLogSumExp:
    """The local log-sum-exp is the textbook max-shifted one bit for bit, and
    agrees with SciPy's: exactly on every +-inf and NaN, and to within
    2 eps max(1, |value|) on every finite value, edge cases included."""

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_matches_reference(self, axis, keepdims):
        for a in logsumexp_cases():
            out = logsumexp(a, axis=axis, keepdims=keepdims)
            np.testing.assert_array_equal(out, logsumexp_reference(a, axis, keepdims))

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_matches_scipy(self, axis, keepdims):
        from scipy.special import logsumexp as scipy_logsumexp

        for a in logsumexp_cases():
            with np.errstate(all="ignore"):
                ref = scipy_logsumexp(a, axis=axis, keepdims=keepdims)
            out = logsumexp(a, axis=axis, keepdims=keepdims)
            assert out.shape == ref.shape
            finite = np.isfinite(ref)
            np.testing.assert_array_equal(np.isfinite(out), finite)
            np.testing.assert_array_equal(out[~finite], ref[~finite])  # NaN where SciPy's is
            err = np.abs(out[finite] - ref[finite])
            assert (err <= 2.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(ref[finite]))).all()

    def test_one_column_is_the_column(self):
        # exp(0) = 1 and log(1) = 0: a one-atom mixture's log-sum-exp adds
        # nothing to its atom's log density
        column = np.concatenate([np.random.default_rng(3).normal(scale=100.0, size=40),
                                 [0.0, 1e-300, -1e308, 1e308, np.inf, -np.inf, np.nan]])[:, None]
        for keepdims in (False, True):
            out = logsumexp(column, axis=1, keepdims=keepdims)
            np.testing.assert_array_equal(out, column if keepdims else column[:, 0])
        np.testing.assert_array_equal(logsumexp(column.T, axis=0), column[:, 0])


class TestSampling:
    @staticmethod
    def atom_by_atom(m, n, seed):
        """Draws of a loop over the atoms, each drawing its own noise in turn."""
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(m.weights), size=n, p=m.weights)
        out = np.empty((n, m.dim))
        for k in range(len(m.weights)):
            atom = m.atom(k)
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
        m = mixture(atoms, np.array([0.1, 0.0, 0.4, 0.3, 0.2]))
        for n, seed in ((1, 0), (7, 3), (500, 11)):
            np.testing.assert_array_equal(m.sample(n, seed), self.atom_by_atom(m, n, seed))

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("dim", [1, 105])
    @pytest.mark.parametrize("n", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 2048])
    def test_noise_in_blocks_is_one_draw(self, family, dim, n):
        # the sampler and the certificate's rows draw their noise block by
        # block; the blocks must be the rows of one draw, byte for byte
        rng = np.random.default_rng((n, dim))
        blocks = [standard_noise(family, b.stop - b.start, dim, rng) for b in sample_blocks(n)]
        whole = standard_noise(family, n, dim, np.random.default_rng((n, dim)))
        assert np.concatenate(blocks).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("n", [0, -3, 2.5, True, "8"])
    def test_bad_count_names_n(self, n):
        m = mixture((gaussian(-1, 0.5), gaussian(1, 0.5)), np.array([0.4, 0.6]))
        for density in (m, m.atom(0)):
            with pytest.raises(ValueError, match="^n must be"):
                density.sample(n, 0)

    def test_whole_float_count(self):
        m = mixture((gaussian(-1, 0.5), gaussian(1, 0.5)), np.array([0.4, 0.6]))
        for density in (m, m.atom(0)):
            np.testing.assert_array_equal(density.sample(3.0, 5), density.sample(3, 5))

    def test_same_seed_identical(self):
        m = mixture((gaussian(-1, 0.5), gaussian(1, 0.5)), np.array([0.4, 0.6]))
        np.testing.assert_array_equal(m.sample(64, 7), m.sample(64, 7))

    def test_degenerate_weights(self):
        m = mixture((gaussian(0.0, 0.01), gaussian(100.0, 0.01)), np.array([1.0, 0.0]))
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
        assert math.exp(gaussian(0, 0.5).log_sup_norm()) == pytest.approx(0.797885, abs=1e-6)
        assert math.exp(laplace(0, 1).log_sup_norm()) == pytest.approx(0.5, abs=1e-12)
        assert math.exp(gaussian(0, 1).log_sup_norm()) == pytest.approx(0.398942, abs=1e-6)

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
    GRID = np.linspace(-8.0, 8.0, 4001)

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
        val = quadrature_kl(q, bimodal_logpdf, np.linspace(-8.0, 8.0, 8001))
        assert abs(val - coarse) <= 1e-6
        assert val > 0.05

    def test_unnormalized_target_invariance(self):
        q = Mixture.single(gaussian(0.2, 0.9))
        a = quadrature_kl(q, bimodal_logpdf, self.GRID)
        b = quadrature_kl(q, lambda z: bimodal_logpdf(z) + 123.0, self.GRID)
        assert a == pytest.approx(b, abs=1e-9)
