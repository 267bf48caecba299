import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, log_expit
from scipy.stats import rankdata

from boostvi import (
    Dataset,
    Mixture,
    auroc,
    logistic_regression_model,
    matrix_factorization_model,
    predictive_metrics,
    synthetic_bimodal_target,
)
from boostvi.densities import LOG_2PI, BaseDensity, Family, sample_blocks
from boostvi.models import (
    SAMPLE_BLOCK,
    _log_sigmoid,
    _mean_of_blocks,
    _reconstruct,
    _sigmoid,
    _unpack_uv,
    class_probabilities,
    log_joint_batch,
    mean_reconstruction,
)

from oracles import (
    BIMODAL_LOGPDF_AT_0,
    bimodal_closed_form,
    einsum_factorization_log_joint_and_grad,
    finite_difference,
    gaussian_logpdf,
    reference_logistic_kernel,
    relative_error,
)


class TestBimodalTarget:
    def test_default_parameters_at_zero(self):
        model = synthetic_bimodal_target()
        assert model.log_joint_batch(np.array([0.0])[None])[0] == pytest.approx(
            BIMODAL_LOGPDF_AT_0, abs=1e-12
        )

    def test_degenerate_mixture_is_single_gaussian(self):
        model = synthetic_bimodal_target(pi=(1.0, 0.0))
        z = np.array([0.3])
        assert model.log_joint_batch(z[None])[0] == pytest.approx(
            float(gaussian_logpdf(0.3, -1.0, 0.5)), rel=1e-12
        )

    def test_normalized_density(self):
        model = synthetic_bimodal_target()
        z = np.linspace(-12, 12, 12001)
        mass = np.trapezoid(np.exp(model.posterior_log_pdf(z)), z)
        assert mass == pytest.approx(1.0, abs=1e-8)

    @given(z=st.floats(min_value=-4, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_gradient_matches_finite_differences(self, z):
        model = synthetic_bimodal_target()
        g = model.grad_log_joint_batch(np.array([z])[None])[1][0]
        fd = finite_difference(lambda x: model.log_joint_batch(x[None])[0], np.array([z]))
        assert relative_error(g, fd) < 1e-5

    @pytest.mark.parametrize("n", [32, 2048])
    def test_callables_equal_closed_form(self, n):
        # at the default sigma 0.5, a power of two, the mixture's arithmetic
        # is the closed form's step for step
        model = synthetic_bimodal_target()
        Z = 2.0 * np.random.default_rng(n).standard_normal((n, 1))
        value, grad = bimodal_closed_form(Z)
        np.testing.assert_array_equal(model.log_joint_batch(Z), value)
        fused_value, fused_grad = model.grad_log_joint_batch(Z)
        np.testing.assert_array_equal(fused_value, value)
        np.testing.assert_array_equal(fused_grad, grad)

    def test_posterior_pdf_equals_closed_form_on_oracle_grid(self):
        model = synthetic_bimodal_target()
        z = np.linspace(-12.0, 12.0, 4001)
        np.testing.assert_array_equal(model.posterior_log_pdf(z),
                                      bimodal_closed_form(z.reshape(-1, 1))[0])

    @pytest.mark.parametrize("n", [32, 2048])
    def test_gradient_at_other_sigma(self, n):
        # mixture scores divide by sigma twice where the closed form divides
        # by sigma^2 once, so a sigma that is not a power of two rounds apart
        sigma = (0.3, 0.7)
        model = synthetic_bimodal_target(sigma=sigma)
        Z = 2.0 * np.random.default_rng(n).standard_normal((n, 1))
        value, grad = bimodal_closed_form(Z, sigma=sigma)
        fused_value, fused_grad = model.grad_log_joint_batch(Z)
        np.testing.assert_array_equal(fused_value, value)
        np.testing.assert_allclose(fused_grad, grad, rtol=1e-13)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError, match="pi"):
            synthetic_bimodal_target(pi=(0.5, 0.6))

    @pytest.mark.parametrize("params, key", [
        ({"mu": (math.nan, 1.0)}, "mu"),
        ({"mu": (-1e9, 1.0)}, "mu"),
        ({"mu": ((-1.0, 1.0),)}, "mu"),
        ({"mu": (-1.0, 0.0, 1.0)}, "mu"),
        ({"sigma": (math.inf, 0.5)}, "sigma"),
        ({"sigma": (1e-4, 0.5)}, "sigma"),
        ({"sigma": (0.5,)}, "sigma"),
        ({"pi": (0.2, 0.3, 0.5)}, "pi"),
        ({"mu": (), "sigma": ()}, "mu"),
    ])
    def test_invalid_parameters_name_their_key(self, params, key):
        with pytest.raises(ValueError, match=key):
            synthetic_bimodal_target(**params)


class TestLogisticRegression:
    def test_single_point_at_zero_weights(self):
        data = Dataset(features=np.array([[2.5]]), labels=np.array([1.0]))
        model = logistic_regression_model(data)
        # standard-normal prior at 0 plus log sigmoid(0)
        assert model.log_joint_batch(np.zeros(1)[None])[0] == pytest.approx(-1.612086, abs=1e-6)

    def test_empty_dataset_prior_only(self):
        data = Dataset(features=np.empty((0, 2)), labels=np.empty(0))
        model = logistic_regression_model(data)
        assert model.log_joint_batch(np.zeros(2)[None])[0] == pytest.approx(-1.837877, abs=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        data = Dataset(
            features=rng.standard_normal((20, 3)),
            labels=(rng.uniform(size=20) < 0.5).astype(float),
        )
        model = logistic_regression_model(data)
        w = rng.standard_normal(3)
        fd = finite_difference(lambda x: model.log_joint_batch(x[None])[0], w)
        assert relative_error(model.grad_log_joint_batch(w[None])[1][0], fd) < 1e-4

    def test_batch_consistency(self):
        rng = np.random.default_rng(6)
        data = Dataset(
            features=rng.standard_normal((10, 2)),
            labels=(rng.uniform(size=10) < 0.5).astype(float),
        )
        model = logistic_regression_model(data)
        W = rng.standard_normal((4, 2))
        batched = log_joint_batch(model, W)
        singles = np.array([model.log_joint_batch(w[None])[0] for w in W])
        np.testing.assert_allclose(batched, singles, rtol=1e-12)

    def test_log_joint_equals_two_term_bernoulli_sum(self):
        # the one-pass kernel log sigma(sign * l) must reproduce the two-term
        # sum y log sigma(l) + (1 - y) log sigma(-l) bit for bit, both label
        # classes and saturated logits included
        rng = np.random.default_rng(11)
        X = rng.standard_normal((40, 3)) * np.array([1.0, 10.0, 300.0])
        y = np.tile([0.0, 1.0], 20)
        model = logistic_regression_model(Dataset(features=X, labels=y))
        W = rng.standard_normal((16, 3))
        W[:, 2] *= 3.0  # logits out to |l| ~ 800
        logits = W @ X.T
        assert np.abs(logits).max() > 700
        prior = -0.5 * np.sum(W * W, axis=1) - 0.5 * 3 * LOG_2PI
        ll = y * log_expit(logits) + (1.0 - y) * log_expit(-logits)
        np.testing.assert_array_equal(log_joint_batch(model, W), prior + ll.sum(axis=1))

    def test_log_joint_batch_takes_batches_only(self):
        model = logistic_regression_model(
            Dataset(features=np.ones((2, 3)), labels=np.array([0.0, 1.0])))
        assert log_joint_batch(model, np.zeros((4, 3))).shape == (4,)
        for bad in (np.zeros(3), np.zeros((4, 2)), np.zeros((1, 4, 3))):
            with pytest.raises(ValueError, match="dimension"):
                log_joint_batch(model, bad)

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            logistic_regression_model(
                Dataset(features=np.ones((2, 1)), labels=np.array([0.0, 2.0]))
            )


class TestSigmoidHelpers:
    """The numpy sigmoid and log-sigmoid against SciPy's expit and log_expit."""

    @pytest.mark.parametrize("ours, ref", [(_sigmoid, expit), (_log_sigmoid, log_expit)],
                             ids=["sigmoid", "log_sigmoid"])
    def test_matches_scipy_without_warnings(self, ours, ref):
        rng = np.random.default_rng(21)
        logits = rng.standard_normal((4, 2000)) * np.array([[1.0], [10.0], [100.0], [800.0]])
        far = rng.uniform(700.0, 1e5, 2000) * rng.choice([-1.0, 1.0], 2000)
        edges = [0.0, -0.0, 700.0, -700.0, 745.0, -745.0, 1e308, -1e308,
                 np.inf, -np.inf, np.nan]
        x = np.concatenate([logits.ravel(), far, edges])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = ours(x)
        expected = ref(x)
        # below x = -709.78 SciPy's 1 / (1 + exp(-x)) overflows in exp and
        # returns 0, where e / (1 + e) keeps the subnormal tail; there both
        # lie below the smallest normal number
        tiny = np.finfo(float).tiny
        normal = ~(np.abs(expected) < tiny)  # NaN included
        np.testing.assert_allclose(got[normal], expected[normal], rtol=1e-15, atol=0)
        assert np.all(np.abs(got[~normal]) <= tiny)
        assert np.isnan(got[-1]) and np.all(np.isfinite(got[:-3]))

    def test_logistic_gradient_matches_scipy_residual(self):
        # the kernel's residual sign * sigma(-s) against y - expit(l),
        # saturated logits included
        rng = np.random.default_rng(22)
        X = rng.standard_normal((30, 2)) * np.array([1.0, 200.0])
        y = (rng.uniform(size=30) < 0.5).astype(float)
        W = rng.standard_normal((8, 2))
        _, grad = logistic_regression_model(Dataset(features=X, labels=y)).grad_log_joint_batch(W)
        np.testing.assert_allclose(grad, -W + (y - expit(W @ X.T)) @ X, rtol=1e-12)


class TestMatrixFactorization:
    def test_all_zero_point(self):
        data = Dataset(features=None, labels=np.zeros((1, 1)), mask=np.ones((1, 1), bool))
        model = matrix_factorization_model(data, latent_dim=1)
        assert model.dim == 2
        assert model.log_joint_batch(np.zeros(2)[None])[0] == pytest.approx(-2.756816, abs=1e-6)

    def test_fully_masked_is_prior_only(self):
        R = np.arange(6.0).reshape(2, 3)
        data = Dataset(features=None, labels=R, mask=np.zeros_like(R, dtype=bool))
        model = matrix_factorization_model(data, latent_dim=2)
        z = np.random.default_rng(0).standard_normal(model.dim)
        expected = -0.5 * np.sum(z * z) - 0.5 * model.dim * np.log(2 * np.pi)
        assert model.log_joint_batch(z[None])[0] == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        R = rng.standard_normal((5, 4))
        mask = rng.uniform(size=R.shape) < 0.6
        data = Dataset(features=None, labels=R, mask=mask)
        model = matrix_factorization_model(data, latent_dim=2)
        z = rng.standard_normal(model.dim)
        fd = finite_difference(lambda x: model.log_joint_batch(x[None])[0], z)
        assert relative_error(model.grad_log_joint_batch(z[None])[1][0], fd) < 1e-4

    def test_batch_consistency(self):
        rng = np.random.default_rng(8)
        data = Dataset(
            features=None,
            labels=rng.standard_normal((3, 4)),
            mask=np.ones((3, 4), bool),
        )
        model = matrix_factorization_model(data, latent_dim=2)
        Z = rng.standard_normal((5, model.dim))
        np.testing.assert_allclose(
            model.grad_log_joint_batch(Z)[1],
            np.stack([model.grad_log_joint_batch(z[None])[1][0] for z in Z]),
            rtol=1e-12,
        )


def _small_models():
    """Each built-in model on small data, by name."""
    rng = np.random.default_rng(13)
    X = rng.standard_normal((25, 3))
    R = rng.standard_normal((5, 4))
    return {
        "bimodal": synthetic_bimodal_target(),
        "logistic": logistic_regression_model(
            Dataset(features=X, labels=(rng.uniform(size=25) < 0.5).astype(float))),
        "factorization": matrix_factorization_model(
            Dataset(features=None, labels=R, mask=rng.uniform(size=R.shape) < 0.6),
            latent_dim=2),
    }


class TestValueAndGradient:
    """``grad_log_joint_batch`` returns (log-joint, gradient) from one evaluation."""

    @pytest.mark.parametrize("name", ["bimodal", "logistic", "factorization"])
    def test_value_is_the_log_joint_bit_for_bit(self, name):
        model = _small_models()[name]
        for n in (1, 32, 2048):
            Z = 0.5 * np.random.default_rng(n).standard_normal((n, model.dim))
            value, grad = model.grad_log_joint_batch(Z)
            np.testing.assert_array_equal(value, model.log_joint_batch(Z))
            assert value.shape == (n,) and grad.shape == (n, model.dim)

    @pytest.mark.parametrize("name", ["bimodal", "logistic", "factorization"])
    def test_gradient_matches_finite_differences(self, name):
        model = _small_models()[name]
        Z = 0.5 * np.random.default_rng(14).standard_normal((4, model.dim))
        _, grad = model.grad_log_joint_batch(Z)
        for z, g in zip(Z, grad):
            fd = finite_difference(lambda x: model.log_joint_batch(x[None])[0], z)
            assert relative_error(g, fd) < 1e-4


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestLogisticKernelBytes:
    """The logistic kernel, which folds the label signs into the features
    once, against the oracle that scales the logits and the residuals by
    them, byte for byte."""

    @staticmethod
    def assert_kernel_bits(X, y, W):
        model = logistic_regression_model(Dataset(features=X, labels=y))
        batch, (value, grad) = reference_logistic_kernel(X, y, W)
        assert_same_bits(model.log_joint_batch(W), batch)
        got_value, got_grad = model.grad_log_joint_batch(W)
        assert_same_bits(got_value, value)
        assert_same_bits(got_grad, grad)

    @pytest.mark.parametrize("case", range(60))
    def test_random_cases(self, case):
        rng = np.random.default_rng((23, case))
        N, F = (1, 1) if case == 0 else (int(rng.integers(1, 300)), int(rng.integers(1, 12)))
        n = int(rng.choice([1, 2, 32, 257]))
        X = rng.standard_normal((N, F)) * rng.uniform(0.1, 5.0, F)
        y = (rng.uniform(size=N) < 0.5).astype(float)
        # weight rows of every scale up to |W| = 30, saturated logits included
        W = rng.uniform(-1.0, 1.0, (n, F)) * rng.choice([0.01, 1.0, 30.0], (n, 1))
        self.assert_kernel_bits(X, y, W)

    def test_exactly_zero_logits(self):
        # a zero weight row, a zero feature row and a row whose terms cancel
        X = np.array([[1.0, -1.0], [0.0, 0.0], [2.0, 2.0], [-3.0, 0.5]])
        W = np.array([[0.0, 0.0], [2.0, 2.0], [-0.0, 0.0], [1.0, -1.0], [30.0, -30.0]])
        for y in ([0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0], [0.0] * 4, [1.0] * 4):
            self.assert_kernel_bits(X, np.array(y), W)
        self.assert_kernel_bits(np.zeros((1, 1)), np.array([0.0]), np.zeros((3, 1)))


class TestSampleBlocks:
    """A batch evaluated in blocks of at most ``SAMPLE_BLOCK`` rows gives the
    bits of one whole evaluation; an empty batch gives what one call gives."""

    @pytest.mark.parametrize("name", ["bimodal", "logistic", "factorization"])
    @pytest.mark.parametrize("n", [0, SAMPLE_BLOCK + 1])
    def test_log_joint_batch(self, name, n):
        model = _small_models()[name]
        sizes = []

        def recording(Z):
            sizes.append(len(Z))
            return model.log_joint_batch(Z)

        Z = 0.5 * np.random.default_rng(n).standard_normal((n, model.dim))
        got = log_joint_batch(replace(model, log_joint_batch=recording), Z)
        assert_same_bits(got, model.log_joint_batch(Z))
        assert sizes == ([0] if n == 0 else [SAMPLE_BLOCK, 1])

    @pytest.mark.parametrize("n", [0, 1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 2048])
    def test_class_probabilities(self, n):
        for m in (1, 25, 280):
            rng = np.random.default_rng((16, n, m))
            samples, features = rng.standard_normal((n, 4)), rng.standard_normal((m, 4))
            # one sample row whose logits overflow to +inf or -inf on every
            # feature row, through a coordinate that the other rows leave at 0
            samples[:, 3] = 0.0
            samples[n // 2:][:1] = [0.0, 0.0, 0.0, 1e308]
            features[:, 3] = rng.choice([-3.0, 3.0], m)
            with warnings.catch_warnings():
                # the mean of no samples, and the overflowing row's logits
                warnings.simplefilter("ignore", RuntimeWarning)
                assert_same_bits(class_probabilities(samples, features),
                                 _sigmoid(samples @ features.T).mean(axis=0))

    @pytest.mark.parametrize("n", [0, 1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 2048])
    def test_mean_reconstruction(self, n):
        # a 1 x 1 matrix's mean is numpy's pairwise sum, which no running
        # total repeats
        for rows, cols in ((20, 15), (1, 1)):
            samples = np.random.default_rng(17).standard_normal((n, 3 * (rows + cols)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # the mean of no samples
                assert_same_bits(mean_reconstruction(samples, 3, rows, cols),
                                 _reconstruct(*_unpack_uv(samples, 3, rows, cols)).mean(axis=0))

    # the factorization products (n, 20, 15) and the logistic probabilities' (n, 280)
    @pytest.mark.parametrize("shape", [(20, 15), (280,)])
    @pytest.mark.parametrize("n", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 2048])
    def test_running_mean_is_numpy_mean(self, n, shape):
        rng = np.random.default_rng((n, len(shape)))
        x = rng.standard_normal((n, *shape)) * 10.0 ** rng.uniform(-8.0, 8.0, (n, *shape))
        # signed zeros, which a sum that started from a row instead of +0
        # would keep, and a column summing to exactly 0
        x[:, 0] = -0.0
        x[::2, 1], x[1::2, 1] = -0.0, 0.0
        x[:, 2] = 1.0
        x[-1, 2] = -(n - 1.0)
        got = _mean_of_blocks((x[b].copy() for b in sample_blocks(n)), shape, n)
        assert_same_bits(got, x.mean(axis=0))


class TestFactorizationKernels:
    """The batched-matmul U^T V and gradient contractions against einsum."""

    CASES = [(1, 1, 3, 5), (32, 1, 20, 15), (32, 2, 20, 15), (7, 3, 4, 9), (1, 2, 6, 6)]

    @pytest.mark.parametrize("n, latent_dim, rows, cols", CASES)
    def test_reconstruct_matches_einsum(self, n, latent_dim, rows, cols):
        Z = np.random.default_rng(15).standard_normal((n, latent_dim * (rows + cols)))
        U, V = _unpack_uv(Z, latent_dim, rows, cols)
        np.testing.assert_allclose(_reconstruct(U, V), np.einsum("nlr,nlc->nrc", U, V),
                                   rtol=1e-12)

    @pytest.mark.parametrize("n, latent_dim, rows, cols", CASES)
    def test_value_and_gradient_match_einsum(self, n, latent_dim, rows, cols):
        rng = np.random.default_rng(16)
        R = rng.standard_normal((rows, cols))
        mask = rng.uniform(size=R.shape) < 0.6
        model = matrix_factorization_model(Dataset(features=None, labels=R, mask=mask),
                                           latent_dim)
        Z = rng.standard_normal((n, model.dim))
        value, grad = model.grad_log_joint_batch(Z)
        ref_value, ref_grad = einsum_factorization_log_joint_and_grad(Z, R, mask, latent_dim)
        np.testing.assert_allclose(value, ref_value, rtol=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12)


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc(np.array([1.0, 0.0]), np.array([0.9, 0.1])) == 1.0

    def test_all_ties_half_credit(self):
        assert auroc(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            auroc(np.array([1.0, 1.0]), np.array([0.2, 0.8]))

    @given(
        scores=st.lists(
            st.floats(min_value=0, max_value=1, allow_nan=False), min_size=4, max_size=12
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_complement_symmetry(self, scores):
        n = len(scores)
        labels = np.array([1.0] * (n // 2) + [0.0] * (n - n // 2))
        scores = np.asarray(scores)
        a = auroc(labels, scores)
        b = auroc(1.0 - labels, scores)
        assert a + b == pytest.approx(1.0, abs=1e-12)

    @given(
        data=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=5)),
            min_size=2, max_size=30,
        ).filter(lambda d: 0 < sum(y for y, _ in d) < len(d))
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_rankdata_rank_sum(self, data):
        # few distinct scores, so most cases hold ties
        labels = np.array([float(y) for y, _ in data])
        scores = np.array([s / 5.0 for _, s in data])
        n_pos = labels.sum()
        n_neg = len(labels) - n_pos
        rank_sum = rankdata(scores)[labels == 1].sum()
        expected = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        assert auroc(labels, scores) == expected

    def test_order_invariance(self):
        rng = np.random.default_rng(9)
        labels = np.array([1, 1, 0, 0, 1, 0], dtype=float)
        scores = rng.uniform(size=6)
        perm = rng.permutation(6)
        assert auroc(labels, scores) == pytest.approx(auroc(labels[perm], scores[perm]))


class TestPredictiveMetrics:
    def test_exact_reconstruction_zero_mse(self):
        R = np.zeros((2, 2))
        test = Dataset(features=None, labels=R, mask=np.ones_like(R, dtype=bool))
        posterior = Mixture.single(
            BaseDensity(Family.GAUSSIAN, np.zeros(8), np.full(8, 1e-3))
        )
        metrics = predictive_metrics("matrix_factorization", posterior, test, 256, 0)
        assert metrics["mse"] == pytest.approx(0.0, abs=1e-4)

    def test_train_and_held_out_likelihoods_agree(self):
        # on the training data itself, the model's train_log_likelihood and the
        # held-out mean_log_likelihood are one computation
        rng = np.random.default_rng(12)
        X = rng.standard_normal((30, 3))
        logistic_data = Dataset(features=X, labels=(X[:, 0] > 0).astype(float))
        R = rng.standard_normal((4, 5))
        mf_data = Dataset(features=None, labels=R, mask=rng.uniform(size=R.shape) < 0.7)
        for kind, model in (("logistic", logistic_regression_model(logistic_data)),
                            ("matrix_factorization", matrix_factorization_model(mf_data, 2))):
            data = logistic_data if kind == "logistic" else mf_data
            posterior = Mixture.single(
                BaseDensity(Family.GAUSSIAN, rng.standard_normal(model.dim), np.full(model.dim, 0.3)))
            metrics = predictive_metrics(kind, posterior, data, 64, 3)
            train_ll = model.train_log_likelihood(posterior.sample(64, 3))
            assert metrics["mean_log_likelihood"] == train_ll, kind

    @pytest.mark.parametrize("n", [0, 2.5, True, "8"])
    def test_bad_count_names_n_samples(self, n):
        posterior = Mixture.single(BaseDensity(Family.GAUSSIAN, [0.0], [1.0]))
        test = Dataset(features=np.ones((2, 1)), labels=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="^n_samples must be"):
            predictive_metrics("logistic", posterior, test, n, 0)

    def test_unknown_kind_rejected(self):
        posterior = Mixture.single(BaseDensity(Family.GAUSSIAN, [0.0], [1.0]))
        with pytest.raises(ValueError, match="kind"):
            predictive_metrics("poisson", posterior, Dataset(None, np.zeros((1, 1))), 8, 0)
