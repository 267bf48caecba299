"""Independent reference computations used by the tests.

Everything here is deliberately written against plain numpy arrays rather
than the package's own density classes, so a bug in the library cannot hide
inside its oracle.
"""

import math

import numpy as np

GRID = np.linspace(-16.0, 16.0, 32001)


def gaussian_logpdf(z, loc, scale):
    z = np.asarray(z, dtype=float)
    return -0.5 * ((z - loc) / scale) ** 2 - math.log(scale) - 0.5 * math.log(2 * math.pi)


def laplace_logpdf(z, loc, scale):
    z = np.asarray(z, dtype=float)
    return -np.abs(z - loc) / scale - math.log(2.0 * scale)


def bimodal_logpdf(z, mu=(-1.0, 1.0), sigma=(0.5, 0.5), pi=(0.4, 0.6)):
    """Normalized log density of the two-component Gaussian target."""
    parts = [
        math.log(p) + gaussian_logpdf(z, m, s)
        for m, s, p in zip(mu, sigma, pi)
    ]
    out = parts[0]
    for term in parts[1:]:
        out = np.logaddexp(out, term)
    return out


def _shifted_exp_reference(a, axis):
    a = np.asarray(a, dtype=float)
    a_max = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(a_max), a_max, 0.0)
    with np.errstate(over="ignore"):
        e = np.exp(a - shift)
    return shift, e, np.sum(e, axis=axis, keepdims=True)


def logsumexp_reference(a, axis):
    """Textbook log-sum-exp along one axis: log sum exp(a - shift) + shift,
    with the shift the maximum along the axis where it is finite and 0 where
    it is not."""
    shift, _, total = _shifted_exp_reference(a, axis)
    with np.errstate(divide="ignore"):
        out = np.log(total) + shift
    return np.squeeze(out, axis=axis)


def softmax_reference(a, axis):
    """exp(a - shift) / sum exp(a - shift) along one axis, with the shift of
    :func:`logsumexp_reference`."""
    _, e, total = _shifted_exp_reference(a, axis)
    return e / total


def bimodal_closed_form(z, mu=(-1.0, 1.0), sigma=(0.5, 0.5), pi=(0.4, 0.6)):
    """Log density (n,) of the Gaussian-mixture target and its gradient (n, 1)
    at points z (n, 1), from per-component log terms -((z - mu) (1 / sigma))^2
    / 2 + (-log(2 pi) / 2 - log sigma) + log pi: their log-sum-exp and the
    responsibility-weighted score (z - mu) (-(1 / sigma)^2), contracted as a
    (1, K) @ (K, 1) product per point."""
    mu, sigma, pi = (np.asarray(v, dtype=float) for v in (mu, sigma, pi))
    with np.errstate(divide="ignore"):
        log_pi = np.log(pi)
    inv_sigma = 1.0 / sigma
    logits = (-0.5 * ((z - mu) * inv_sigma) ** 2
              + (-0.5 * math.log(2 * math.pi) - np.log(sigma)) + log_pi)
    resp = softmax_reference(logits, axis=1)
    score = (z - mu) * -(inv_sigma * inv_sigma)
    return (logsumexp_reference(logits, axis=1),
            np.matmul(resp[:, None, :], score[:, :, None])[:, 0])


def mixture_closed_form(family, locs, scales, weights, z):
    """Log density (n,) and gradient (n, D) at points z (n, D) of the
    mean-field ``family`` ("gaussian" or "laplace") mixture with atoms
    (locs[k], scales[k]) and ``weights``, from the textbook formulas: per
    coordinate -(z - mu)^2 / (2 sigma^2) - log sigma - log(2 pi) / 2 or
    -|z - mu| / b - log(2 b), summed over D, the log-sum-exp of those sums
    plus log weights, and the responsibility-weighted scores -(z - mu) /
    sigma^2 or -sign(z - mu) / b.  Also returns the responsibilities (n, K)
    and the per-atom sums of the absolute per-coordinate terms (n, K), which
    scale the rounding error of any evaluation of the logits."""
    locs, scales = np.asarray(locs, dtype=float), np.asarray(scales, dtype=float)
    diff = np.asarray(z, dtype=float)[:, None, :] - locs  # (n, K, D)
    if family == "gaussian":
        quad = 0.5 * (diff / scales) ** 2
        norm = np.log(scales) + 0.5 * math.log(2 * math.pi)
        score = -diff / scales**2
    else:
        quad = np.abs(diff) / scales
        norm = np.log(2.0 * scales)
        score = -np.sign(diff) / scales
    with np.errstate(divide="ignore"):
        log_w = np.log(np.asarray(weights, dtype=float))
    logits = -(quad + norm).sum(axis=2) + log_w
    resp = softmax_reference(logits, axis=1)
    magnitude = (quad + np.abs(norm)).sum(axis=2) + np.abs(np.where(np.isfinite(log_w), log_w, 0.0))
    return (logsumexp_reference(logits, axis=1), np.einsum("nk,nkd->nd", resp, score),
            resp, magnitude)


def gaussian_chi_square(loc_s, scale_s, loc_q, scale_q):
    """Closed-form chi-square integral int (s - q)^2 / q for 1-D Gaussians
    s = N(loc_s, scale_s^2) and q = N(loc_q, scale_q^2).

    It equals int s^2 / q - 1, and int s^2 / q is a Gaussian integral that
    converges only when 2 scale_q^2 > scale_s^2; otherwise this returns inf.
    """
    denom = 2.0 * scale_q**2 - scale_s**2
    if denom <= 0.0:
        return math.inf
    return (scale_q**2 / (scale_s * math.sqrt(denom))
            * math.exp((loc_s - loc_q) ** 2 / denom) - 1.0)


def trapezoid_kl(log_q, log_p, z=GRID):
    """KL(q || p) by trapezoid quadrature of two log densities on a grid."""
    q = np.exp(log_q)
    return float(np.trapezoid(q * (log_q - log_p), z))


def finite_difference(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        g.flat[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def einsum_factorization_log_joint_and_grad(Z, R, mask, latent_dim):
    """Matrix-factorization log-joint (n,) and gradient (n, D) at points Z
    (n, D) = [vec(U), vec(V)], written with np.einsum contractions: an oracle
    for the model's batched-matmul kernels."""
    rows, cols = R.shape
    U = Z[:, : latent_dim * rows].reshape(-1, latent_dim, rows)
    V = Z[:, latent_dim * rows:].reshape(-1, latent_dim, cols)
    G = (R - np.einsum("nlr,nlc->nrc", U, V)) * mask
    dU = np.einsum("nlc,nrc->nlr", V, G)
    dV = np.einsum("nlr,nrc->nlc", U, G)
    log_2pi = math.log(2 * math.pi)
    prior = -0.5 * np.sum(Z * Z, axis=1) - 0.5 * Z.shape[1] * log_2pi
    ll = -0.5 * np.sum(G * G, axis=(1, 2)) - 0.5 * mask.sum() * log_2pi
    grad = -Z + np.concatenate([dU.reshape(len(Z), -1), dV.reshape(len(Z), -1)], axis=1)
    return prior + ll, grad


def reference_certificate(q_t, locs, scales, model, n, seed):
    """The Monte-Carlo gap certificate as a loop over the candidate rows of
    (P, D) ``locs`` and ``scales``, each estimated on its own: each row's
    samples, then the spike probe's, meet the mixture ``q_t`` and the model in
    a call of their own.  It takes the package's ``Mixture`` and draws the
    streams of ``boostvi.certificate_gap``, so that the two agree bit for bit.
    Returns each row's ``(values, stderrs)``, the probe last."""
    from boostvi.densities import PARAM_BOX, SCALE_FLOOR, standard_noise

    ss = np.random.SeedSequence(entropy=(int(seed), 1618))
    seeds = ss.spawn(len(locs) + 2)
    zq = q_t.sample(n, seeds[0])
    aq = q_t.log_prob(zq) - model.log_joint_batch(zq)
    probe = (np.clip(zq[int(np.argmin(aq))], -PARAM_BOX, PARAM_BOX),
             np.maximum(0.1 * q_t.scales.mean(axis=0), SCALE_FLOOR))
    values, stderrs = [], []
    for (loc, scale), s_seed in zip([*zip(locs, scales), probe], seeds[1:]):
        noise = standard_noise(q_t.family, n, q_t.dim, np.random.default_rng(s_seed))
        zs = loc + scale * noise
        as_ = q_t.log_prob(zs) - model.log_joint_batch(zs)
        values.append(float(np.mean(aq) - np.mean(as_)))
        stderrs.append(float(math.sqrt(np.var(aq) / n + np.var(as_) / n)))
    return np.array(values), np.array(stderrs)


def reference_curvature_probe(s, q, gammas, z):
    """The curvature probe (2 / gamma^2) KL(q + gamma (s - q) || q) with the
    blend formed as a linear combination of the two densities on the grid
    ``z`` and KL taken as the trapezoid of y (log y - log q) there.  It takes
    the package's ``BaseDensity`` and ``Mixture``; ``boostvi.curvature_probe``
    blends by the engine's step and integrates in log space instead."""
    dens_s = np.exp(s.log_prob(z.reshape(-1, 1)))
    dens_q = np.exp(q.log_prob(z.reshape(-1, 1)))
    out = []
    for gamma in gammas:
        y = dens_q + gamma * (dens_s - dens_q)
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = np.where(y > 0, y * (np.log(y) - np.log(dens_q)), 0.0)
        out.append(2.0 / gamma**2 * float(np.trapezoid(integrand, z)))
    return out


def reference_logistic_kernel(X, y, W):
    """The logistic model's log-joint at weight rows W (n, F) and its
    log-joint and gradient, by the steps the package's kernel took when it
    scaled the logits s = sign * (W @ X.T) and the residuals sign *
    sigma(-s) by the label signs: a bit-for-bit oracle for a kernel that
    folds the signs into the features instead.  The log-sigmoid is min(s, 0)
    - log1p(exp(-|s|)) and the sigmoid where(x >= 0, 1, e) / (1 + e).
    Returns ``(batch, (value, grad))``."""
    sign = 2.0 * y - 1.0
    prior = -0.5 * np.sum(W * W, axis=1) - 0.5 * X.shape[1] * math.log(2 * math.pi)

    def exp_neg_abs(x):
        return np.exp(-np.abs(x))

    def log_sigmoid(x, e):
        return np.minimum(x, 0.0) - np.log1p(e)

    s = W @ X.T
    s *= sign
    batch = prior + log_sigmoid(s, exp_neg_abs(s)).sum(axis=1)
    s = (W @ X.T) * sign
    e = exp_neg_abs(s)
    sigma = np.where(-s >= 0, 1.0, e) / (1.0 + e)
    value = prior + log_sigmoid(s, e).sum(axis=1)
    return batch, (value, -W + (sign * sigma) @ X)


def relative_error(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


# Frozen values computed from the quadrature oracles above (grid search
# followed by simplex refinement of the quadrature objective).

# best single-Gaussian fit of the default bimodal target, and its KL
SINGLE_GAUSSIAN_FIT = (0.1657, 1.0095)
SINGLE_GAUSSIAN_KL = 0.23033

# residual-objective optimum at entropy weight 1/sqrt(2) when the current
# approximation is a unit-scale atom covering the +1 mode
RESIDUAL_ATOM_OPT = (-1.6625, 0.4915)

# mixture log density of the default target at z = 0, long-double two-term sum
BIMODAL_LOGPDF_AT_0 = -2.2257913526447273

# closed-form chi-square limit for the N(0,1) vs N(1,1) pair
CHI_SQUARE_LIMIT_01_11 = math.e - 1.0
