"""Mean-field location-scale base densities, mixtures, and 1-D quadrature oracles.

Atoms are diagonal Gaussian or Laplace densities with a hard lower bound on
every scale entry (non-degeneracy) and locations confined to a box.  A mixture
is a family, the stacked locations and scales (K, D) of its atoms, one row per
atom, and simplex weights (K,); all log-density evaluation goes through one
max-shifted exp pass (:func:`_shifted_exp`), the textbook log-sum-exp.  The
rules every module reads counts and reals by (:func:`whole_number`,
:func:`sample_count`, :func:`real_number`) and the Monte-Carlo block size
``SAMPLE_BLOCK`` live here, in the module the others import, so the samplers
use them too.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

SCALE_FLOOR = 1e-3  # smallest scale entry an atom may have
PARAM_BOX = 1e3  # largest |loc| entry an atom may have
ATOM_MERGE_TOL = 1e-9  # max-norm distance at which two atoms count as one
SAMPLE_BLOCK = 256  # most rows of a Monte-Carlo batch evaluated in one call

# trapezoid was renamed in numpy 2.0
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def sample_blocks(n: int):
    """Consecutive slices of at most ``SAMPLE_BLOCK`` rows that cover range(n),
    each ending at most at n."""
    return (slice(i, min(i + SAMPLE_BLOCK, n)) for i in range(0, n, SAMPLE_BLOCK))


def _shifted_exp(a: np.ndarray, axis: int):
    """The shift, e = exp(a - shift) and the sum of e along ``axis`` of a
    float array ``a``, shift and sum with that axis kept at length 1.

    The shift is the maximum along the axis where it is finite and 0 where it
    is not, so every finite row has e in [0, 1] with one entry 1 and a sum in
    [1, K], which cannot overflow.  A row whose maximum is +inf, or which
    holds a NaN, sums to +inf or NaN, and a row of -inf to 0; the log of the
    sum plus the shift then gives SciPy's +-inf and NaN.
    """
    shift = a.max(axis=axis, keepdims=True)
    with np.errstate(over="ignore"):
        shift = np.where(np.isfinite(shift), shift, 0.0)
        e = np.subtract(a, shift)
        np.exp(e, out=e)  # in place: no second array of a's size
    return shift, e, e.sum(axis=axis, keepdims=True)


def logsumexp(a, axis: int, keepdims: bool = False) -> np.ndarray:
    """Log-sum-exp of a real array along one axis: the log of the
    :func:`_shifted_exp` sum plus its shift, one exp pass.

    It gives ``scipy.special.logsumexp``'s +-inf and NaN exactly and its
    finite values to within 2 eps max(1, |value|), but skips SciPy's
    per-call array-API dispatch, which costs more than the arithmetic at the
    (32, K) sizes of the atom solver.  A one-column input returns its column
    (exp(0) = 1 and log(1) = 0), so a one-atom mixture's log density is its
    atom's.
    """
    shift, _, total = _shifted_exp(np.asarray(a, dtype=float), axis)
    with np.errstate(divide="ignore"):
        out = np.log(total, out=total)
    out += shift
    return out if keepdims else np.squeeze(out, axis=axis)


class DataError(ValueError):
    """Input data that cannot be used: an unreadable or malformed file or
    trace entry, an invalid value, or a split that leaves a side empty."""


def whole_number(value, name: str = "value") -> int:
    """A count given as an int or a whole float, as an int.  Any other value
    raises a :class:`DataError` naming ``name``: a fraction, which ``int``
    would truncate, a bool, which it would read as 0 or 1, or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        whole = False
    else:
        whole = isinstance(value, numbers.Integral) or float(value).is_integer()
    if not whole:
        raise DataError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def sample_count(value, name: str) -> int:
    """A Monte-Carlo sample count, a whole number >= 1, as an int; any other
    value raises a :class:`DataError` naming ``name``."""
    n = whole_number(value, name)
    if n < 1:
        raise DataError(f"{name} must be >= 1, got {n}")
    return n


def real_number(value, name: str = "value") -> float:
    """A real number given as an int or a float, as a float.  Any other value
    raises a :class:`DataError` naming ``name``: a bool, which ``float``
    would read as 0 or 1, or a string, which it would parse."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DataError(f"{name} must be a real number, got {value!r}")
    return float(value)


class Family(str, enum.Enum):
    GAUSSIAN = "gaussian"
    LAPLACE = "laplace"


def _check_points(z, dim: int) -> np.ndarray:
    """Points as a float array; anything but a batch (n, D) of dimension
    ``dim`` raises a ValueError."""
    Z = np.asarray(z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != dim:
        raise ValueError(f"expected points (n, D) of dimension D={dim}, got shape {Z.shape}")
    return Z


def log_weights(w: np.ndarray) -> np.ndarray:
    """Elementwise log of nonnegative weights, -inf at zero without a warning."""
    with np.errstate(divide="ignore"):
        return np.where(w > 0, np.log(np.maximum(w, 1e-300)), -np.inf)


def _as_vector(x, name: str, ndim: int = 1) -> np.ndarray:
    """A read-only float copy of ``x`` with ``ndim`` dimensions."""
    arr = np.array(x, dtype=float, ndmin=1)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-D array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


# every range check below is written to be False for NaN, so NaN is rejected
def _as_loc(x, name: str = "loc", ndim: int = 1) -> np.ndarray:
    """``x`` as an array of atom locations; an entry outside ``[-PARAM_BOX,
    PARAM_BOX]`` raises a ValueError that names ``name``."""
    loc = _as_vector(x, name, ndim)
    if not (np.abs(loc) <= PARAM_BOX).all():
        raise ValueError(f"{name} entries must lie in the param_box [-{PARAM_BOX}, {PARAM_BOX}]")
    return loc


def _as_scale(x, name: str = "scale", ndim: int = 1) -> np.ndarray:
    """``x`` as an array of atom scales; an entry below ``SCALE_FLOOR`` or
    not finite raises a ValueError that names ``name``."""
    scale = _as_vector(x, name, ndim)
    if not ((scale >= SCALE_FLOOR * (1.0 - 1e-12)) & (scale < math.inf)).all():
        raise ValueError(f"{name} entries must be finite and >= scale_floor={SCALE_FLOOR}")
    return scale


def _as_params(loc, scale, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """Checked loc and scale arrays of one shape, (D,) or (K, D), with D >= 1."""
    loc, scale = _as_loc(loc, ndim=ndim), _as_scale(scale, ndim=ndim)
    if loc.shape != scale.shape:
        raise ValueError("loc and scale must have the same length")
    if loc.shape[-1] == 0:
        raise ValueError("an atom needs at least one dimension, got D = 0")
    return loc, scale


def log_normalizer(family: Family, scale: np.ndarray) -> np.ndarray:
    """Per-coordinate log normalizing constant of a location-scale density."""
    if family is Family.GAUSSIAN:
        return -0.5 * LOG_2PI - np.log(scale)
    return -np.log(2.0 * scale)


def coordinate_log_prob(family: Family, norm: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-coordinate log density at standardized points ``u = (z - loc) / scale``,
    given the :func:`log_normalizer` ``norm``."""
    if family is Family.GAUSSIAN:
        return norm - 0.5 * u * u
    return norm - np.abs(u)


def standard_score(family: Family, u: np.ndarray) -> np.ndarray:
    """d log density / du of the standardized density at points ``u``; divided
    by the scale it is the score d log density / dz."""
    if family is Family.GAUSSIAN:
        return -u
    return -np.sign(u)


@dataclass(frozen=True)
class BaseDensity:
    """A single mean-field atom: independent Gaussian or Laplace per coordinate.

    ``scale`` is the standard deviation for Gaussians and the diversity b for
    Laplace.  Every entry must sit at or above ``SCALE_FLOOR`` and every
    location inside ``[-PARAM_BOX, PARAM_BOX]``.
    """

    family: Family
    loc: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        loc, scale = _as_params(self.loc, self.scale, ndim=1)
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "loc", loc)
        object.__setattr__(self, "scale", scale)

    @property
    def dim(self) -> int:
        return self.loc.shape[0]

    def log_prob(self, z):
        """Log density (n,) at a batch of points ``z`` (n, D)."""
        Z = _check_points(z, self.dim)
        u = (Z - self.loc) / self.scale
        lp = coordinate_log_prob(self.family, log_normalizer(self.family, self.scale), u)
        return lp.sum(axis=1)

    def grad_log_prob(self, z):
        """Gradient of the log density in z (n, D) at a batch of points (n, D)."""
        Z = _check_points(z, self.dim)
        return standard_score(self.family, (Z - self.loc) / self.scale) / self.scale

    def entropy(self) -> float:
        """Closed-form differential entropy."""
        if self.family is Family.GAUSSIAN:
            return float(np.sum(0.5 * np.log(2.0 * math.pi * math.e * self.scale**2)))
        return float(np.sum(1.0 + np.log(2.0 * self.scale)))

    def log_sup_norm(self) -> float:
        """Log of the maximum density value (attained at loc)."""
        if self.family is Family.GAUSSIAN:
            return float(-np.sum(np.log(self.scale * math.sqrt(2.0 * math.pi))))
        return float(-np.sum(np.log(2.0 * self.scale)))

    def transform(self, eps: np.ndarray) -> np.ndarray:
        """Location-scale map applied to standardized noise of shape (n, D)."""
        return self.loc + self.scale * eps

    def sample(self, n: int, seed) -> np.ndarray:
        n = sample_count(n, "n")
        rng = np.random.default_rng(seed)
        return self.transform(standard_noise(self.family, n, self.dim, rng))


def standard_noise(family: Family, n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Standardized noise: N(0,1) draws, or standard Laplace via inverse CDF."""
    if Family(family) is Family.GAUSSIAN:
        return rng.standard_normal((n, dim))
    u = rng.uniform(size=(n, dim)) - 0.5
    return -np.sign(u) * np.log1p(-2.0 * np.abs(u))


def kl_gaussian_closed(p: BaseDensity, q: BaseDensity) -> float:
    """KL(p || q) for two diagonal Gaussians of equal dimension."""
    if p.family is not Family.GAUSSIAN or q.family is not Family.GAUSSIAN:
        raise ValueError("closed-form KL requires two Gaussian densities")
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    var_ratio = (p.scale / q.scale) ** 2
    mean_term = ((p.loc - q.loc) / q.scale) ** 2
    return float(0.5 * np.sum(var_ratio + mean_term - 1.0 - np.log(var_ratio)))


@dataclass(frozen=True)
class Mixture:
    """Convex combination of K atoms of one ``family`` with simplex ``weights``
    (K,): atom k is row k of ``locs`` and ``scales`` (K, D)."""

    family: Family
    locs: np.ndarray
    scales: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        locs, scales = _as_params(self.locs, self.scales, ndim=2)
        w = _as_vector(self.weights, "weights")
        if len(w) != len(locs):
            raise ValueError("weights and atoms must have the same length")
        if not (w >= 0).all():  # False for NaN, like the sum test below
            raise ValueError("weights must be nonnegative and not NaN")
        total = w.sum()
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"weights must sum to 1, got {total}")
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "locs", locs)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_log_weights", log_weights(w))
        object.__setattr__(self, "_norm", log_normalizer(self.family, scales))

    @classmethod
    def from_unnormalized(cls, atoms, weights) -> "Mixture":
        """A sequence of :class:`BaseDensity` atoms as rows, weights over their sum."""
        w = _as_vector(weights, "weights")
        # checked before the division, which would warn on a zero or inf sum
        if not (np.isfinite(w).all() and w.sum() > 0):
            raise ValueError(f"weights must be finite with a positive sum, got {w}")
        if not atoms:
            raise ValueError("mixture needs at least one atom")
        if len({a.dim for a in atoms}) != 1:
            raise ValueError("all atoms must share one dimension")
        if len({a.family for a in atoms}) != 1:
            raise ValueError("all atoms must share one family")
        locs, scales = np.stack([a.loc for a in atoms]), np.stack([a.scale for a in atoms])
        return cls(atoms[0].family, locs, scales, w / w.sum())

    @classmethod
    def single(cls, atom: BaseDensity) -> "Mixture":
        return cls.from_unnormalized((atom,), [1.0])

    @property
    def dim(self) -> int:
        return self.locs.shape[1]

    def atom(self, k: int) -> BaseDensity:
        """Row ``k`` as an atom."""
        return BaseDensity(self.family, self.locs[k], self.scales[k])

    def index_of(self, s: BaseDensity) -> int | None:
        """Index of the first atom of ``s``'s family whose loc and scale are
        each within ``ATOM_MERGE_TOL`` of ``s``'s (max norm), else None."""
        if s.family is not self.family or s.dim != self.dim:
            return None
        match = ((np.abs(self.locs - s.loc).max(axis=1) <= ATOM_MERGE_TOL)
                 & (np.abs(self.scales - s.scale).max(axis=1) <= ATOM_MERGE_TOL))
        hits = np.flatnonzero(match)
        return int(hits[0]) if hits.size else None

    def components(self, Z: np.ndarray, grads: bool = False):
        """Per-atom log densities (n, K) at ``Z`` (n, D) and, with ``grads``,
        per-atom scores (n, K, D), else None, from one standardization of ``Z``."""
        u = (Z[:, None, :] - self.locs) / self.scales  # (n, K, D)
        g = standard_score(self.family, u) / self.scales if grads else None
        return coordinate_log_prob(self.family, self._norm, u).sum(axis=2), g

    def log_prob(self, z):
        """Log density (n,) at a batch of points ``z`` (n, D)."""
        comp, _ = self.components(_check_points(z, self.dim))
        comp += self._log_weights
        return logsumexp(comp, axis=1)

    def grad_log_prob(self, z):
        """Responsibility-weighted atom score (n, D) at a batch of points (n, D)."""
        _, out = self.log_prob_and_grad(z)
        return out

    def log_prob_and_grad(self, z):
        """:meth:`log_prob` and :meth:`grad_log_prob` at once, sharing the
        component evaluation."""
        comp, comp_grads = self.components(_check_points(z, self.dim), grads=True)
        comp += self._log_weights
        shift, e, total = _shifted_exp(comp, axis=1)
        e /= total  # the responsibilities (n, K), from the one exp pass
        return np.log(total[:, 0]) + shift[:, 0], np.einsum("nk,nkd->nd", e, comp_grads)

    def sample(self, n: int, seed) -> np.ndarray:
        """``n`` draws (n, D) from the stream of ``seed``.  The noise is drawn
        ``SAMPLE_BLOCK`` rows at a time straight into the output, the stream
        of one draw, and transformed there in place, so no second (n, D)
        array is formed."""
        n = sample_count(n, "n")
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self.weights), size=n, p=self.weights)
        # one noise draw, its rows dealt to atom 0's samples first, then atom
        # 1's, and so on: the stream of one draw per atom in turn
        order = np.argsort(idx, kind="stable")
        out = np.empty((n, self.dim))
        for b in sample_blocks(n):
            out[order[b]] = standard_noise(self.family, b.stop - b.start, self.dim, rng)
        for b in sample_blocks(n):
            # the bits of locs[idx] + scales[idx] * noise
            out[b] *= self.scales[idx[b]]
            out[b] += self.locs[idx[b]]
        return out


def quadrature_kl(q: Mixture, log_p, z: np.ndarray) -> float:
    """Trapezoid estimate of KL(q || p) on the 1-D grid ``z``, for a 1-D
    mixture ``q`` and a callable ``log_p`` of an unnormalized log density over
    1-D points, which is renormalized on the grid."""
    lq = q.log_prob(z.reshape(-1, 1))
    lp = np.asarray(log_p(z))
    # q is a proper density; p is normalized on the grid
    shift = lp.max()
    log_zp = shift + math.log(_trapezoid(np.exp(lp - shift), z))
    lp = lp - log_zp
    dens_q = np.exp(lq)
    integrand = np.where(dens_q > 0, dens_q * (lq - lp), 0.0)
    return float(_trapezoid(integrand, z))
