"""Mean-field location-scale base densities, mixtures, and 1-D quadrature oracles.

Atoms are diagonal Gaussian or Laplace densities with a hard lower bound on
every scale entry (non-degeneracy) and locations confined to a box.  Mixtures
are convex combinations of atoms; all log-density evaluation goes through a
max-shifted log-sum-exp.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

SCALE_FLOOR = 1e-3  # smallest scale entry an atom may have
PARAM_BOX = 1e3  # largest |loc| entry an atom may have
ATOM_MERGE_TOL = 1e-9  # max-norm distance at which two atoms count as one

# trapezoid was renamed in numpy 2.0
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def logsumexp(a, axis: int, keepdims: bool = False) -> np.ndarray:
    """Max-shifted log-sum-exp of a real array along one axis.

    Takes the same steps as ``scipy.special.logsumexp`` (the maximum is split
    out of the sum and enters through ``log1p``), so the two agree bit for
    bit, but skips SciPy's per-call array-API dispatch, which costs more than
    the arithmetic at the (32, K) sizes of the atom solver.
    """
    a = np.asarray(a, dtype=float)
    a_max = a.max(axis=axis, keepdims=True)
    if np.isfinite(a_max).all():
        # every row has a finite maximum: no shift below is inf - inf and
        # every row has at least one maximal entry
        is_max = a == a_max
        with np.errstate(over="ignore"):  # spans beyond the float range
            shifted = a - a_max
        shifted[is_max] = -np.inf
        rest = np.exp(shifted).sum(axis=axis, keepdims=True)
        n_max = is_max.sum(axis=axis, keepdims=True, dtype=float)
        out = np.log1p(np.where(rest == 0, rest, rest / n_max)) + np.log(n_max) + a_max
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            is_max = a == a_max
            n_max = np.sum(is_max, axis=axis, keepdims=True, dtype=float)
            rest = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max),
                          axis=axis, keepdims=True)
            rest = np.where(rest == 0, rest, rest / n_max)
            out = np.log1p(rest) + np.log(n_max) + a_max
            finite = np.isfinite(out)
            # infinite or all -inf rows: the unshifted sum handles them
            direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
            out = np.where(finite, out, direct)
    return out if keepdims else np.squeeze(out, axis=axis)


class Family(str, enum.Enum):
    GAUSSIAN = "gaussian"
    LAPLACE = "laplace"


def _check_points(z, dim: int) -> tuple[np.ndarray, bool]:
    """Points as an (n, D) array, and whether a single point (D,) was given."""
    Z = np.asarray(z, dtype=float)
    squeeze = Z.ndim == 1
    Z = np.atleast_2d(Z)
    if Z.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got {Z.shape[1]}")
    return Z, squeeze


def log_weights(w: np.ndarray) -> np.ndarray:
    """Elementwise log of nonnegative weights, -inf at zero without a warning."""
    with np.errstate(divide="ignore"):
        return np.where(w > 0, np.log(np.maximum(w, 1e-300)), -np.inf)


def _as_vector(x, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {arr.shape}")
    return arr


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


def coordinate_score(family: Family, u: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """d log density / dz per coordinate at standardized points ``u``."""
    if family is Family.GAUSSIAN:
        return -u / scale
    return -np.sign(u) / scale


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
        loc = _as_vector(self.loc, "loc")
        scale = _as_vector(self.scale, "scale")
        if loc.shape != scale.shape:
            raise ValueError("loc and scale must have the same length")
        # every range check is written to be False for NaN, so NaN is rejected
        if not ((scale >= SCALE_FLOOR * (1.0 - 1e-12)) & (scale < math.inf)).all():
            raise ValueError(f"scale entries must be finite and >= scale_floor={SCALE_FLOOR}")
        if not (np.abs(loc) <= PARAM_BOX).all():
            raise ValueError(f"loc entries must lie in the param_box [-{PARAM_BOX}, {PARAM_BOX}]")
        loc.setflags(write=False)
        scale.setflags(write=False)
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "loc", loc)
        object.__setattr__(self, "scale", scale)

    @property
    def dim(self) -> int:
        return self.loc.shape[0]

    def log_prob(self, z):
        """Log density at ``z``; accepts one point of shape (D,) or a batch (n, D)."""
        Z, squeeze = _check_points(z, self.dim)
        u = (Z - self.loc) / self.scale
        lp = coordinate_log_prob(self.family, log_normalizer(self.family, self.scale), u)
        out = lp.sum(axis=1)
        return float(out[0]) if squeeze else out

    def grad_log_prob(self, z):
        """Gradient of the log density in z, batched like :meth:`log_prob`."""
        Z, squeeze = _check_points(z, self.dim)
        g = coordinate_score(self.family, (Z - self.loc) / self.scale, self.scale)
        return g[0] if squeeze else g

    def entropy(self) -> float:
        """Closed-form differential entropy."""
        if self.family is Family.GAUSSIAN:
            return float(np.sum(0.5 * np.log(2.0 * math.pi * math.e * self.scale**2)))
        return float(np.sum(1.0 + np.log(2.0 * self.scale)))

    def log_sup_norm(self) -> float:
        if self.family is Family.GAUSSIAN:
            return float(-np.sum(np.log(self.scale * math.sqrt(2.0 * math.pi))))
        return float(-np.sum(np.log(2.0 * self.scale)))

    def sup_norm(self) -> float:
        """Maximum density value (attained at loc)."""
        return math.exp(self.log_sup_norm())

    def transform(self, eps: np.ndarray) -> np.ndarray:
        """Location-scale map applied to standardized noise of shape (n, D)."""
        return self.loc + self.scale * eps

    def sample(self, n: int, seed) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be >= 1")
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
    """Convex combination of atoms of one ``family`` with simplex weights,
    evaluated, sampled and matched through their stacked ``locs``, ``scales`` (K, D)."""

    atoms: tuple[BaseDensity, ...]
    weights: np.ndarray

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if not atoms:
            raise ValueError("mixture needs at least one atom")
        w = _as_vector(self.weights, "weights")
        if len(w) != len(atoms):
            raise ValueError("weights and atoms must have the same length")
        if not (w >= 0).all():  # False for NaN, like the sum test below
            raise ValueError("weights must be nonnegative and not NaN")
        total = w.sum()
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"weights must sum to 1, got {total}")
        dims = {a.dim for a in atoms}
        if len(dims) != 1:
            raise ValueError("all atoms must share one dimension")
        family = atoms[0].family
        if any(a.family is not family for a in atoms):
            raise ValueError("all atoms must share one family")
        locs = np.stack([a.loc for a in atoms])
        scales = np.stack([a.scale for a in atoms])
        for arr in (w, locs, scales):
            arr.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "locs", locs)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "_log_weights", log_weights(w))
        object.__setattr__(self, "_norm", log_normalizer(family, scales))

    @classmethod
    def from_unnormalized(cls, atoms, weights) -> "Mixture":
        w = _as_vector(weights, "weights")
        # checked before the division, which would warn on a zero or inf sum
        if not (np.isfinite(w).all() and w.sum() > 0):
            raise ValueError(f"weights must be finite with a positive sum, got {w}")
        return cls(tuple(atoms), w / w.sum())

    @classmethod
    def single(cls, atom: BaseDensity) -> "Mixture":
        return cls((atom,), np.array([1.0]))

    @property
    def dim(self) -> int:
        return self.locs.shape[1]

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
        g = coordinate_score(self.family, u, self.scales) if grads else None
        return coordinate_log_prob(self.family, self._norm, u).sum(axis=2), g

    def log_prob(self, z):
        Z, squeeze = _check_points(z, self.dim)
        comp, _ = self.components(Z)
        out = logsumexp(comp + self._log_weights, axis=1)
        return float(out[0]) if squeeze else out

    def grad_log_prob(self, z):
        """Responsibility-weighted atom score, batched like :meth:`log_prob`."""
        _, out = self.log_prob_and_grad(z)
        return out

    def log_prob_and_grad(self, z):
        """:meth:`log_prob` and :meth:`grad_log_prob` at once, sharing the
        component evaluation."""
        Z, squeeze = _check_points(z, self.dim)
        comp, comp_grads = self.components(Z, grads=True)
        logits = comp + self._log_weights
        lse = logsumexp(logits, axis=1, keepdims=True)
        resp = np.exp(logits - lse)  # (n, K)
        grad = np.einsum("nk,nkd->nd", resp, comp_grads)
        return (float(lse[0, 0]), grad[0]) if squeeze else (lse[:, 0], grad)

    def sample(self, n: int, seed) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self.atoms), size=n, p=self.weights)
        # one noise draw, its rows dealt to atom 0's samples first, then atom
        # 1's, and so on: the stream of one draw per atom in turn
        noise = np.empty((n, self.dim))
        noise[np.argsort(idx, kind="stable")] = standard_noise(self.family, n, self.dim, rng)
        return self.locs[idx] + self.scales[idx] * noise


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform 1-D grid for trapezoid-rule oracles."""

    lo: float
    hi: float
    n_points: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("grid requires lo < hi")
        if self.n_points < 3:
            raise ValueError("grid requires n_points >= 3")

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_points)


def quadrature_kl(q: Mixture, log_p, grid: QuadratureGrid) -> float:
    """Trapezoid estimate of KL(q || p) on a 1-D grid, for a 1-D mixture ``q``
    and a callable ``log_p`` of an unnormalized log density over 1-D points,
    which is renormalized on the grid."""
    z = grid.points()
    lq = q.log_prob(z.reshape(-1, 1))
    lp = np.asarray(log_p(z))
    # q is a proper density; p is normalized on the grid
    shift = lp.max()
    log_zp = shift + math.log(_trapezoid(np.exp(lp - shift), z))
    lp = lp - log_zp
    dens_q = np.exp(lq)
    integrand = np.where(dens_q > 0, dens_q * (lq - lp), 0.0)
    return float(_trapezoid(integrand, z))

