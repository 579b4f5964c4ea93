"""Gaussian densities and exact moment arithmetic.

Moments of centered Gaussians are computed by recursive pair counting
(Isserlis), so every expectation of a polynomial reduces to sums of
products of covariance entries.  Means are handled by shifting the
polynomial, not the density.  Results are memoized per covariance
matrix because the same small set of moments recurs constantly in
inner products; the least recently used tables are evicted once more
than ``MOMENT_CACHE_SIZE`` covariances have been seen.
"""

import operator
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NotSPDError
from .linalg import _as_square, _check_symmetric
from .monomials import graded_index
from .mpoly import MPoly


def check_finite_rows(points):
    """Raise ``ValueError`` naming the first row of ``points`` that holds
    a non-finite entry; do nothing when every row is finite."""
    bad = np.flatnonzero(~np.all(np.isfinite(points), axis=1))
    if bad.size:
        raise ValueError(
            f"points must be finite; row {bad[0]} is {points[bad[0]].tolist()}"
        )


@dataclass(frozen=True, eq=False)
class GaussianDensity:
    """Normalized Gaussian density with mean vector and SPD covariance.

    Compares and hashes by identity.  ``whitener`` is W = L^-T for the
    Cholesky factor cov = L L^T, so the whitened coordinates
    z = W^T (x - mean) make the density exp(log_norm - |z|^2 / 2).
    """

    mean: np.ndarray
    cov: np.ndarray
    log_norm: float = field(init=False)
    whitener: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = _as_square(self.cov, "cov")
        if mean.shape[0] != cov.shape[0]:
            raise DimensionMismatchError(
                f"mean has dimension {mean.shape[0]}, cov {cov.shape[0]}"
            )
        _check_symmetric(cov, "cov")
        try:
            L = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise NotSPDError("covariance is not positive definite") from None
        sign, logdet = np.linalg.slogdet(cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(
            self, "log_norm", -0.5 * (mean.shape[0] * np.log(2.0 * np.pi) + logdet)
        )
        object.__setattr__(self, "whitener", np.ascontiguousarray(np.linalg.inv(L).T))

    @property
    def dim(self):
        return self.mean.shape[0]

    def pdf(self, x):
        """Density at one point."""
        point = np.asarray(x, dtype=float).reshape(1, -1)
        return float(self.pdf_grid(point)[0])

    def pdf_grid(self, points):
        """Density at many points, shape (P, dim) -> (P,).

        Raises ``ValueError`` naming the first row that is not finite.
        """
        pts = np.asarray(points, dtype=float)
        out = self.whitened(pts)[1]
        if not np.all(np.isfinite(out)):
            check_finite_rows(pts)
        return out

    def whitened(self, points):
        """Whitened coordinates z = W^T (x - mean) of points (P, dim), one
        column per point, shape (dim, P), and the density there,
        exp(log_norm - |z|^2 / 2), shape (P,).

        A row that is not finite gets density NaN, so the caller's check
        of its output sees it; a finite point far enough out for |z|^2 to
        overflow gets 0.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"points must have shape (P, {self.dim}), got {pts.shape}"
            )
        # A non-finite or overflowing row is handled below, not warned about.
        with np.errstate(over="ignore", invalid="ignore"):
            z = self.whitener.T @ (pts - self.mean if self.mean.any() else pts).T
            q = np.einsum("ip,ip->p", z, z)
        density = np.exp(self.log_norm - 0.5 * q)
        if not np.all(np.isfinite(q)):
            density[~np.all(np.isfinite(pts), axis=1)] = np.nan
        return z, density


@dataclass(frozen=True, eq=False)
class ForwardFunction:
    """poly(x) * base.pdf(x); compares and hashes by identity."""

    poly: MPoly
    base: GaussianDensity

    def __post_init__(self):
        if self.poly.nvars != self.base.dim:
            raise DimensionMismatchError(
                f"polynomial in {self.poly.nvars} variables over a "
                f"{self.base.dim}-dimensional Gaussian"
            )

    @property
    def dim(self):
        return self.base.dim

    def value(self, x):
        return complex(self.poly(x)) * self.base.pdf(x)


def stationary_density(Sigma):
    """Zero-mean Gaussian with the given SPD covariance."""
    Sigma = _as_square(Sigma, "Sigma")
    return GaussianDensity(mean=np.zeros(Sigma.shape[0]), cov=Sigma)


MOMENT_CACHE_SIZE = 64

_MOMENT_CACHE = OrderedDict()


def _moment_rec(counts, Sigma, memo):
    total = sum(counts)
    if total == 0:
        return 1.0
    if total % 2 == 1:
        return 0.0
    got = memo.get(counts)
    if got is not None:
        return got
    a = next(i for i, c in enumerate(counts) if c > 0)
    val = 0.0
    # Pair one slot of variable a with every remaining slot; multiplicity
    # counts how many identical slots that partner stands for.
    if counts[a] >= 2:
        rest = counts[:a] + (counts[a] - 2,) + counts[a + 1 :]
        val += (counts[a] - 1) * Sigma[a, a] * _moment_rec(rest, Sigma, memo)
    for b in range(a + 1, len(counts)):
        if counts[b] == 0:
            continue
        rest = list(counts)
        rest[a] -= 1
        rest[b] -= 1
        val += counts[b] * Sigma[a, b] * _moment_rec(tuple(rest), Sigma, memo)
    memo[counts] = val
    return val


def _memo_for(Sigma):
    """Moment memo table of a finite square float covariance.

    Sigma is checked to be symmetric positive definite the first time it
    is seen; a table already cached is only marked as recently used.
    """
    key = Sigma.tobytes()
    memo = _MOMENT_CACHE.get(key)
    if memo is not None:
        _MOMENT_CACHE.move_to_end(key)
        return memo
    _check_symmetric(Sigma, "Sigma")
    try:
        np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError:
        raise NotSPDError("Sigma is not positive definite") from None
    memo = {}
    _MOMENT_CACHE[key] = memo
    if len(_MOMENT_CACHE) > MOMENT_CACHE_SIZE:
        _MOMENT_CACHE.popitem(last=False)
    return memo


def wick_moment(exponents, Sigma):
    """E[prod_i x_i^k_i] under the centered Gaussian with covariance Sigma.

    Exact pair-counting recursion; odd total degree gives 0.  Memoized
    per covariance matrix (keyed by its bytes).
    """
    Sigma = _as_square(Sigma, "Sigma")
    counts = tuple(int(k) for k in exponents)
    if len(counts) != Sigma.shape[0]:
        raise DimensionMismatchError(
            f"{len(counts)} exponents for a {Sigma.shape[0]}-dimensional Gaussian"
        )
    if any(k < 0 for k in counts):
        raise ValueError(f"negative exponent in {counts}")
    return _moment_rec(counts, Sigma, _memo_for(Sigma))


def moment_matrix(monomials, Sigma):
    """H[a, b] = E[x^(monomials[a] + monomials[b])] under the centered
    Gaussian with covariance Sigma.

    The moments come from the memoized pair-counting tables
    ``wick_moment`` uses; H is symmetric, so each unordered pair is looked
    up once.  With H, E[conj(g) f] for polynomials with coefficient rows
    g, f over ``monomials`` is conj(g) H f^T.
    """
    Sigma = _as_square(Sigma, "Sigma")
    n = Sigma.shape[0]
    if any(len(a) != n for a in monomials):
        raise DimensionMismatchError(
            f"monomials must have {n} exponents for a {n}-dimensional Gaussian"
        )
    memo = _memo_for(Sigma)
    H = np.empty((len(monomials), len(monomials)))
    for i, a in enumerate(monomials):
        for j in range(i, len(monomials)):
            counts = tuple(map(operator.add, a, monomials[j]))
            H[i, j] = H[j, i] = _moment_rec(counts, Sigma, memo)
    return H


def expectation(p, g):
    """E[p(x)] for x distributed as the Gaussian g.  Exact in moments."""
    if not isinstance(p, MPoly):
        raise TypeError("expectation takes an MPoly")
    if p.nvars != g.dim:
        raise DimensionMismatchError(
            f"polynomial in {p.nvars} variables, Gaussian of dimension {g.dim}"
        )
    if np.any(g.mean != 0.0):
        p = p.affine(np.eye(g.dim), g.mean)
    # Sigma is checked once per call; the rows of the index are tuples of
    # nonnegative ints of the right length, so the per-moment checks of
    # wick_moment are skipped.
    Sigma = _as_square(g.cov, "Sigma")
    memo = _memo_for(Sigma)
    if p.is_zero():
        return 0j
    modes = graded_index(p.nvars, p.degree()).modes
    nz = np.flatnonzero(p.coeffs)
    return sum(
        (c * _moment_rec(modes[r], Sigma, memo) for r, c in zip(nz, p.coeffs[nz].tolist())),
        0j,
    )


def inner_product(gp, f):
    """Duality pairing of an adjoint-side polynomial with a forward function.

    Computes the integral of conj(gp) * f.poly against f.base, which is
    exactly E[conj(gp) * poly] under that Gaussian.
    """
    if not isinstance(f, ForwardFunction):
        raise TypeError("inner_product takes (MPoly, ForwardFunction)")
    return expectation(gp.conj() * f.poly, f.base)
