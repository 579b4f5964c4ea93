"""Gaussian densities and their exact moments.

Every moment comes from one recursion, Stein's identity for
x ~ N(mean, cov) on the graded index (``moments``): E[x^a] for every
monomial up to a degree, with no pair counting and no pruning.  An
expectation is a polynomial's coefficient vector against that vector, so
the mean enters through the recursion and no polynomial is shifted.  A
density keeps its own moment vector and recomputes it only when a higher
degree is asked for; nothing is cached at module level.  The expansion
coefficients c_K of ``spectral.expand_gaussian`` are the moments of
N(a, M) by the same routine.
"""

import math
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

    Compares and hashes by identity.  ``mean`` and ``cov`` are read-only
    copies of the arguments, and a non-finite mean raises ``ValueError``,
    as a non-finite cov does.  ``whitener`` is W = L^-T for the
    Cholesky factor cov = L L^T, so the whitened coordinates
    z = W^T (x - mean) make the density exp(log_norm - |z|^2 / 2).
    """

    mean: np.ndarray
    cov: np.ndarray
    log_norm: float = field(init=False)
    whitener: np.ndarray = field(init=False, repr=False)
    _moments: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean must have finite entries")
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
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(
            self, "log_norm", -0.5 * (mean.shape[0] * np.log(2.0 * np.pi) + logdet)
        )
        object.__setattr__(self, "whitener", np.ascontiguousarray(np.linalg.inv(L).T))
        object.__setattr__(self, "_moments", np.empty(0))

    @property
    def dim(self):
        return self.mean.shape[0]

    def moments(self, degree):
        """Read-only E[x^a] for every row a of ``graded_index(dim, degree)``.

        A lower degree reads a prefix of the vector kept on the density,
        which is recomputed only when a higher degree is asked for.
        """
        size = math.comb(degree + self.dim, self.dim)
        if self._moments.size < size:
            m = moments(self.mean, self.cov, degree)
            m.setflags(write=False)
            object.__setattr__(self, "_moments", m)
        return self._moments[:size]

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
        z = np.empty((self.dim, pts.shape[0]))
        density = np.empty(pts.shape[0])
        self._whiten_into(pts, z, density)
        return z, density

    def _whiten_into(self, pts, z, density):
        """``whitened`` of the float rows ``pts`` (P, dim), written into the
        caller's C-contiguous buffers ``z`` (dim, P) and ``density`` (P,).

        Only a non-zero mean allocates, for x - mean.  The NaN rule tests
        |z|^2, held in ``density`` before the exponential overwrites it,
        because the exponential turns an infinite |z|^2 into a density of 0.
        """
        # A non-finite or overflowing row is handled below, not warned about.
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(self.whitener.T, (pts - self.mean if self.mean.any() else pts).T, out=z)
            np.einsum("ip,ip->p", z, z, out=density)
        finite = np.isfinite(density).all()
        np.multiply(density, 0.5, out=density)
        np.subtract(self.log_norm, density, out=density)
        np.exp(density, out=density)
        if not finite:
            density[~np.all(np.isfinite(pts), axis=1)] = np.nan


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


def moments(mean, cov, degree):
    """E[x^a] under N(mean, cov) for every row a of
    ``graded_index(len(mean), degree)``, as a new vector.

    Stein's identity, E[x^(P+e_I)] = mean_I E[x^P]
    + sum_J cov_IJ P_J E[x^(P-e_J)], fills the rows along the ``steps``
    of the index.  Only the recursion is used, so ``cov`` may be complex
    or indefinite: the entries are then the Taylor coefficients of
    exp(mean . s + s^T cov s / 2) times a!.
    """
    idx = graded_index(len(mean), degree)
    m = np.empty(len(idx.modes), dtype=np.result_type(mean, cov, float))
    m[0] = 1.0
    for k, (p, I, lower) in enumerate(idx.steps, 1):
        m[k] = mean[I] * m[p]
        for J, c, q in lower:
            m[k] += (cov[I, J] * c) * m[q]
    return m


def wick_moment(exponents, Sigma):
    """E[prod_i x_i^k_i] under the centered Gaussian with covariance Sigma:
    one entry of ``moments``.  Odd total degree gives 0."""
    g = stationary_density(Sigma)
    counts = tuple(int(k) for k in exponents)
    if len(counts) != g.dim:
        raise DimensionMismatchError(
            f"{len(counts)} exponents for a {g.dim}-dimensional Gaussian"
        )
    if any(k < 0 for k in counts):
        raise ValueError(f"negative exponent in {counts}")
    d = sum(counts)
    return float(g.moments(d)[graded_index(g.dim, d).row[counts]])


def moment_matrix(g, degree):
    """H[a, b] = E[x^(a + b)] under the Gaussian g for every pair of rows
    a, b of ``graded_index(g.dim, degree)``.

    One gather of ``g.moments(2 * degree)`` through the sum table of the
    index.  With H, E[conj(q) p] for polynomials with coefficient rows
    q, p over those rows is conj(q) H p^T.
    """
    rows = math.comb(degree + g.dim, g.dim)
    return g.moments(2 * degree)[graded_index(g.dim, 2 * degree).sum_table(rows, rows)]


def expectation(p, g):
    """E[p(x)] for x distributed as the Gaussian g: the coefficient vector
    of p against the moments of g.  Exact in moments; nothing is pruned."""
    if not isinstance(p, MPoly):
        raise TypeError("expectation takes an MPoly")
    if p.nvars != g.dim:
        raise DimensionMismatchError(
            f"polynomial in {p.nvars} variables, Gaussian of dimension {g.dim}"
        )
    # An infinite coefficient against a zero moment gives NaN, which the
    # result keeps, as MPoly does.
    with np.errstate(invalid="ignore"):
        return complex(p.coeffs @ g.moments(p.degree()))


def inner_product(gp, f):
    """Duality pairing of an adjoint-side polynomial with a forward function.

    Computes the integral of conj(gp) * f.poly against f.base, which is
    exactly E[conj(gp) * poly] under that Gaussian.
    """
    if not isinstance(f, ForwardFunction):
        raise TypeError("inner_product takes (MPoly, ForwardFunction)")
    return expectation(gp.conj() * f.poly, f.base)
