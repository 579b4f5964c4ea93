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

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NonFiniteResultError
from .linalg import _as_square, _real, _spd_factor
from .monomials import graded_index, index_size
from .mpoly import MPoly, _poly_for


# Rows per block of a grid read: whitening, its density and each scan of a
# grid for values that are not finite hold one block, never the grid.
GRID_CHUNK = 4096


def _first_not_finite(a):
    """Index of the first row of ``a`` holding a value that is not finite,
    or -1, read ``GRID_CHUNK`` rows at a time: a block of flags is all the
    scan allocates."""
    for lo in range(0, a.shape[0], GRID_CHUNK):
        bad = ~np.isfinite(a[lo : lo + GRID_CHUNK])
        if bad.any():
            return lo + int(np.flatnonzero(bad.reshape(bad.shape[0], -1).any(axis=1))[0])
    return -1


def _points(points, dim):
    """``points`` as a float array of shape (P, ``dim``), the one check of
    a grid, made by its two entries, ``GaussianDensity.pdf_grid`` and
    ``spectral.evaluate_grid_complex``: ``ValueError`` when it is complex
    or naming its first row that is not finite, ``DimensionMismatchError``
    for another shape.  Float points are not copied, and the scan holds
    one block of flags."""
    pts = _real(points, "points")
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DimensionMismatchError(f"points must have shape (P, {dim}), got {pts.shape}")
    bad = _first_not_finite(pts)
    if bad >= 0:
        raise ValueError(f"points must be finite; row {bad} is {pts[bad].tolist()}")
    return pts


def _point(x, dim):
    """One point ``x`` as a float array of shape (1, ``dim``), the one check
    of a point, made by the two one-point entries, ``GaussianDensity.pdf``
    and ``spectral.evaluate_complex``: ``ValueError`` when it is complex or
    not finite, ``DimensionMismatchError`` for another number of
    coordinates, each naming the point, not a row of a grid."""
    pt = _real(x, "x").reshape(1, -1)
    if pt.shape[1] != dim:
        raise DimensionMismatchError(f"point has {pt.shape[1]} coordinates, expected {dim}")
    if not np.isfinite(pt).all():
        raise ValueError(f"point must be finite, got {pt[0].tolist()}")
    return pt


@dataclass(frozen=True, eq=False)
class GaussianDensity:
    """Normalized Gaussian density with mean vector and SPD covariance.

    Compares and hashes by identity.  ``mean`` and ``cov`` are read-only
    copies of the arguments; either raises ``ValueError`` when it is
    complex or not finite.  ``factor`` is the Cholesky factor L of
    cov = L L^T, the one factoring of cov, and ``whitener`` W = L^-T, so
    the whitened coordinates z = W^T (x - mean) make the density
    exp(log_norm - |z|^2 / 2).
    """

    mean: np.ndarray
    cov: np.ndarray
    log_norm: float = field(init=False)
    factor: np.ndarray = field(init=False, repr=False)
    whitener: np.ndarray = field(init=False, repr=False)
    _moments: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = _real(self.mean, "mean").flatten()
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean must have finite entries")
        cov = _as_square(self.cov, "cov")
        if mean.shape[0] != cov.shape[0]:
            raise DimensionMismatchError(
                f"mean has dimension {mean.shape[0]}, cov {cov.shape[0]}"
            )
        L = _spd_factor(cov, "cov")
        sign, logdet = np.linalg.slogdet(cov)
        for a in (mean, cov, L):
            a.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(
            self, "log_norm", -0.5 * (mean.shape[0] * np.log(2.0 * np.pi) + logdet)
        )
        object.__setattr__(self, "factor", L)
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
        size = index_size(self.dim, degree)
        if self._moments.size < size:
            # A moment that overflows is kept as inf or NaN, which
            # ``expectation`` refuses where a coefficient reads it.
            with np.errstate(over="ignore", invalid="ignore"):
                m = moments(self.mean, self.cov, degree)
            m.setflags(write=False)
            object.__setattr__(self, "_moments", m)
        return self._moments[:size]

    def pdf(self, x):
        """Density at one point, checked by ``_point``."""
        return float(self.pdf_grid(_point(x, self.dim))[0])

    def pdf_grid(self, points):
        """Density at many points, shape (P, dim) -> (P,), exp(log_norm -
        |z|^2 / 2) at the whitened coordinates z of each point; a point far
        enough out for |z|^2 to overflow gets 0.  The points are checked by
        ``_points``.  Beyond its output it holds one block: each block of
        at most ``GRID_CHUNK`` points is whitened into the same buffers
        (``_whitened_blocks``)."""
        pts = _points(points, self.dim)
        out = np.empty(pts.shape[0])
        for rows, _, density in self._whitened_blocks(pts):
            out[rows] = density
        return out

    def _whitened_blocks(self, pts):
        """The one whitening loop, over the finite float rows ``pts`` (P,
        dim), with no check, one block of at most ``GRID_CHUNK`` rows at a
        time: yields (the block's rows as a slice, its whitened
        coordinates z = W^T (x - mean), one column per point, shape (dim,
        m), its density exp(log_norm - |z|^2 / 2), shape (m,)).

        Every z and density is a view of the same two buffers, sized to
        one block, which the next block overwrites; a short last block
        fills a contiguous prefix of each, so every product has the shapes
        and memory layout it has on a full block.  Only a non-zero mean
        allocates more, a block of x - mean."""
        n, P = self.dim, pts.shape[0]
        size = min(P, GRID_CHUNK)
        z_buf, f_buf = np.empty(n * size), np.empty(size)
        for lo in range(0, P, GRID_CHUNK):
            m = min(GRID_CHUNK, P - lo)
            x, z, density = pts[lo : lo + m], z_buf[: n * m].reshape(n, m), f_buf[:m]
            # An overflowing |z|^2 gives density 0, not a warning.
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(self.whitener.T, (x - self.mean if self.mean.any() else x).T, out=z)
                np.einsum("ip,ip->p", z, z, out=density)
            np.multiply(density, 0.5, out=density)
            np.subtract(self.log_norm, density, out=density)
            np.exp(density, out=density)
            yield slice(lo, lo + m), z, density


@dataclass(frozen=True, eq=False)
class ForwardFunction:
    """poly(x) * base.pdf(x); compares and hashes by identity."""

    poly: MPoly
    base: GaussianDensity

    def __post_init__(self):
        _density_for(self.base)
        _poly_for(self.poly, self.base.dim)

    @property
    def dim(self):
        return self.base.dim


def _density_for(F0, dim=None):
    """The one check of a density argument: ``TypeError`` unless ``F0`` is
    a ``GaussianDensity``, ``DimensionMismatchError`` unless its dimension
    is a model's ``dim``, when one is given."""
    if not isinstance(F0, GaussianDensity):
        raise TypeError("expected a GaussianDensity")
    if dim is not None and F0.dim != dim:
        raise DimensionMismatchError(
            f"density of dimension {F0.dim} for a {dim}-dimensional model"
        )


def stationary_density(Sigma):
    """Zero-mean Gaussian with the given SPD covariance."""
    Sigma = _as_square(Sigma, "Sigma")
    return GaussianDensity(mean=np.zeros(Sigma.shape[0]), cov=Sigma)


def moments(mean, cov, degree):
    """E[x^a] under N(mean, cov) for every row a of
    ``graded_index(len(mean), degree)``, as a new vector.

    Stein's identity, E[x^(P+e_I)] = mean_I E[x^P]
    + sum_J cov_IJ P_J E[x^(P-e_J)], fills the ``runs`` of the index row
    by row, J ascending.  Only the recursion is used, so ``cov`` may be
    complex or indefinite: the entries are then the Taylor coefficients
    of exp(mean . s + s^T cov s / 2) times a!.
    """
    idx = graded_index(len(mean), degree)
    down = idx.down.T.tolist()
    m = np.empty(len(idx.modes), dtype=np.result_type(mean, cov, float))
    m[0] = 1.0
    for _, I, rows, parents in idx.runs:
        for k, p in zip(range(rows.start, rows.stop), range(parents.start, parents.stop)):
            m[k] = mean[I] * m[p]
            for J, c in enumerate(idx.modes[p]):
                if c:
                    m[k] += (cov[I, J] * c) * m[down[p][J]]
    return m


def wick_moment(exponents, Sigma):
    """E[prod_i x_i^k_i] under the centered Gaussian with covariance Sigma:
    the ``expectation`` of the monomial x^k, whose exponents ``MPoly``
    reads and checks.  Odd total degree gives 0."""
    g = stationary_density(Sigma)
    return float(expectation(MPoly(g.dim, {tuple(exponents): 1.0}), g).real)


def expectation(p, g):
    """E[p(x)] for x distributed as the Gaussian g: the coefficient vector
    of p against the moments of g.  Exact in moments; nothing is pruned.
    A moment under a zero coefficient takes no part; one under a nonzero
    coefficient that is not finite raises ``NonFiniteResultError``."""
    _density_for(g)
    _poly_for(p, g.dim)
    c, m = p.coeffs, g.moments(p.degree())
    if not np.isfinite(m).all():
        used = c != 0
        bad = np.flatnonzero(used & ~np.isfinite(m))
        if bad.size:
            K = graded_index(g.dim, p.degree()).modes[bad[0]]
            raise NonFiniteResultError(f"the Gaussian moment E[x^a] at a = {K} is not finite")
        c, m = c[used], m[used]
    # An infinite coefficient against a zero moment gives NaN, which the
    # result keeps, as MPoly does.
    with np.errstate(invalid="ignore"):
        return complex(c @ m)


def inner_product(gp, f):
    """Duality pairing of an adjoint-side polynomial with a forward function.

    Computes the integral of conj(gp) * f.poly against f.base, which is
    exactly E[conj(gp) * poly] under that Gaussian.
    """
    if not isinstance(f, ForwardFunction):
        raise TypeError("inner_product takes (MPoly, ForwardFunction)")
    _poly_for(gp, f.dim)
    return expectation(gp.conj() * f.poly, f.base)
