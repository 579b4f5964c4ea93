"""Spectral expansion, time propagation, and inhomogeneous solves.

A Gaussian initial density is projected onto the adjoint eigenbasis;
propagation multiplies each coefficient by exp(lambda_K t).  Stored
coefficients are the raw duality pairings; evaluation divides by the
bi-orthogonal normalization of each mode (``GradedIndex.normalizations``)
so the expansion reproduces the density itself.  The exact Gaussian
propagator doubles as an independent oracle for convergence tests.

Expansion and evaluation never build a polynomial.  The raising
operators of each family commute, so the eigenfunctions have Gaussian
generating functions:

* coefficients: with ``W`` the left eigenvectors, ``a = 2 W mu`` and
  ``M = 4 W (C - Sigma) W^T`` for ``F0 = N(mu, C)``,
  ``c_{K+e_I} = a_I c_K + sum_J M_IJ K_J c_{K-e_J}``, ``c_0 = 1``: Stein's
  identity, so c_K are the moments E[y^K] of y ~ N(a, M), formally since
  M is complex and need not be definite, and ``gaussian.moments``
  computes them;
* forward polynomial factors: in the whitened coordinates z = L^-1 x of
  f0 (Sigma = L L^T), where f0 = exp(log_norm - |z|^2 / 2), the
  canonical coordinates of ``hermite_form`` are y = z / sqrt(2)
  (T = sqrt(2) L), and p_K is the Hermite closed form of the
  eigenvectors there, the model's one table (``hermite_form``).

Grid evaluation reads that table (``ladder._eigenfunctions``) as rows of
coefficients over the monomials y^a, so the expansion is one real vector
pair against them, built one product per run of the index on each block.
Neither route prunes anything.  The exact ``MPoly`` ladder, whose gather
tables the ``verify`` suites check, is the reference both are tested
against.

The inhomogeneous solve builds no eigenfunction either.  With P = p f0,
f0^-1 L(p f0) = (M x) . grad p + (1/2) B : grad grad p, M = Sigma A^T
Sigma^-1, is block-triangular by degree on the graded monomials, so
``solve_inhomogeneous`` solves one small real system per degree of the
source, top degree first, on blocks of the generator's matrix that
``ladder._matrix`` scatters from the model's one forward generator
table, the table that ``apply_forward`` gathers through.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NonFiniteResultError, NotSolvableError
from .gaussian import GRID_CHUNK, ForwardFunction, GaussianDensity, _density_for, _first_not_finite
from .gaussian import _point, _points, expectation, moments
from .hermite_form import _hermite_table
from .ladder import _check_forward, _check_multi_index, _eigenfunctions, _eigenvalues
from .ladder import _generator_table, _matrix
from .monomials import _max_order, graded_index
from .mpoly import MPoly
from .verify import reconstruct_operators_check  # noqa: F401, the name perfbench/layers.py binds

# Default bound on a solve source's stationary component, relative.
DEFAULT_SOLVABILITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SpectralExpansion:
    """Raw projection coefficients of a density onto the adjoint basis.

    ``coeffs`` is a read-only complex vector over ``graded_index(model.dim,
    max_order)``: row K pairs the mode-K adjoint eigenfunction with the
    density, 1 at K = 0 for a normalized one.  Compared by identity.
    """

    model: object
    max_order: int
    coeffs: np.ndarray = field(repr=False)

    def coefficient(self, K):
        """Coefficient of mode K, checked as ``ladder`` checks a mode;
        ``ValueError`` when its order exceeds ``max_order``."""
        K = _check_multi_index(self.model, K)
        if sum(K) > self.max_order:
            raise ValueError(f"mode {K} has order {sum(K)} above max_order {self.max_order}")
        return complex(self.coeffs[graded_index(self.model.dim, self.max_order).row[K]])


def expand_gaussian(model, F0, max_order):
    """Project a Gaussian density onto the adjoint eigenbasis.

    Coefficient K is the pairing ``<g_K, F0>``, K! times a Taylor
    coefficient of exp(a.s + s^T M s / 2); the recursion in the module
    docstring generates them all with no quadrature and no pruning.
    Coefficients of conjugate mode pairs are complex conjugates when
    ``F0`` is real, which all Gaussians here are.  Raises
    ``NonFiniteResultError`` when a coefficient overflows.
    """
    _density_for(F0, model.dim)
    max_order = _max_order(max_order)
    W = model.eig.left
    a = 2.0 * (W @ F0.mean)
    M = 4.0 * (W @ (F0.cov - model.Sigma) @ W.T)
    modes = graded_index(model.dim, max_order).modes
    # An overflow is reported by the check below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        c = moments(a, M, max_order)
    bad = np.flatnonzero(~np.isfinite(c))
    if bad.size:
        raise NonFiniteResultError(
            f"expansion coefficient of mode {modes[bad[0]]} is {c[bad[0]]}; "
            f"the expansion overflows at order {sum(modes[bad[0]])}"
        )
    c = np.asarray(c, dtype=np.complex128)
    c.setflags(write=False)
    return SpectralExpansion(model=model, max_order=max_order, coeffs=c)


def _check_time(t):
    """The one reader of a time: ``ValueError`` when t is complex,
    ``TypeError`` unless it is a Python or numpy real scalar other than a
    bool, and ``ValueError`` unless it is finite and nonnegative."""
    if np.iscomplexobj(t):
        raise ValueError("t must be real")
    if isinstance(t, bool) or not isinstance(t, (int, float, np.integer, np.floating)):
        raise TypeError(f"t must be a real scalar, got {type(t).__name__}")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    if t < 0.0:
        raise ValueError("t must be nonnegative")


def evaluate_complex(expansion, x, t):
    """Expansion value at one point and time, imaginary residue intact; the
    point is checked by ``gaussian._point``."""
    point = _point(x, expansion.model.dim)
    return complex(evaluate_grid_complex(expansion, point, t)[0])


def evaluate(expansion, x, t):
    """Real part of the expansion value; the physical density estimate."""
    return evaluate_complex(expansion, x, t).real


def evaluate_grid(expansion, points, t):
    """Real expansion values on a grid of points, shape (P, N) -> (P,)."""
    return evaluate_grid_complex(expansion, points, t).real


def evaluate_grid_complex(expansion, points, t):
    """Complex expansion values on a grid of points, shape (P, N) -> (P,).

    Sums f0(x) c_K / mode_normalization(K) exp(lambda_K t) p_K(x) in
    y = z / sqrt(2), z the whitened coordinates of f0, where f0 =
    exp(log_norm - |z|^2 / 2) and each p_K is a row of coefficients over
    y^a, the model's one forward closed form read at ``max_order``.  So the
    sum is one real vector pair b = w(t) T, split into real and imaginary
    parts, against the real monomials y^a, which ``_fill_grid`` builds
    in blocks of at most ``GRID_CHUNK`` points, in buffers allocated once
    per call; w(t) divides by the index's ``normalizations``.  Beyond its
    output it holds one block: the buffers, and the flags of each scan of
    the points and of the values for ones that are not finite.
    Raises ``ValueError`` for complex points, or naming the first point
    that is not finite, before any table is read, and
    ``NonFiniteResultError`` naming the first value that overflows.
    """
    _check_time(t)
    model = expansion.model
    pts = _points(points, model.dim)
    idx = graded_index(model.dim, expansion.max_order)
    lam = _eigenvalues(model, "forward", idx.exponents)
    T = _eigenfunctions(model, "forward", expansion.max_order, _hermite_table)
    out = np.empty(pts.shape[0], dtype=np.complex128)
    # An overflow is reported by the check below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        b = (expansion.coeffs / idx.normalizations * np.exp(lam * t)) @ T
        _fill_grid(model.f0, idx.runs, np.stack([b.real, b.imag]), pts, out)
    bad = _first_not_finite(out)
    if bad >= 0:
        raise NonFiniteResultError(
            f"expansion value at x={pts[bad].tolist()}, t={t} is {out[bad]}; "
            "a mode value or weight overflowed"
        )
    return out


def _fill_grid(f0, runs, B2, pts, out):
    """Write f0(x) (B2[0] + i B2[1]) . y^a into ``out`` for each row x of
    ``pts``, with y^a the monomials of y = z / sqrt(2), z whitened by f0
    one block at a time (``GaussianDensity._whitened_blocks``) and scaled
    in place after the density, each run y_I times its parents.

    Each block fills the same monomial buffer, sized to one block; a
    short last block fills a contiguous prefix of it, as it does of the
    whitening buffers.  The buffers die on return, so they are not held
    through the caller's pass over the whole of ``out``.
    """
    R = B2.shape[1]
    X_buf = np.empty(R * min(pts.shape[0], GRID_CHUNK))
    for block, z, f in f0._whitened_blocks(pts):
        z /= np.sqrt(2.0)
        X = X_buf[: R * f.size].reshape(R, f.size)
        X[0] = 1.0
        for _, I, rows, parents in runs:
            np.multiply(z[I], X[parents], out=X[rows])
        re, im = B2 @ X
        np.multiply(re, f, out=out.real[block])
        np.multiply(im, f, out=out.imag[block])


def exact_gaussian_propagate(model, F0, t):
    """Closed-form Gaussian evolution under the OU dynamics.

    The mean contracts by exp(t A); the covariance relaxes toward the
    stationary covariance along the same flow.  Serves as the oracle
    that spectral propagation must converge to as max_order grows.
    Raises ``NonFiniteResultError`` naming t when exp(t A), the mean or
    the covariance is not finite.
    """
    _density_for(F0, model.dim)
    _check_time(t)
    E = linalg.expm(model.A, t)
    # A flow that is not finite is reported below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = E @ F0.mean
        cov = model.Sigma + E @ (F0.cov - model.Sigma) @ E.T
    if not all(np.isfinite(v).all() for v in (E, mean, cov)):
        raise NonFiniteResultError(f"exp(tA) or the exact density at t={t} is not finite")
    return GaussianDensity(mean=mean, cov=0.5 * (cov + cov.T))


def solve_inhomogeneous(model, q, max_order, solvability_tol=DEFAULT_SOLVABILITY_TOL):
    """Solve L P = q for a source q = (polynomial of degree d) * f0.

    With P = p f0, f0^-1 L(p f0) = (M x) . grad p + (1/2) B : grad grad p,
    M = ``ladder.forward_drift(model)`` = Sigma A^T Sigma^-1: the backward
    generator of the time-reversed process, which ``apply_forward``
    applies.  The first term keeps the degree of a homogeneous
    polynomial and the second lowers it by 2, so for k = d down to 1 the
    degree-k part of p solves D_k p_k = q_k - (1/2) B : grad grad p_{k+2},
    where D_k and the Hessian block are the blocks of the generator's
    matrix (``ladder._matrix``) from the coefficients of degree k and
    k + 2 to the image rows of degree k; the dense matrix over every
    degree is never built.
    D_k has the eigenvalues lambda_K with |K| = k, so it is nonsingular;
    the real and imaginary parts of q solve as two real right-hand sides.
    The solution is exact, of degree d, and real for a real source.

    The stationary mode lies in the kernel of L, so a source with a
    nonzero stationary component E_f0[q / f0] admits no solution; that
    component is measured against the source scale with
    ``solvability_tol`` and raises ``NotSolvableError``.  The constant of
    p, which L does not see, is fixed by E_f0[p] = 0: P has no
    stationary component either.

    Raises ``DimensionMismatchError`` when ``q`` is not a polynomial times
    the model's stationary density, ``ValueError`` when its degree exceeds
    ``max_order`` or ``solvability_tol`` is not finite and nonnegative, and
    ``NonFiniteResultError`` when a coefficient of q is not finite, a
    moment of f0 that it reads overflows, or a coefficient of P overflows.
    """
    if not 0.0 <= solvability_tol < np.inf:
        raise ValueError(f"solvability_tol must be finite and nonnegative, got {solvability_tol}")
    _check_forward(model, q)
    max_order = _max_order(max_order)
    d = q.poly.degree()
    if d > max_order:
        raise ValueError(f"source of degree {d} exceeds max_order {max_order}")
    # Checked first: a coefficient that is not finite can make the
    # stationary component NaN, which the solvability test below passes.
    # A moment of f0 that is not finite raises in ``expectation``.
    if not np.all(np.isfinite(q.poly.coeffs)):
        raise NonFiniteResultError("the source has a coefficient that is not finite")
    scale = max(1.0, q.poly.max_coeff())
    c0 = expectation(q.poly, q.base)
    if abs(c0) > solvability_tol * scale:
        raise NotSolvableError(
            f"source has stationary component {abs(c0):.3e} "
            f"(tolerance {solvability_tol * scale:.3e}); no solution exists"
        )
    idx = graded_index(model.dim, max(d, 0))
    # q, overwritten by p degree by degree; z views each row as complex.
    x = np.zeros((len(idx.modes), 2))
    z = x.view(np.complex128)[:, 0]
    z[: q.poly.coeffs.size] = q.poly.coeffs
    generator = (model, _generator_table, ("forward",), d)
    for k in range(d, 0, -1):
        s = idx.degree(k)
        b = x[s]
        if k + 2 <= d:
            s2 = idx.degree(k + 2)
            b = b - _matrix(*generator, rows=s, cols=s2) @ x[s2]
        x[s] = np.linalg.solve(_matrix(*generator, rows=s, cols=s), b)
        if not np.all(np.isfinite(x[s])):
            raise NonFiniteResultError(
                f"the degree-{k} part of the solution is not finite; "
                "the source is too large or not finite"
            )
    z[0] = 0.0  # still q's constant; p's is fixed by E_f0[p] = 0 below
    p = MPoly.from_coeffs(model.dim, z, model.prune_eps)
    return ForwardFunction(p - expectation(p, model.f0), model.f0)
