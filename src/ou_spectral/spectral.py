"""Spectral expansion, time propagation, and inhomogeneous solves.

A Gaussian initial density is projected onto the adjoint eigenbasis;
propagation multiplies each coefficient by exp(lambda_K t).  Stored
coefficients are the raw duality pairings; evaluation divides by the
bi-orthogonal normalization of each mode so the expansion reproduces
the density itself.  The exact Gaussian propagator doubles as an
independent oracle for convergence tests.

Expansion and evaluation never build a polynomial.  The raising
operators of each family commute, so the eigenfunctions have Gaussian
generating functions and obey three-term recursions along the parents
of the modes (``monomials.graded_index``):

* coefficients: with ``W`` the left eigenvectors, ``a = 2 W mu`` and
  ``M = 4 W (C - Sigma) W^T`` for ``F0 = N(mu, C)``,
  ``c_{K+e_I} = a_I c_K + sum_J M_IJ K_J c_{K-e_J}``, ``c_0 = 1``: Stein's
  identity, so c_K are the moments E[y^K] of y ~ N(a, M), formally since
  M is complex and need not be definite, and ``gaussian.moments``
  computes them;
* forward polynomial factors: with ``E`` the right eigenvectors,
  ``y = x Sigma^-1 E`` and ``G = E^T Sigma^-1 E``,
  ``p_{K+e_I} = y_I p_K - sum_J G_IJ K_J p_{K-e_J}``, ``p_0 = 1``.

Grid evaluation runs the second recursion once per model and order, on
coefficient rows in the whitened coordinates z = W^T x of f0 (W = L^-T,
Sigma = L L^T), where f0 = exp(log_norm - |z|^2 / 2) and y = z C is
linear in z.  The expansion is then one real vector pair against the
real monomials z^a, built one product per monomial on each block of
points.  Neither route prunes anything.  The exact ``MPoly`` ladder,
whose gather tables the ``verify`` suites check, is the reference these
recursions are tested against.

The inhomogeneous solve builds no eigenfunction either.  With P = p f0,
f0^-1 L(p f0) = (M x) . grad p + (1/2) B : grad grad p, M = Sigma A^T
Sigma^-1, is block-triangular by degree on the graded monomials, so
``solve_inhomogeneous`` solves one small real system per degree of the
source, top degree first, on blocks read from the generator table that
``apply_forward`` gathers through.
"""

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    NonFiniteResultError,
    NotSolvableError,
)
from .gaussian import (
    ForwardFunction,
    GaussianDensity,
    check_finite_rows,
    expectation,
    moments,
)
from .ladder import (
    _block,
    _cached,
    _generator_table,
    _ladder_table,
    _matrix,
    forward_drift,
    generator_table,
)
from .monomials import enumerate_modes, graded_index
from .mpoly import MPoly, _diff, fold_worst

# Points per block of grid evaluation; the work array holds every mode
# over one block, never over the whole grid.
GRID_CHUNK = 4096


@dataclass(frozen=True)
class SpectralExpansion:
    """Raw projection coefficients of a density onto the adjoint basis.

    ``coeffs[K]`` is the duality pairing of the mode-K adjoint
    eigenfunction with the expanded density; the stationary mode is
    always present with coefficient 1 for a normalized density.
    """

    model: object
    max_order: int
    coeffs: dict = field(repr=False)

    def coefficient(self, K):
        return self.coeffs[tuple(K)]


def expand_gaussian(model, F0, max_order):
    """Project a Gaussian density onto the adjoint eigenbasis.

    Coefficient K is the pairing ``<g_K, F0>``, K! times a Taylor
    coefficient of exp(a.s + s^T M s / 2); the recursion in the module
    docstring generates them all with no quadrature and no pruning.
    Coefficients of conjugate mode pairs are complex conjugates when
    ``F0`` is real, which all Gaussians here are.  Raises
    ``NonFiniteResultError`` when a coefficient overflows.
    """
    if not isinstance(F0, GaussianDensity):
        raise TypeError("expand_gaussian takes a GaussianDensity")
    if F0.dim != model.dim:
        raise DimensionMismatchError(
            f"density of dimension {F0.dim} for a {model.dim}-dimensional model"
        )
    max_order = int(max_order)
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
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
    coeffs = {K: complex(v) for K, v in zip(modes, c)}
    return SpectralExpansion(model=model, max_order=max_order, coeffs=coeffs)


def _check_time(t):
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    if t < 0.0:
        raise ValueError("t must be nonnegative")


def evaluate_complex(expansion, x, t):
    """Expansion value at one point and time, imaginary residue intact."""
    point = np.asarray(x, dtype=float).reshape(1, -1)
    return complex(evaluate_grid_complex(expansion, point, t)[0])


def evaluate(expansion, x, t):
    """Real part of the expansion value; the physical density estimate."""
    return evaluate_complex(expansion, x, t).real


def evaluate_grid(expansion, points, t):
    """Real expansion values on a grid of points, shape (P, N) -> (P,)."""
    return evaluate_grid_complex(expansion, points, t).real


def _grid_tables(model, max_order):
    """(T, lam, norm): the time-independent tables of grid evaluation.

    Row K of T holds the coefficients of p_K over the monomials z^a of
    the whitened coordinates z = W^T x (W = ``model.f0.whitener``), both
    in ``graded_index`` rows.  They come from the forward recursion run
    once on coefficient rows: y = z C with C = W^T E and G = C^T C, and
    the factor y_I = sum_i C_iI z_i shifts each exponent a to a + e_i.
    ``lam`` and ``norm`` hold lambda_K and ``mode_normalization(K)``.
    """
    n = model.dim
    idx = graded_index(n, max_order)
    # Only monomials below the top degree meet a factor y_I.
    low = idx.degree(max_order).start
    up = idx.up[:, :low]
    C = model.f0.whitener.T @ model.eig.right
    G = C.T @ C
    T = np.zeros((len(idx.modes), len(idx.modes)), dtype=np.complex128)
    T[0, 0] = 1.0
    for k, (p, I, lower) in enumerate(idx.steps, 1):
        for i in range(n):
            T[k, up[i]] += C[i, I] * T[p, :low]
        for J, m, q in lower:
            T[k] -= (G[I, J] * m) * T[q]
    K = idx.exponents
    factorial = np.array([math.factorial(k) for k in range(max_order + 1)], dtype=float)
    norm = np.prod(2.0**K * factorial[K], axis=1)
    return T, K @ model.eig.values, norm


def evaluate_grid_complex(expansion, points, t):
    """Complex expansion values on a grid of points, shape (P, N) -> (P,).

    Sums f0(x) c_K / mode_normalization(K) exp(lambda_K t) p_K(x) in the
    whitened coordinates z of f0, where f0 = exp(log_norm - |z|^2 / 2)
    and each p_K is a row of monomial coefficients (``_grid_tables``,
    built once per model and order).  So the sum is one real vector pair
    b = w(t) T, split into real and imaginary parts, against the real
    monomials z^a, which are built one block of at most ``GRID_CHUNK``
    points at a time.  Raises ``ValueError`` naming the first point that
    is not finite, and ``NonFiniteResultError`` when a value overflows.
    """
    _check_time(t)
    model = expansion.model
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != model.dim:
        raise DimensionMismatchError(
            f"points must have shape (P, {model.dim}), got {pts.shape}"
        )
    idx = graded_index(model.dim, expansion.max_order)
    T, lam, norm = _cached(model, _grid_tables, expansion.max_order)
    coeffs = np.array([expansion.coeffs[K] for K in idx.modes])
    out = np.empty(pts.shape[0], dtype=np.complex128)
    # An overflow is reported by the check below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        b = (coeffs / norm * np.exp(lam * t)) @ T
        B2 = np.stack([b.real, b.imag])
        for lo in range(0, pts.shape[0], GRID_CHUNK):
            z, f0 = model.f0.whitened(pts[lo : lo + GRID_CHUNK])
            X = np.empty((len(idx.modes), len(f0)))
            X[0] = 1.0
            for k, (p, I, _) in enumerate(idx.steps, 1):
                np.multiply(z[I], X[p], out=X[k])
            re, im = B2 @ X
            np.multiply(re, f0, out=out.real[lo : lo + len(f0)])
            np.multiply(im, f0, out=out.imag[lo : lo + len(f0)])
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        check_finite_rows(pts)
        raise NonFiniteResultError(
            f"expansion value at x={pts[bad[0]].tolist()}, t={t} is {out[bad[0]]}; "
            "a mode value or weight overflowed"
        )
    return out


def exact_gaussian_propagate(model, F0, t):
    """Closed-form Gaussian evolution under the OU dynamics.

    The mean contracts by exp(t A); the covariance relaxes toward the
    stationary covariance along the same flow.  Serves as the oracle
    that spectral propagation must converge to as max_order grows.
    """
    if not isinstance(F0, GaussianDensity):
        raise TypeError("exact_gaussian_propagate takes a GaussianDensity")
    if F0.dim != model.dim:
        raise DimensionMismatchError(
            f"density of dimension {F0.dim} for a {model.dim}-dimensional model"
        )
    _check_time(t)
    E = linalg.expm(model.A, t)
    mean = E @ F0.mean
    cov = model.Sigma + E @ (F0.cov - model.Sigma) @ E.T
    return GaussianDensity(mean=mean, cov=0.5 * (cov + cov.T))


def solve_inhomogeneous(model, q, max_order, solvability_tol=1e-10):
    """Solve L P = q for a source q = (polynomial of degree d) * f0.

    With P = p f0, f0^-1 L(p f0) = (M x) . grad p + (1/2) B : grad grad p,
    M = ``forward_drift(model)`` = Sigma A^T Sigma^-1: the backward
    generator of the time-reversed process, which ``apply_forward``
    applies.  The first term keeps the degree of a homogeneous
    polynomial and the second lowers it by 2, so for k = d down to 1 the
    degree-k part of p solves D_k p_k = q_k - (1/2) B : grad grad p_{k+2},
    where D_k and the Hessian block are the matrices of the gathers of
    ``ladder.generator_table`` on the rows of degree k; the dense matrix
    over every degree is never built.
    D_k has the eigenvalues lambda_K with |K| = k, so it is nonsingular;
    the real and imaginary parts of q solve as two real right-hand sides.
    The solution is exact, of degree d, and real for a real source.

    The stationary mode lies in the kernel of L, so a source with a
    nonzero stationary component E_f0[q / f0] admits no solution; that
    component is measured against the source scale with
    ``solvability_tol`` and raises ``NotSolvableError``.  The constant of
    p, which L does not see, is fixed by E_f0[p] = 0: P has no
    stationary component either.

    Raises ``ValueError`` when ``q`` is not a polynomial times the
    model's stationary density, or when its degree exceeds ``max_order``,
    and ``NonFiniteResultError`` when a coefficient of q is not finite or
    one of P overflows.
    """
    if not isinstance(q, ForwardFunction):
        raise TypeError("solve_inhomogeneous takes a ForwardFunction")
    if q.dim != model.dim:
        raise DimensionMismatchError(
            f"source of dimension {q.dim} for a {model.dim}-dimensional model"
        )
    if q.base is not model.f0 and not (
        np.array_equal(q.base.mean, model.f0.mean)
        and np.array_equal(q.base.cov, model.f0.cov)
    ):
        raise ValueError("source is not based on the model's stationary density")
    max_order = int(max_order)
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    d = q.poly.degree()
    if d > max_order:
        raise ValueError(f"source of degree {d} exceeds max_order {max_order}")
    # Checked first: the solvability test below is False for a NaN or
    # infinite stationary component.
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
    M = forward_drift(model)
    # q, overwritten by p degree by degree; z views each row as complex.
    x = np.zeros((len(idx.modes), 2))
    z = x.view(np.complex128)[:, 0]
    z[: q.poly.coeffs.size] = q.poly.coeffs
    for k in range(d, 0, -1):
        s = idx.degree(k)
        src, weight = generator_table(idx, M, model.B, s)
        half = len(src) // 2
        b = x[s]
        if k + 2 <= d:
            s2 = idx.degree(k + 2)
            b = b - _block(src[half:], weight[half:], s2) @ x[s2]
        x[s] = np.linalg.solve(_block(src[:half], weight[:half], s), b)
        if not np.all(np.isfinite(x[s])):
            raise NonFiniteResultError(
                f"the degree-{k} part of the solution is not finite; "
                "the source is too large or not finite"
            )
    z[0] = 0.0  # still q's constant; p's is fixed by E_f0[p] = 0 below
    p = MPoly.from_coeffs(model.dim, z, model.prune_eps)
    return ForwardFunction(p - expectation(p, model.f0), model.f0)


# Degree up to which the commutator and reconstruction identities are
# checked, on every polynomial: C(n + 5, n) basis polynomials.
CHECK_DEGREE = 5


def battery_polynomials(nvars, count=20, max_degree=5, seed=20240817):
    """Deterministic battery of dense random polynomials for operator checks.

    Degrees cycle through 0..max_degree; coefficients are complex
    standard normals from a fixed generator, so the battery is identical
    on every run.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        deg = i % (max_degree + 1)
        terms = {}
        for K in enumerate_modes(nvars, deg):
            c = complex(rng.standard_normal(), rng.standard_normal())
            terms[K] = c
        out.append(MPoly(nvars, terms))
    return out


@dataclass(frozen=True)
class OperatorIdentityReport:
    """Worst relative residuals of the four operator reconstructions."""

    residuals: dict
    tol: float
    basis_size: int

    @property
    def passed(self):
        return all(r <= self.tol for r in self.residuals.values())

    @property
    def worst(self):
        return reduce(fold_worst, self.residuals.values(), 0.0)


def _ladder_matrices(model, op, degree, rows):
    """The matrices (``ladder._matrix``) of the ladder operator ``op`` of
    every mode on ``degree``, padded to ``rows``."""
    args = [(op, I, model.prune_eps) for I in range(model.dim)]
    return [_matrix(model, _ladder_table, a, degree, rows) for a in args]


def _column_worst(lhs, rhs, scale):
    """Largest over the columns of max |lhs - rhs| / scale, ``scale``
    one value per column: the coefficient distance on each basis
    polynomial, relative.  NaN when any entry is NaN."""
    return float(np.max(np.abs(lhs - rhs).max(axis=0) / scale))


def reconstruct_operators_check(model, tol=1e-9):
    """Verify gradient, position, and both evolution operators rebuild
    from the ladder families alone.

    Identities checked, with W the left and E the right eigenvector
    basis:

    * grad      from the adjoint lowering family weighted by conj(W)
    * position  from adjoint raising plus a lowering correction
    * forward   as half the eigenvalue-weighted sum of raise(lower(.))
    * adjoint   as the conjugate-weighted mirror of the same sum

    Each identity is one between operator matrices on the polynomials of
    degree up to ``CHECK_DEGREE`` (``ladder._matrix``), so it holds on
    every basis polynomial; column j, the residual on the j-th, is
    relative to the larger column maximum of its two sides and 1.
    """
    n, d = model.dim, CHECK_DEGREE
    rows = [math.comb(k + n, n) for k in (d - 1, d, d + 1)]
    E = model.eig.right
    W = model.eig.left
    lams = model.eig.values
    Wc = np.conj(W)
    Ec = np.conj(E)
    # Gram matrix conj(w_I)^T Sigma conj(w_J) entering the position identity.
    G = Wc @ model.Sigma @ Wc.T

    worst = {"gradient": 0.0, "position": 0.0, "forward": 0.0, "adjoint": 0.0}

    def fold(name, lhs, rhs):
        colmax = np.fmax(np.abs(lhs).max(axis=0), np.abs(rhs).max(axis=0))
        worst[name] = fold_worst(worst[name], _column_worst(lhs, rhs, np.fmax(colmax, 1.0)))

    lows = _ladder_matrices(model, "lower_adjoint", d, rows[0])
    idx = graded_index(n, d + 1)
    cols = np.arange(rows[1])
    # inf - inf is NaN, which the fold keeps.
    with np.errstate(invalid="ignore"):
        # Raising terms of the position identity with their lowering
        # correction; neither depends on the axis i.
        shifted = _ladder_matrices(model, "raise_adjoint", d, rows[2])
        for I in range(n):
            shifted[I][: rows[0]] += sum(2.0 * G[I, J] * lows[J] for J in range(n))
        for i in range(n):
            grad = _diff(np.eye(rows[1]), n, d, i).T
            fold("gradient", grad, sum(Wc[I, i] * lows[I] for I in range(n)))
            times_x = np.zeros((rows[2], rows[1]))
            times_x[idx.up[i, cols], cols] = 1.0
            fold("position", times_x, sum(0.5 * Ec[i, I] * shifted[I] for I in range(n)))
        for side, lam in (("forward", lams), ("adjoint", np.conj(lams))):
            raised = _ladder_matrices(model, f"raise_{side}", d - 1, rows[1])
            lowered = _ladder_matrices(model, f"lower_{side}", d, rows[0])
            rhs = sum(0.5 * lam[I] * (raised[I] @ lowered[I]) for I in range(n))
            fold(side, _matrix(model, _generator_table, (side,), d, rows[1]), rhs)

    return OperatorIdentityReport(residuals=worst, tol=tol, basis_size=rows[1])
