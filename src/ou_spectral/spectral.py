"""Spectral expansion, time propagation, and inhomogeneous solves.

A Gaussian initial density is projected onto the adjoint eigenbasis;
propagation multiplies each coefficient by exp(lambda_K t).  Stored
coefficients are the raw duality pairings; evaluation divides by the
bi-orthogonal normalization of each mode so the expansion reproduces
the density itself.  The exact Gaussian propagator doubles as an
independent oracle for convergence tests.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, NotSolvableError
from .gaussian import ForwardFunction, GaussianDensity, expectation, inner_product
from .kernels import eval_poly_grid
from .ladder import (
    adjoint_eigenfunction,
    eigenvalue,
    enumerate_modes,
    forward_eigenfunction,
    mode_normalization,
)
from .mpoly import MPoly


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

    Every pairing is an exact Gaussian moment, so no quadrature enters.
    Coefficients of conjugate mode pairs are complex conjugates when
    ``F0`` is real, which all Gaussians here are.
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
    coeffs = {}
    for K in enumerate_modes(model.dim, max_order):
        g = adjoint_eigenfunction(model, K)
        coeffs[K] = expectation(g.conj(), F0)
    return SpectralExpansion(model=model, max_order=max_order, coeffs=coeffs)


def _check_time(t):
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    if t < 0.0:
        raise ValueError("t must be nonnegative")


def _combined_poly(expansion, t):
    """Normalized, time-evolved polynomial factor of the expansion."""
    model = expansion.model
    out = MPoly.zero(model.dim, model.prune_eps)
    for K, alpha in expansion.coeffs.items():
        weight = alpha / mode_normalization(K) * np.exp(eigenvalue(model, K) * t)
        if weight != 0.0:
            out = out + weight * forward_eigenfunction(model, K).poly
    return out


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


def evaluate_grid_complex(expansion, points, t):
    _check_time(t)
    model = expansion.model
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != model.dim:
        raise DimensionMismatchError(
            f"points must have shape (P, {model.dim}), got {pts.shape}"
        )
    poly = _combined_poly(expansion, t)
    exps, coeffs = poly.to_arrays()
    vals = eval_poly_grid(exps, coeffs, pts)
    return vals * model.f0.pdf_grid(pts)


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
    """Solve L P = q for a polynomial-times-Gaussian source q.

    The stationary mode lies in the kernel of L, so a source with a
    nonzero stationary component admits no solution; that component is
    measured against the source scale with ``solvability_tol``.  All
    other modes divide by their (computed, not assumed) eigenvalue and
    duality normalization.
    """
    if not isinstance(q, ForwardFunction):
        raise TypeError("solve_inhomogeneous takes a ForwardFunction")
    if q.dim != model.dim:
        raise DimensionMismatchError(
            f"source of dimension {q.dim} for a {model.dim}-dimensional model"
        )
    max_order = int(max_order)
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    scale = max(1.0, q.poly.max_coeff())
    c0 = expectation(q.poly, q.base)
    if abs(c0) > solvability_tol * scale:
        raise NotSolvableError(
            f"source has stationary component {abs(c0):.3e} "
            f"(tolerance {solvability_tol * scale:.3e}); no solution exists"
        )
    out = MPoly.zero(model.dim, model.prune_eps)
    for K in enumerate_modes(model.dim, max_order):
        if sum(K) == 0:
            continue
        g = adjoint_eigenfunction(model, K)
        f = forward_eigenfunction(model, K)
        proj = inner_product(g, q)
        if proj == 0.0:
            continue
        norm = inner_product(g, f)
        lam = eigenvalue(model, K)
        out = out + (proj / (lam * norm)) * f.poly
    return ForwardFunction(out, model.f0)


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
    battery_size: int

    @property
    def passed(self):
        return all(r <= self.tol for r in self.residuals.values())

    @property
    def worst(self):
        return max(self.residuals.values())


def reconstruct_operators_check(model, tol=1e-9):
    """Verify gradient, position, and both evolution operators rebuild
    from the ladder families alone.

    Identities checked on the battery, with W the left and E the right
    eigenvector basis:

    * grad      from the adjoint lowering family weighted by conj(W)
    * position  from adjoint raising plus a lowering correction
    * forward   as half the eigenvalue-weighted sum of raise(lower(.))
    * adjoint   as the conjugate-weighted mirror of the same sum
    """
    from .ladder import (
        apply_adjoint,
        apply_forward,
        lower_adjoint,
        lower_forward,
        raise_adjoint,
        raise_forward,
    )
    from .mpoly import coeff_distance

    n = model.dim
    E = model.eig.right
    W = model.eig.left
    lams = model.eig.values
    Wc = np.conj(W)
    Ec = np.conj(E)
    # Gram matrix conj(w_I)^T Sigma conj(w_J) entering the position identity.
    G = Wc @ model.Sigma @ Wc.T

    worst = {"gradient": 0.0, "position": 0.0, "forward": 0.0, "adjoint": 0.0}
    battery = battery_polynomials(n)

    def rel(d, *scales):
        return d / max(1.0, *scales)

    for p in battery:
        lows = [lower_adjoint(model, I, p) for I in range(n)]
        raises_ = [raise_adjoint(model, I, p) for I in range(n)]
        for i in range(n):
            lhs = p.diff(i)
            rhs = MPoly.zero(n, p.prune_eps)
            for I in range(n):
                rhs = rhs + Wc[I, i] * lows[I]
            d = rel(coeff_distance(lhs, rhs), lhs.max_coeff(), rhs.max_coeff())
            worst["gradient"] = max(worst["gradient"], d)

            lhs = MPoly.variable(n, i, p.prune_eps) * p
            rhs = MPoly.zero(n, p.prune_eps)
            for I in range(n):
                corr = MPoly.zero(n, p.prune_eps)
                for J in range(n):
                    corr = corr + (2.0 * G[I, J]) * lows[J]
                rhs = rhs + 0.5 * Ec[i, I] * (raises_[I] + corr)
            d = rel(coeff_distance(lhs, rhs), lhs.max_coeff(), rhs.max_coeff())
            worst["position"] = max(worst["position"], d)

        lhs = apply_adjoint(model, p)
        rhs = MPoly.zero(n, p.prune_eps)
        for I in range(n):
            rhs = rhs + (0.5 * np.conj(lams[I])) * raise_adjoint(model, I, lows[I])
        d = rel(coeff_distance(lhs, rhs), lhs.max_coeff(), rhs.max_coeff(), p.max_coeff())
        worst["adjoint"] = max(worst["adjoint"], d)

        fwd = ForwardFunction(p, model.f0)
        lhs = apply_forward(model, fwd).poly
        rhs = MPoly.zero(n, p.prune_eps)
        for I in range(n):
            rhs = rhs + (0.5 * lams[I]) * raise_forward(
                model, I, lower_forward(model, I, fwd)
            ).poly
        d = rel(coeff_distance(lhs, rhs), lhs.max_coeff(), rhs.max_coeff(), p.max_coeff())
        worst["forward"] = max(worst["forward"], d)

    return OperatorIdentityReport(residuals=worst, tol=tol, battery_size=len(battery))
