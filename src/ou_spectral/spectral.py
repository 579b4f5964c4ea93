"""Spectral expansion, time propagation, and inhomogeneous solves.

A Gaussian initial density is projected onto the adjoint eigenbasis;
propagation multiplies each coefficient by exp(lambda_K t).  Stored
coefficients are the raw duality pairings; evaluation divides by the
bi-orthogonal normalization of each mode so the expansion reproduces
the density itself.  The exact Gaussian propagator doubles as an
independent oracle for convergence tests.

Expansion and evaluation never build a polynomial.  The raising
operators of each family commute, so the eigenfunctions have Gaussian
generating functions and obey three-term recursions along the modes:

* coefficients: with ``W`` the left eigenvectors, ``a = 2 W mu`` and
  ``M = 4 W (C - Sigma) W^T`` for ``F0 = N(mu, C)``,
  ``c_{K+e_I} = a_I c_K + sum_J M_IJ K_J c_{K-e_J}``, ``c_0 = 1``;
* forward polynomial factors: with ``E`` the right eigenvectors,
  ``y = x Sigma^-1 E`` and ``G = E^T Sigma^-1 E``,
  ``p_{K+e_I} = y_I p_K - sum_J G_IJ K_J p_{K-e_J}``, ``p_0 = 1``.

Both cost O(modes * dim) per value and prune nothing.  The inhomogeneous
solve and the ``verify`` suites stay on the exact ``MPoly`` ladder, which
is the reference these recursions are tested against.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    NonFiniteResultError,
    NotSolvableError,
    SingularSystemError,
)
from .gaussian import ForwardFunction, GaussianDensity, expectation, inner_product
from .ladder import (
    adjoint_eigenfunction,
    apply_adjoint,
    apply_forward,
    eigenvalue,
    enumerate_modes,
    forward_eigenfunction,
    lower_adjoint,
    lower_forward,
    mode_normalization,
    raise_adjoint,
    raise_forward,
)
from .mpoly import MPoly, coeff_distance

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


def _ladder_steps(modes):
    """Recursion steps along ``modes`` (``enumerate_modes`` order).

    Mode K is reached from its parent P = K - e_I, with I the first
    nonzero axis of K, as ``forward_eigenfunction`` builds it.  Each step
    is (index of P, I, [(J, P_J, index of P - e_J) for nonzero P_J]).
    """
    index = {K: k for k, K in enumerate(modes)}
    steps = []
    for K in modes[1:]:
        I = next(i for i, k in enumerate(K) if k > 0)
        P = K[:I] + (K[I] - 1,) + K[I + 1 :]
        lower = [
            (J, P[J], index[P[:J] + (P[J] - 1,) + P[J + 1 :]])
            for J in range(len(P))
            if P[J]
        ]
        steps.append((index[P], I, lower))
    return steps


def _ladder_recursion(steps, shift, Q, out):
    """Fill ``out`` mode by mode: out[K] = shift[I] out[P] + sum_J Q_IJ P_J out[P - e_J].

    ``out[0]`` must hold the stationary value.  Works on scalars
    (``out`` of shape (modes,)) and on point blocks (``out`` of shape
    (modes, points), ``shift`` of shape (dim, points)).
    """
    for k, (p, I, lower) in enumerate(steps, 1):
        out[k] = shift[I] * out[p]
        for J, m, q in lower:
            out[k] += (Q[I, J] * m) * out[q]
    return out


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
    modes = enumerate_modes(model.dim, max_order)
    c = np.empty(len(modes), dtype=np.complex128)
    c[0] = 1.0
    # An overflow is reported by the check below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        _ladder_recursion(_ladder_steps(modes), a, M, c)
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


def evaluate_grid_complex(expansion, points, t):
    """Complex expansion values on a grid of points, shape (P, N) -> (P,).

    Sums f0(x) c_K / mode_normalization(K) exp(lambda_K t) p_K(x) with
    every p_K from the forward recursion, one block of at most
    ``GRID_CHUNK`` points at a time.  Raises ``NonFiniteResultError``
    when a value overflows or turns NaN.
    """
    _check_time(t)
    model = expansion.model
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != model.dim:
        raise DimensionMismatchError(
            f"points must have shape (P, {model.dim}), got {pts.shape}"
        )
    modes = enumerate_modes(model.dim, expansion.max_order)
    steps = _ladder_steps(modes)
    weights = np.array(
        [
            expansion.coeffs[K] / mode_normalization(K) * np.exp(eigenvalue(model, K) * t)
            for K in modes
        ]
    )
    E = model.eig.right
    S = model.Sigma_inv @ E
    G = E.T @ S
    out = np.empty(pts.shape[0], dtype=np.complex128)
    for lo in range(0, pts.shape[0], GRID_CHUNK):
        block = pts[lo : lo + GRID_CHUNK]
        work = np.empty((len(modes), block.shape[0]), dtype=np.complex128)
        work[0] = 1.0
        # An overflow is reported by the check below, not as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            _ladder_recursion(steps, (block @ S).T, -G, work)
            out[lo : lo + block.shape[0]] = (weights @ work) * model.f0.pdf_grid(block)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
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
        if norm == 0.0 or not np.isfinite(norm):
            raise SingularSystemError(
                f"mode {K} has duality pairing {norm}, which cannot be divided out; "
                "its eigenfunctions were pruned away or overflowed"
            )
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
class BatteryImage:
    """Ladder images of one battery polynomial p, each computed once.

    Forward images act on p f0 and adjoint images on p; list entries are
    indexed by mode.  ``raise_lower_*[I]`` raises the mode-I lowering
    image by mode I: the commutator suite's J = I cross term, which the
    operator reconstruction sums.
    """

    poly: MPoly
    apply_forward: ForwardFunction
    apply_adjoint: MPoly
    raise_forward: list
    raise_adjoint: list
    lower_forward: list
    lower_adjoint: list
    raise_lower_forward: list
    raise_lower_adjoint: list


def _battery_image(model, p):
    n = model.dim
    fwd = ForwardFunction(p, model.f0)
    lower_f = [lower_forward(model, J, fwd) for J in range(n)]
    lower_a = [lower_adjoint(model, J, p) for J in range(n)]
    return BatteryImage(
        poly=p,
        apply_forward=apply_forward(model, fwd),
        apply_adjoint=apply_adjoint(model, p),
        raise_forward=[raise_forward(model, I, fwd) for I in range(n)],
        raise_adjoint=[raise_adjoint(model, I, p) for I in range(n)],
        lower_forward=lower_f,
        lower_adjoint=lower_a,
        raise_lower_forward=[raise_forward(model, I, lower_f[I]) for I in range(n)],
        raise_lower_adjoint=[raise_adjoint(model, I, lower_a[I]) for I in range(n)],
    )


class BatteryImages:
    """The ``BatteryImage`` of every battery polynomial on one model.

    Built on first use of ``records``, so the cost shows under the first
    suite that reads them; the commutator suite and the operator
    reconstruction share one instance per ``verify`` run, so the images
    live as long as that run.
    """

    def __init__(self, model):
        self.model = model

    @cached_property
    def records(self):
        return [
            _battery_image(self.model, p) for p in battery_polynomials(self.model.dim)
        ]


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


def reconstruct_operators_check(model, tol=1e-9, images=None):
    """Verify gradient, position, and both evolution operators rebuild
    from the ladder families alone.

    Identities checked on the battery, with W the left and E the right
    eigenvector basis:

    * grad      from the adjoint lowering family weighted by conj(W)
    * position  from adjoint raising plus a lowering correction
    * forward   as half the eigenvalue-weighted sum of raise(lower(.))
    * adjoint   as the conjugate-weighted mirror of the same sum

    ``images`` (a ``BatteryImages`` of this model) supplies the ladder
    images; without it they are built here.
    """
    if images is None:
        images = BatteryImages(model)
    n = model.dim
    E = model.eig.right
    W = model.eig.left
    lams = model.eig.values
    Wc = np.conj(W)
    Ec = np.conj(E)
    # Gram matrix conj(w_I)^T Sigma conj(w_J) entering the position identity.
    G = Wc @ model.Sigma @ Wc.T

    worst = {"gradient": 0.0, "position": 0.0, "forward": 0.0, "adjoint": 0.0}

    def rel(d, *scales):
        return d / max(1.0, *scales)

    for img in images.records:
        p = img.poly
        lows = img.lower_adjoint
        # Raising terms of the position identity with their lowering
        # correction; neither depends on the axis i.
        shifted = []
        for I in range(n):
            corr = MPoly.zero(n, p.prune_eps)
            for J in range(n):
                corr = corr + (2.0 * G[I, J]) * lows[J]
            shifted.append(img.raise_adjoint[I] + corr)
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
                rhs = rhs + 0.5 * Ec[i, I] * shifted[I]
            d = rel(coeff_distance(lhs, rhs), lhs.max_coeff(), rhs.max_coeff())
            worst["position"] = max(worst["position"], d)

        lhs = img.apply_adjoint
        rhs = MPoly.zero(n, p.prune_eps)
        for I in range(n):
            rhs = rhs + (0.5 * np.conj(lams[I])) * img.raise_lower_adjoint[I]
        d = rel(coeff_distance(lhs, rhs), lhs.max_coeff(), rhs.max_coeff(), p.max_coeff())
        worst["adjoint"] = max(worst["adjoint"], d)

        lhs = img.apply_forward.poly
        rhs = MPoly.zero(n, p.prune_eps)
        for I in range(n):
            rhs = rhs + (0.5 * lams[I]) * img.raise_lower_forward[I].poly
        d = rel(coeff_distance(lhs, rhs), lhs.max_coeff(), rhs.max_coeff(), p.max_coeff())
        worst["forward"] = max(worst["forward"], d)

    return OperatorIdentityReport(
        residuals=worst, tol=tol, battery_size=len(images.records)
    )
