"""Ladder operators and eigenfunctions of the OU Fokker-Planck operator.

The forward operator L q = -div(A x q) + (1/2) B : Hess q has stationary
density f0, a zero-mean Gaussian whose covariance solves the Lyapunov
equation.  Its spectrum is generated from f0 by per-mode raising
operators, one for each eigenvalue of the drift matrix A; the adjoint
operator gets its own raising family built from the left eigenvectors.
Everything is reduced to exact polynomial arithmetic: a forward function
is stored as polynomial times f0, an adjoint function as a bare
polynomial, and each operator application is a closed-form map between
those polynomials.

Eigenfunctions are memoized on the model, keyed by their multi-index.
The polynomial factors and gradient weights of each operator (the
``MPoly.linear`` factors, the zero it sums onto, the scaled eigenvector
entries) depend only on the model, the mode and the ``prune_eps`` of the
input, so each is built once per model and kept in ``model._op_cache``.
Concurrent builds may race to insert a cache entry; both compute the
same value, so last write wins harmlessly.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    ModeIndexMismatchError,
    ModeOutOfRangeError,
    UnstableDriftError,
)
from .gaussian import ForwardFunction, GaussianDensity, stationary_density
from .mpoly import DEFAULT_PRUNE_EPS, MPoly


@dataclass
class OUModel:
    """Drift, diffusion, stationary covariance, and drift eigensystem.

    ``eig.right[:, I]`` is the right eigenvector for mode ``I`` and
    ``eig.left[I, :]`` the matching left eigenvector; the two bases are
    mutually bi-orthogonal.  Caches on the instance hold eigenfunctions
    and operator ingredients (the factors of every ladder operator, per
    mode and ``prune_eps``); treat everything returned from them as
    immutable.
    """

    A: np.ndarray
    B: np.ndarray
    Sigma: np.ndarray
    Sigma_inv: np.ndarray
    eig: linalg.EigenSystem
    f0: GaussianDensity
    conj_partner: np.ndarray
    tol: float
    prune_eps: float
    _forward_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _adjoint_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _op_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self):
        return self.A.shape[0]

    def eigenvalue_of_mode(self, I):
        _check_mode(self, I)
        return complex(self.eig.values[I])


def build_model(A, B, tol=1e-9, prune_eps=DEFAULT_PRUNE_EPS):
    """Assemble an OU model from drift and diffusion matrices.

    Parameters
    ----------
    A : (N, N) array_like
        Stable drift matrix: every eigenvalue must satisfy
        Re(lambda) < -tol * ||A||_F.
    B : (N, N) array_like
        SPD diffusion matrix.
    tol : float
        Stability margin and defectiveness threshold for the drift
        eigenbasis.
    prune_eps : float
        Coefficient prune threshold used by all polynomials this model
        produces.

    Returns
    -------
    OUModel
    """
    A = linalg._as_square(A, "A")
    B = linalg._as_square(B, "B")
    if B.shape[0] != A.shape[0]:
        raise DimensionMismatchError(
            f"A is {A.shape[0]}x{A.shape[0]} but B is {B.shape[0]}x{B.shape[0]}"
        )
    eig = linalg.biorthogonal_eig(A, tol=tol)
    margin = -tol * max(1.0, float(np.linalg.norm(A)))
    worst = float(np.max(eig.values.real))
    if worst >= margin:
        raise UnstableDriftError(
            f"drift eigenvalue with real part {worst:.6e} is not below {margin:.3e}"
        )
    Sigma = linalg.solve_lyapunov(A, B)
    Sigma_inv = linalg.inverse(Sigma)
    partner = linalg.conjugate_partner(eig)
    return OUModel(
        A=A,
        B=B,
        Sigma=Sigma,
        Sigma_inv=Sigma_inv,
        eig=eig,
        f0=stationary_density(Sigma),
        conj_partner=partner,
        tol=float(tol),
        prune_eps=float(prune_eps),
    )


def _check_mode(model, I):
    if not 0 <= int(I) < model.dim:
        raise ModeOutOfRangeError(f"mode {I} outside 0..{model.dim - 1}")


def _check_multi_index(model, K):
    K = tuple(int(k) for k in K)
    if len(K) != model.dim:
        raise ModeIndexMismatchError(
            f"multi-index {K} has length {len(K)}, expected {model.dim}"
        )
    if any(k < 0 for k in K):
        raise ModeIndexMismatchError(f"multi-index {K} has a negative entry")
    return K


def _check_forward(model, f):
    if not isinstance(f, ForwardFunction):
        raise TypeError("expected a ForwardFunction")
    if f.base is not model.f0 and not (
        np.array_equal(f.base.mean, model.f0.mean)
        and np.array_equal(f.base.cov, model.f0.cov)
    ):
        raise DimensionMismatchError(
            "forward function is not based on this model's stationary density"
        )


def _check_adjoint(model, g):
    if not isinstance(g, MPoly):
        raise TypeError("expected an MPoly")
    if g.nvars != model.dim:
        raise DimensionMismatchError(
            f"polynomial in {g.nvars} variables for a {model.dim}-dimensional model"
        )


def _cached(model, build, I, eps):
    """``build(model, I, eps)``, built on first use and kept in
    ``model._op_cache`` under (build, I, eps)."""
    key = (build, I, eps)
    got = model._op_cache.get(key)
    if got is None:
        got = build(model, I, eps)
        model._op_cache[key] = got
    return got


def _grad_weights(v, scale):
    """(axis, scale * v[axis]) for each nonzero entry of ``v``."""
    return [(i, complex(scale * v[i])) for i in range(len(v)) if v[i] != 0.0]


def _adjoint_factors(model, I, eps):
    # I is unused: the adjoint operator has one set of factors per eps.
    n = model.dim
    rows = [MPoly.linear(n, model.A[i, :], prune_eps=eps) for i in range(n)]
    diffusion = [
        [(j, 0.5 * model.B[i, j]) for j in range(n) if model.B[i, j] != 0.0]
        for i in range(n)
    ]
    return MPoly.zero(n, eps), rows, diffusion


def _raise_forward_factors(model, I, eps):
    e = model.eig.right[:, I]
    u = model.Sigma_inv @ e
    return MPoly.linear(model.dim, u, prune_eps=eps), _grad_weights(e, 1.0)


def _lower_forward_factors(model, I, eps):
    w = model.eig.left[I, :]
    sw = model.Sigma @ w
    u = model.Sigma_inv @ sw
    return (
        MPoly.linear(model.dim, w, prune_eps=eps),
        MPoly.linear(model.dim, u, prune_eps=eps),
        _grad_weights(sw, 2.0),
    )


def _raise_adjoint_factors(model, I, eps):
    w = np.conj(model.eig.left[I, :])
    sw = model.Sigma @ w
    return MPoly.linear(model.dim, w, prune_eps=eps), _grad_weights(sw, 2.0)


def _lower_adjoint_factors(model, I, eps):
    e = np.conj(model.eig.right[:, I])
    return MPoly.zero(model.dim, eps), _grad_weights(e, 1.0)


def _op_ingredients(model):
    """Cached polynomials entering the forward-operator reduction."""
    got = model._op_cache.get("forward")
    if got is not None:
        return got
    n = model.dim
    eps = model.prune_eps
    Sinv = model.Sigma_inv
    drift = model.A + model.B @ Sinv
    # Quadratic form x^T Q x with Q = A^T Sinv + (1/2) Sinv B Sinv.  Its
    # antisymmetric part cancels against the trace terms; building it
    # literally keeps the reduction honest and lets pruning eat the dust.
    Q = model.A.T @ Sinv + 0.5 * Sinv @ model.B @ Sinv
    quad_terms = {}
    for i in range(n):
        for j in range(n):
            if Q[i, j] == 0.0:
                continue
            exps = tuple(
                (1 if k == i else 0) + (1 if k == j else 0) for k in range(n)
            )
            quad_terms[exps] = quad_terms.get(exps, 0.0) + Q[i, j]
    quad = MPoly(n, quad_terms, eps)
    const = -float(np.trace(model.A)) - 0.5 * float(np.trace(model.B @ Sinv))
    drift_rows = [
        MPoly.linear(n, drift[i, :], prune_eps=eps) for i in range(n)
    ]
    out = (quad, const, drift_rows)
    model._op_cache["forward"] = out
    return out


def apply_forward(model, f):
    """Apply the Fokker-Planck operator L to a forward function.

    For f = p * f0 the result is again polynomial times f0; only the
    polynomial factor changes.
    """
    _check_forward(model, f)
    p = f.poly
    n = model.dim
    quad, const, drift_rows = _op_ingredients(model)
    out = quad * p + const * p
    for i in range(n):
        di = p.diff(i)
        out = out - drift_rows[i] * di
        for j in range(n):
            bij = model.B[i, j]
            if bij != 0.0:
                out = out + (0.5 * bij) * di.diff(j)
    return ForwardFunction(out, f.base)


def apply_adjoint(model, g):
    """Apply the adjoint (backward) operator to a plain polynomial.

    The drift rows ``A[i, :] . x`` are cached ``MPoly.linear`` factors.
    """
    _check_adjoint(model, g)
    out, rows, diffusion = _cached(model, _adjoint_factors, None, g.prune_eps)
    for i, row in enumerate(rows):
        gi = g.diff(i)
        out = out + row * gi
        for j, half_bij in diffusion[i]:
            out = out + half_bij * gi.diff(j)
    return out


def raise_forward(model, I, f):
    """Mode-I raising operator on the forward side: -e_I . grad.

    Acting on p * f0 this sends p to -e_I . grad p + (e_I^T Sigma^-1 x) p,
    stepping the eigenvalue by lambda_I.  The linear factor and the
    entries of e_I are cached per mode.
    """
    _check_mode(model, I)
    _check_forward(model, f)
    p = f.poly
    lin, grad = _cached(model, _raise_forward_factors, I, p.prune_eps)
    out = lin * p
    for i, ei in grad:
        out = out - ei * p.diff(i)
    return ForwardFunction(out, f.base)


def lower_forward(model, I, f):
    """Mode-I lowering operator on the forward side.

    Sends p to 2 (w_I . x) p + 2 (Sigma w_I) . grad p applied through
    the Gaussian factor; annihilates the stationary density.  The two
    linear factors and the entries of 2 Sigma w_I are cached per mode.
    """
    _check_mode(model, I)
    _check_forward(model, f)
    p = f.poly
    lin_w, lin_u, grad = _cached(model, _lower_forward_factors, I, p.prune_eps)
    out = 2.0 * (lin_w * p)
    out = out - 2.0 * (lin_u * p)
    for i, swi in grad:
        out = out + swi * p.diff(i)
    return ForwardFunction(out, f.base)


def raise_adjoint(model, I, g):
    """Mode-I raising operator on the adjoint side.

    g -> 2 conj(w_I) . x g - 2 (Sigma conj(w_I)) . grad g, stepping the
    adjoint eigenvalue by conj(lambda_I).  The linear factor and the
    entries of 2 Sigma conj(w_I) are cached per mode.
    """
    _check_mode(model, I)
    _check_adjoint(model, g)
    lin, grad = _cached(model, _raise_adjoint_factors, I, g.prune_eps)
    out = 2.0 * (lin * g)
    for i, swi in grad:
        out = out - swi * g.diff(i)
    return out


def lower_adjoint(model, I, g):
    """Mode-I lowering operator on the adjoint side: conj(e_I) . grad.

    The entries of conj(e_I) are cached per mode.
    """
    _check_mode(model, I)
    _check_adjoint(model, g)
    out, grad = _cached(model, _lower_adjoint_factors, I, g.prune_eps)
    for i, ei in grad:
        out = out + ei * g.diff(i)
    return out


def forward_eigenfunction(model, K):
    """Eigenfunction of L with multi-index K, built by repeated raising.

    The mode-0 raising operator is applied last, so the operator product
    runs in increasing mode order from the outside in.  Memoized.
    """
    K = _check_multi_index(model, K)
    got = model._forward_cache.get(K)
    if got is not None:
        return got
    if sum(K) == 0:
        out = ForwardFunction(
            MPoly.constant(model.dim, 1.0, model.prune_eps), model.f0
        )
    else:
        I = next(i for i, k in enumerate(K) if k > 0)
        prev = K[:I] + (K[I] - 1,) + K[I + 1 :]
        out = raise_forward(model, I, forward_eigenfunction(model, prev))
    model._forward_cache[K] = out
    return out


def adjoint_eigenfunction(model, K):
    """Eigenfunction of the adjoint operator with multi-index K.  Memoized."""
    K = _check_multi_index(model, K)
    got = model._adjoint_cache.get(K)
    if got is not None:
        return got
    if sum(K) == 0:
        out = MPoly.constant(model.dim, 1.0, model.prune_eps)
    else:
        I = next(i for i, k in enumerate(K) if k > 0)
        prev = K[:I] + (K[I] - 1,) + K[I + 1 :]
        out = raise_adjoint(model, I, adjoint_eigenfunction(model, prev))
    model._adjoint_cache[K] = out
    return out


def eigenvalue(model, K):
    """Forward eigenvalue sum_I K_I lambda_I.  Conjugate for the adjoint."""
    K = _check_multi_index(model, K)
    return complex(sum(k * lam for k, lam in zip(K, model.eig.values)))


def mode_normalization(K):
    """Duality normalization prod_I 2^{K_I} K_I! of an eigenpair."""
    out = 1.0
    for k in K:
        k = int(k)
        if k < 0:
            raise ModeIndexMismatchError(f"multi-index {tuple(K)} has a negative entry")
        out *= float(2**k) * float(math.factorial(k))
    return out


def compositions(total, parts):
    """All tuples of ``parts`` nonnegative ints summing to ``total``.

    The first entry runs from ``total`` down to 0, recursively, so the
    tuples come out in reverse lexicographic order.
    """
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_modes(dim, max_order):
    """All multi-indices with total order up to max_order, graded-lex."""
    dim = int(dim)
    max_order = int(max_order)
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    out = []
    for deg in range(max_order + 1):
        out.extend(compositions(deg, dim))
    return out
