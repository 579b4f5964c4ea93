"""Ladder operators and eigenfunctions of the OU Fokker-Planck operator.

The forward operator L q = -div(A x q) + (1/2) B : Hess q has stationary
density f0, a zero-mean Gaussian whose covariance Sigma solves the
Lyapunov equation.  Its spectrum is generated from f0 by per-mode raising
operators, one for each eigenvalue of the drift matrix A; the adjoint
operator gets its own raising family built from the left eigenvectors.
Everything is reduced to exact polynomial arithmetic: a forward function
is stored as polynomial times f0, an adjoint function as a bare
polynomial, and each operator application is a closed-form map between
those polynomials.

In that frame both operators are generators of the same form,
(D x) . grad p + (1/2) B : grad grad p: the adjoint with D = A, and
f0^-1 L (p f0) with D = ``forward_drift`` = Sigma A^T Sigma^-1.  One
routine applies both.  The lowering operators are directional
derivatives on either side, and the raising operators add one linear
factor to a directional derivative.

Eigenfunction K is raised from its ``monomials.parent`` and memoized on
the model, keyed by K.  The polynomial factors and gradient weights of
each operator (the generator's drift rows, the ``MPoly.linear`` factors,
the scaled eigenvector entries) depend only on the model, the mode and
the ``prune_eps`` of the input, so each is built once per model and kept
in ``model._op_cache``.  Concurrent builds may race to insert a cache
entry; both compute the same value, so last write wins harmlessly.
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
from .monomials import parent
from .mpoly import DEFAULT_PRUNE_EPS, MPoly, _add_gradient


@dataclass
class OUModel:
    """Drift, diffusion, stationary covariance, and drift eigensystem.

    ``eig.right[:, I]`` is the right eigenvector for mode ``I`` and
    ``eig.left[I, :]`` the matching left eigenvector; the two bases are
    mutually bi-orthogonal.  ``Sigma`` solves the Lyapunov equation
    A Sigma + Sigma A^T + B = 0; the forward operator relies on it, since
    it is applied in the frame of f0 as the generator with drift
    Sigma A^T Sigma^-1.  Caches on the instance hold eigenfunctions and
    operator factors (the generators' drift rows and the factors of every
    ladder operator, per mode and ``prune_eps``, and the grid-evaluation
    tables of ``spectral``, per order); treat everything returned from
    them as immutable.
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
    # Not init fields: a model made by dataclasses.replace starts empty
    # instead of sharing the memo of the model it was made from.
    _forward_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _adjoint_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _op_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self):
        return self.A.shape[0]


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


def _cached(model, build, *args):
    """``build(model, *args)``, built on first use and kept in
    ``model._op_cache`` under (build, *args)."""
    key = (build, *args)
    got = model._op_cache.get(key)
    if got is None:
        got = build(model, *args)
        model._op_cache[key] = got
    return got


def _grad_weights(v, scale):
    """(axis, scale * v[axis]) for each nonzero entry of ``v``."""
    return [(i, complex(scale * v[i])) for i in range(len(v)) if v[i] != 0.0]


def forward_drift(model):
    """M = Sigma A^T Sigma^-1: the drift of f0^-1 L (p f0) as a generator of p.

    By the Lyapunov equation M = -(A + B Sigma^-1), and M has the spectrum
    of A.
    """
    return model.Sigma @ model.A.T @ model.Sigma_inv


def _generator_factors(model, side, eps):
    # Drift rows D[i, :] . x, D = A for the adjoint and forward_drift for
    # the forward side, and the half-diffusion weights of each row.
    n = model.dim
    D = model.A if side == "adjoint" else forward_drift(model)
    rows = [MPoly.linear(n, D[i, :], prune_eps=eps) for i in range(n)]
    diffusion = [
        [(j, 0.5 * model.B[i, j]) for j in range(n) if model.B[i, j] != 0.0]
        for i in range(n)
    ]
    return MPoly.zero(n, eps), rows, diffusion


def _apply_generator(model, side, p):
    """(D x) . grad p + (1/2) B : grad grad p, D chosen by ``side``."""
    out, rows, diffusion = _cached(model, _generator_factors, side, p.prune_eps)
    for i, row in enumerate(rows):
        pi = p.diff(i)
        out = _add_gradient(out + row * pi, diffusion[i], pi)
    return out


def _raise_forward_factors(model, I, eps):
    e = model.eig.right[:, I]
    u = model.Sigma_inv @ e
    return MPoly.linear(model.dim, u, prune_eps=eps), _grad_weights(e, -1.0)


def _lower_forward_factors(model, I, eps):
    sw = model.Sigma @ model.eig.left[I, :]
    return MPoly.zero(model.dim, eps), _grad_weights(sw, 2.0)


def _raise_adjoint_factors(model, I, eps):
    w = np.conj(model.eig.left[I, :])
    sw = model.Sigma @ w
    return MPoly.linear(model.dim, w, prune_eps=eps), _grad_weights(sw, -2.0)


def _lower_adjoint_factors(model, I, eps):
    e = np.conj(model.eig.right[:, I])
    return MPoly.zero(model.dim, eps), _grad_weights(e, 1.0)


def apply_forward(model, f):
    """Apply the Fokker-Planck operator L to a forward function.

    For f = p * f0 the result is again polynomial times f0, with the
    factor (M x) . grad p + (1/2) B : grad grad p, M = ``forward_drift``:
    the adjoint's generator with drift M in place of A.
    """
    _check_forward(model, f)
    return ForwardFunction(_apply_generator(model, "forward", f.poly), f.base)


def apply_adjoint(model, g):
    """Apply the adjoint (backward) operator to a plain polynomial:
    (A x) . grad g + (1/2) B : grad grad g."""
    _check_adjoint(model, g)
    return _apply_generator(model, "adjoint", g)


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
    return ForwardFunction(_add_gradient(lin * p, grad, p), f.base)


def lower_forward(model, I, f):
    """Mode-I lowering operator on the forward side.

    Acting on p * f0 it sends p to 2 (Sigma w_I) . grad p, the
    directional-derivative form of ``lower_adjoint``; it annihilates the
    stationary density.  The entries of 2 Sigma w_I are cached per mode.
    """
    _check_mode(model, I)
    _check_forward(model, f)
    p = f.poly
    zero, grad = _cached(model, _lower_forward_factors, I, p.prune_eps)
    return ForwardFunction(_add_gradient(zero, grad, p), f.base)


def raise_adjoint(model, I, g):
    """Mode-I raising operator on the adjoint side.

    g -> 2 conj(w_I) . x g - 2 (Sigma conj(w_I)) . grad g, stepping the
    adjoint eigenvalue by conj(lambda_I).  The linear factor and the
    entries of 2 Sigma conj(w_I) are cached per mode.
    """
    _check_mode(model, I)
    _check_adjoint(model, g)
    lin, grad = _cached(model, _raise_adjoint_factors, I, g.prune_eps)
    return _add_gradient(2.0 * (lin * g), grad, g)


def lower_adjoint(model, I, g):
    """Mode-I lowering operator on the adjoint side: conj(e_I) . grad.

    The entries of conj(e_I) are cached per mode.
    """
    _check_mode(model, I)
    _check_adjoint(model, g)
    zero, grad = _cached(model, _lower_adjoint_factors, I, g.prune_eps)
    return _add_gradient(zero, grad, g)


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
        I, prev = parent(K)
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
        I, prev = parent(K)
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
