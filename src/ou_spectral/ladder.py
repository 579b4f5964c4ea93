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
f0^-1 L (p f0) with D = ``forward_drift`` = Sigma A^T Sigma^-1.  The
lowering operators are directional derivatives on either side, and the
raising operators add one linear factor to a directional derivative.

Every operator here acts on the coefficient vector of p (``MPoly``) as
one gather: row r of the image sums weighted coefficients of p read
through the shift tables of ``monomials.graded_index``.  Its table
(``generator_table`` for L and its adjoint, which the solve of
``spectral`` reads too) depends only on the model, the mode, the
``prune_eps`` and the degree of the input, so each is built once per
model and kept in ``model._op_cache``.  Scattered into a matrix
(``_block``), a table is the operator on every polynomial of its
degree at once, as the solve of ``spectral`` and the ``verify``
identities read it.  The eigenfunctions of one side and order are one
block of rows in the same cache (``_eigenblock``), each raised from its
``monomials.parent`` row by the gather that raises one polynomial.
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
from .monomials import graded_index
from .mpoly import DEFAULT_PRUNE_EPS, MPoly, _padded, prune


@dataclass
class OUModel:
    """Drift, diffusion, stationary covariance, and drift eigensystem.

    ``eig.right[:, I]`` is the right eigenvector for mode ``I`` and
    ``eig.left[I, :]`` the matching left eigenvector; the two bases are
    mutually bi-orthogonal.  ``Sigma`` solves the Lyapunov equation
    A Sigma + Sigma A^T + B = 0; the forward operator relies on it, since
    it is applied in the frame of f0 as the generator with drift
    Sigma A^T Sigma^-1.  One cache on the instance, ``_op_cache``, holds
    the eigenfunction blocks, per side and order, and the tables (the
    gather table of every operator, per mode, ``prune_eps`` and input
    degree, the grid-evaluation tables of ``spectral``, per order, and
    the Hermite closed forms of ``hermite_form``, per side and order);
    treat everything returned from it as immutable.
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
    # Not an init field: a model made by dataclasses.replace starts empty
    # instead of sharing the memo of the model it was made from.
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
        eigenbasis; finite and positive.
    prune_eps : float
        Coefficient prune threshold used by all polynomials this model
        produces; finite and nonnegative.

    Returns
    -------
    OUModel
    """
    if not 0.0 <= prune_eps < np.inf:
        raise ValueError(f"prune_eps must be finite and nonnegative, got {prune_eps}")
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


def forward_drift(model):
    """M = Sigma A^T Sigma^-1: the drift of f0^-1 L (p f0) as a generator of p.

    By the Lyapunov equation M = -(A + B Sigma^-1), and M has the spectrum
    of A.
    """
    return model.Sigma @ model.A.T @ model.Sigma_inv


def _masked(src, weight):
    """A gather table: weight 0 where src is -1, and src -1 where the
    weight is 0, so that a zero weight never meets a NaN."""
    weight[src < 0] = 0.0
    src[weight == 0.0] = -1
    return src, weight


def generator_table(idx, D, B, rows=slice(None)):
    """(src, weight), each of shape (2 n^2, m), for m ``rows`` of the
    ``GradedIndex`` ``idx``: the generator (D x) . grad p
    + (1/2) B : grad grad p has coefficient sum_s weight[s, r] p[src[s, r]]
    at row r, and src is -1 wherever the weight is 0.

    Slot (i, j) of the first n^2 is the drift term D_ij x_j d_i p, which
    keeps the degree: it reads row r - e_j + e_i, with exponents a, by
    D_ij a_i.  Slot (i, j) of the last n^2 is the diffusion term
    (1/2) B_ij d_i d_j p, which lowers the degree by 2: it reads row
    r + e_i + e_j by (1/2) B_ij a_i (r_j + 1).
    """
    n = D.shape[0]
    r = np.arange(len(idx.modes))[rows]
    E = idx.exponents.T
    axis = np.arange(n)[:, None, None]
    # [i, j] reads up[i, down[j, r]] and up[i, up[j, r]].
    lowered, raised = idx.down[:, r], idx.up[:, r]
    drift = np.where(lowered >= 0, idx.up[:, lowered], -1)
    diffusion = np.where(raised >= 0, idx.up[:, raised], -1)
    src = np.concatenate([drift, diffusion]).reshape(2 * n * n, -1)
    weight = np.concatenate(
        [
            D[:, :, None] * E[axis, drift],
            (0.5 * B)[:, :, None] * E[axis, diffusion] * (E[:, r] + 1),
        ]
    ).reshape(src.shape)
    return _masked(src, weight)


def _generator_table(model, side, degree):
    D = model.A if side == "adjoint" else forward_drift(model)
    return generator_table(graded_index(model.dim, degree), D, model.B)


def _ladder_weights(model, op, I, eps):
    """(a, w) of the mode-I ladder operator ``op``, which sends p to
    (a . x) p + w . grad p.  An entry of a below ``eps`` is dropped, as
    ``MPoly.linear`` drops it."""
    e, w = model.eig.right[:, I], model.eig.left[I, :]
    if op == "raise_forward":
        a, w = model.Sigma_inv @ e, -e
    elif op == "lower_forward":
        a, w = 0.0 * e, 2.0 * (model.Sigma @ w)
    elif op == "raise_adjoint":
        a, w = 2.0 * np.conj(w), -2.0 * (model.Sigma @ np.conj(w))
    else:
        a, w = 0.0 * e, np.conj(e)
    return np.where(np.abs(a) < eps, 0.0, a), w


def _ladder_table(model, op, I, eps, degree):
    """The gather table of the ladder operator ``op`` of mode I on
    polynomials of ``degree``: slot j of the first n reads row r - e_j by
    a_j, and slot i of the last n reads row r + e_i by w_i (r_i + 1)."""
    a, w = _ladder_weights(model, op, I, eps)
    n = model.dim
    idx = graded_index(n, degree + 1)
    top = degree + 1 if a.any() else degree - 1
    size = math.comb(top + n, n) if top >= 0 else 0
    src = np.concatenate([idx.down[:, :size], idx.up[:, :size]])
    src[src >= math.comb(degree + n, n)] = -1
    weight = np.concatenate(
        [np.repeat(a[:, None], size, axis=1), w[:, None] * (idx.exponents[:size].T + 1)]
    )
    return _masked(src, weight)


def _gather(src, weight, c):
    """The gathers (src, weight) of a table on each coefficient vector
    along the last axis of c: sum_s weight[s, r] c[..., src[s, r]] at row
    r, where src -1 reads a zero.  The slots are summed one after another
    in slot order, so a vector has the same image alone or in a stack."""
    c = _padded(c, c.shape[-1] + 1)
    out = weight[0] * c[..., src[0]]
    for s in range(1, len(src)):
        out += weight[s] * c[..., src[s]]
    return out


def _apply_table(model, build, args, p):
    """p's image under the gather table ``build(model, *args, degree of
    p)``, cached on the model."""
    if p.is_zero():
        return p
    image = _gather(*_cached(model, build, *args, p.degree()), p.coeffs)
    return MPoly.from_coeffs(model.dim, image, p.prune_eps)


def _block(src, weight, cols):
    """The matrix of the gathers (src, weight) of a table on the source
    rows ``cols``, a slice holding every src they read.  Each entry sums
    its terms in slot order."""
    out = np.zeros((src.shape[1], cols.stop - cols.start), dtype=weight.dtype)
    slot, row = np.nonzero(src >= 0)
    np.add.at(out, (row, src[slot, row] - cols.start), weight[slot, row])
    return out


def _ladder(model, op, I, p):
    """The mode-I ladder operator ``op`` on the polynomial p."""
    return _apply_table(model, _ladder_table, (op, I, p.prune_eps), p)


def _generator(model, side, p):
    """L on the factor p of p f0 (side "forward") or the adjoint on p."""
    return _apply_table(model, _generator_table, (side,), p)


def apply_forward(model, f):
    """Apply the Fokker-Planck operator L to a forward function.

    For f = p * f0 the result is again polynomial times f0, with the
    factor (M x) . grad p + (1/2) B : grad grad p, M = ``forward_drift``:
    the adjoint's generator with drift M in place of A.
    """
    _check_forward(model, f)
    return ForwardFunction(_generator(model, "forward", f.poly), f.base)


def apply_adjoint(model, g):
    """Apply the adjoint (backward) operator to a plain polynomial:
    (A x) . grad g + (1/2) B : grad grad g."""
    _check_adjoint(model, g)
    return _generator(model, "adjoint", g)


def raise_forward(model, I, f):
    """Mode-I raising operator on the forward side: -e_I . grad.

    Acting on p * f0 this sends p to -e_I . grad p + (e_I^T Sigma^-1 x) p,
    stepping the eigenvalue by lambda_I.
    """
    _check_mode(model, I)
    _check_forward(model, f)
    return ForwardFunction(_ladder(model, "raise_forward", I, f.poly), f.base)


def lower_forward(model, I, f):
    """Mode-I lowering operator on the forward side.

    Acting on p * f0 it sends p to 2 (Sigma w_I) . grad p, the
    directional-derivative form of ``lower_adjoint``; it annihilates the
    stationary density.
    """
    _check_mode(model, I)
    _check_forward(model, f)
    return ForwardFunction(_ladder(model, "lower_forward", I, f.poly), f.base)


def raise_adjoint(model, I, g):
    """Mode-I raising operator on the adjoint side.

    g -> 2 conj(w_I) . x g - 2 (Sigma conj(w_I)) . grad g, stepping the
    adjoint eigenvalue by conj(lambda_I).
    """
    _check_mode(model, I)
    _check_adjoint(model, g)
    return _ladder(model, "raise_adjoint", I, g)


def lower_adjoint(model, I, g):
    """Mode-I lowering operator on the adjoint side: conj(e_I) . grad."""
    _check_mode(model, I)
    _check_adjoint(model, g)
    return _ladder(model, "lower_adjoint", I, g)


def _eigenblock(model, side, order):
    """The eigenfunctions of ``side`` and ``order``, read-only: row k holds
    the coefficients of the k-th mode of the order in ``graded_index``.

    Row K is its parent's row raised by mode I (``monomials.parent``).
    The rows of one mode are raised by one gather of its table and pruned
    as ``MPoly`` prunes, so each is bit for bit its parent's own raise.
    """
    eps = model.prune_eps
    if order == 0:
        block = np.ones((1, 1), dtype=np.complex128)
    else:
        idx = graded_index(model.dim, order)
        rows, below = idx.degree(order), idx.degree(order - 1).start
        prev = _cached(model, _eigenblock, side, order - 1)
        steps = idx.steps[rows.start - 1 : rows.stop - 1]
        parents, modes = np.array([step[:2] for step in steps]).T
        block = np.zeros((len(modes), rows.stop), dtype=np.complex128)
        for I in range(model.dim):
            table = _cached(model, _ladder_table, f"raise_{side}", I, eps, order - 1)
            image = _gather(*table, prev[parents[modes == I] - below])
            block[modes == I, : image.shape[1]] = image
        prune(block, eps)
    block.setflags(write=False)
    return block


def _eigenfunction(model, side, K):
    """Row K of its ``_eigenblock``, as an ``MPoly`` that views the row:
    the block is read-only and already pruned at ``model.prune_eps``."""
    K = _check_multi_index(model, K)
    idx = graded_index(model.dim, sum(K))
    row = _cached(model, _eigenblock, side, sum(K))[idx.row[K] - idx.degree(sum(K)).start]
    return MPoly._pruned(model.dim, row, model.prune_eps)


def forward_eigenfunction(model, K):
    """Eigenfunction of L with multi-index K, built by repeated raising.

    The mode-0 raising operator is applied last, so the operator product
    runs in increasing mode order from the outside in.  Memoized per
    order, as a block.
    """
    return ForwardFunction(_eigenfunction(model, "forward", K), model.f0)


def adjoint_eigenfunction(model, K):
    """Eigenfunction of the adjoint operator with multi-index K.  Memoized
    per order, as a block."""
    return _eigenfunction(model, "adjoint", K)


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
