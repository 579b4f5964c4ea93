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
through the shift tables of ``monomials.graded_index``.  One builder,
``operator_table``, lays out the table of every operator, L, its adjoint
and the ladder operators alike, from the operator's exact weights; it
depends only on the operator and a degree, never on ``prune_eps``,
which only ``render`` reads.  Only this module reads the slots of a table:
``_image`` gathers coefficient vectors through it, and ``_matrix``
scatters it into the operator's matrix, or one block of that matrix.

``model._op_cache`` keeps one entry per builder and arguments, at the
highest degree asked so far, and ``_grown`` is its one reader: a lower
degree is the entry's leading rows or block.  So the operator on a lower
degree gathers its table's first rows on a zero-padded input
(``_table``, ``_image``), and the eigenfunctions of a lower order are the
leading block of their side's one table (``_eigenfunctions``), whose
rows are raised once from their ``monomials.parent`` rows, one gather
per run of the index (``GradedIndex.runs``).  Concurrent builds may race
to insert an entry; each is valid, so last write wins harmlessly.
"""

import operator
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
from .mpoly import DEFAULT_PRUNE_EPS, MPoly, _padded, _rows


@dataclass
class OUModel:
    """Drift, diffusion, stationary covariance, and drift eigensystem.

    ``eig.right[:, I]`` is the right eigenvector for mode ``I`` and
    ``eig.left[I, :]`` the matching left eigenvector; the two bases are
    mutually bi-orthogonal.  ``Sigma`` solves the Lyapunov equation
    A Sigma + Sigma A^T + B = 0; the forward operator relies on it, since
    it is applied in the frame of f0 as the generator with drift
    Sigma A^T Sigma^-1.  One cache on the instance, ``_op_cache``, holds
    one entry each (``_grown``), at the highest degree asked so far: the
    eigenfunction table of each side, the gather table of each operator
    (the generator of each side, each ladder operator of each mode) and
    the Hermite closed forms of ``hermite_form``, per side, the two
    eigenfunction tables read through ``_eigenfunctions`` alone; treat
    everything returned as immutable.
    """

    A: np.ndarray
    B: np.ndarray
    Sigma: np.ndarray
    Sigma_inv: np.ndarray
    eig: linalg.EigenSystem
    f0: GaussianDensity
    tol: float
    prune_eps: float
    # Not an init field: a model made by dataclasses.replace starts empty
    # instead of sharing the memo of the model it was made from.
    _op_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self):
        return self.A.shape[0]


def build_model(A, B, tol=linalg.DEFAULT_DEFECT_TOL, prune_eps=DEFAULT_PRUNE_EPS):
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
        Display threshold of ``mpoly.render`` for the polynomials this
        model produces; finite and nonnegative.

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
    f0 = stationary_density(Sigma)  # its Cholesky factoring checks Sigma is SPD
    return OUModel(
        A=A,
        B=B,
        Sigma=Sigma,
        Sigma_inv=np.linalg.inv(Sigma),
        eig=eig,
        f0=f0,
        tol=float(tol),
        prune_eps=float(prune_eps),
    )


def _check_mode(model, I):
    """Mode I as an int; ``TypeError`` when it is not integral."""
    I = int(operator.index(I))
    if not 0 <= I < model.dim:
        raise ModeOutOfRangeError(f"mode {I} outside 0..{model.dim - 1}")
    return I


def _check_multi_index(model, K):
    """K as a tuple of ints; ``TypeError`` when an entry is not integral."""
    K = tuple(map(operator.index, K))
    if len(K) != model.dim:
        raise ModeIndexMismatchError(
            f"multi-index {K} has length {len(K)}, expected {model.dim}"
        )
    if min(K) < 0:
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


def _grown(model, build, args, degree):
    """(top, *entry): the model's one entry ``build(model, *args, top)``,
    kept under (build, *args), top the highest degree asked so far; a
    higher degree rebuilds it.  A lower degree is its leading rows."""
    key = (build, *args)
    got = model._op_cache.get(key)
    if got is None or got[0] < degree:
        got = (degree, *build(model, *args, degree))
        model._op_cache[key] = got
    return got


def _table(model, build, args, degree):
    """(src, weight, size): the gather table ``build(model, *args,
    degree)``, an ``operator_table`` of shift ``shift``, as the rows up to
    degree ``degree + shift`` of the model's one table of the operator
    (``_grown``), and that table's source length.  They may read
    coefficients above ``degree``, which the table of ``degree`` masks; on
    an input zero-padded to ``size``, w 0 in place of 0 0 changes only the
    sign of an exact zero."""
    top, shift, src, weight = _grown(model, build, args, degree)
    rows = _rows(model.dim, degree + shift)
    return src[:, :rows], weight[:, :rows], _rows(model.dim, top)


def forward_drift(model):
    """M = Sigma A^T Sigma^-1: the drift of f0^-1 L (p f0) as a generator of p.

    By the Lyapunov equation M = -(A + B Sigma^-1), and M has the spectrum
    of A.
    """
    return model.Sigma @ model.A.T @ model.Sigma_inv


def operator_table(n, degree, a=None, w=None, D=None, B=None):
    """(shift, src, weight): the gather table of the operator
    p -> (a . x) p + (w + D x) . grad p + (1/2) B : grad grad p on the
    polynomials in n variables of ``degree`` or less.  Its image has degree
    ``degree + shift``, the shift the largest of its terms': 1 for a, 0
    for D, -1 for w and -2 for B.  Row r of the image sums
    weight[s, r] p[src[s, r]], and src is -1 wherever the weight is 0 and
    wherever it would read a row above ``degree``.

    The slots come in term order, and an absent term has none.  Slot j of
    the n of a reads row r - e_j by a_j.  Slot i of the n of w reads row
    r + e_i by w_i (r_i + 1).  Slot (i, j) of the n^2 of D reads row
    r - e_j + e_i, with exponents s, by D_ij s_i.  Slot (i, j) of the n^2
    of B reads row r + e_i + e_j by (1/2) B_ij s_i (r_j + 1).
    """
    terms = ((1, a), (-1, w), (0, D), (-2, B))
    shift = max(step for step, term in terms if term is not None)
    idx = graded_index(n, degree + max(shift, 0))
    size = _rows(n, degree + shift)
    E = idx.exponents.T
    axis = np.arange(n)[:, None, None]
    src, weight = [], []
    if a is not None:
        src.append(idx.down[:, :size])
        weight.append(np.repeat(a[:, None], size, axis=1))
    if w is not None:
        src.append(idx.up[:, :size])
        weight.append(w[:, None] * (E[:, :size] + 1))
    # [i, j] reads up[i, down[j, r]] and up[i, up[j, r]].
    if D is not None:
        drift = np.where(idx.down >= 0, idx.up[:, idx.down], -1)[..., :size]
        src.append(drift.reshape(n * n, size))
        weight.append((D[:, :, None] * E[axis, drift]).reshape(n * n, size))
    if B is not None:
        diffusion = np.where(idx.up >= 0, idx.up[:, idx.up], -1)[..., :size]
        src.append(diffusion.reshape(n * n, size))
        half = (0.5 * B)[:, :, None] * E[axis, diffusion] * (E[:, :size] + 1)
        weight.append(half.reshape(n * n, size))
    src, weight = np.concatenate(src), np.concatenate(weight)
    src[src >= _rows(n, degree)] = -1
    weight[src < 0] = 0.0
    src[weight == 0.0] = -1
    return shift, src, weight


def _generator_table(model, side, degree):
    """The table (``operator_table``) of L (side "forward") or its adjoint."""
    D = model.A if side == "adjoint" else forward_drift(model)
    return operator_table(model.dim, degree, D=D, B=model.B)


def _ladder_table(model, op, I, degree):
    """The table (``operator_table``) of the mode-I ladder operator
    ``op``, which sends p to (a . x) p + w . grad p; a lowering operator
    has no a."""
    e, w = model.eig.right[:, I], model.eig.left[I, :]
    if op == "raise_forward":
        a, w = model.Sigma_inv @ e, -e
    elif op == "lower_forward":
        a, w = None, 2.0 * (model.Sigma @ w)
    elif op == "raise_adjoint":
        a, w = 2.0 * np.conj(w), -2.0 * (model.Sigma @ np.conj(w))
    else:
        a, w = None, np.conj(e)
    return operator_table(model.dim, degree, a=a, w=w)


def _image(model, build, args, degree, c):
    """The gathers of the operator ``build(model, *args)`` on the
    polynomials of ``degree`` or less (``_table``) on each coefficient
    vector along the last axis of c: sum_s weight[s, r] c[..., src[s, r]]
    at row r, where src -1 reads a zero.  The slots are summed one after
    another in slot order, so a vector has the same image alone or in a
    stack."""
    src, weight, size = _table(model, build, args, degree)
    c = _padded(c, size + 1)
    out = weight[0] * c[..., src[0]]
    for s in range(1, len(src)):
        out += weight[s] * c[..., src[s]]
    return out


def _apply_table(model, build, args, p):
    """p's image under the operator ``build(model, *args)``."""
    if p.is_zero():
        return p
    image = _image(model, build, args, p.degree(), p.coeffs)
    return MPoly.from_coeffs(model.dim, image, p.prune_eps)


def _matrix(model, build, args, degree, rows=slice(None), cols=None):
    """The matrix of the operator ``build(model, *args)`` on the
    polynomials of ``degree`` or less, column j its image of the j-th
    monomial of ``graded_index``, or the block of it on the image rows
    ``rows`` and the columns ``cols``, slices: its table (``_table``)
    scattered once, the reads outside ``cols`` dropped and each entry
    summed in slot order, so a block, or the matrix on a lower degree, is
    bit for bit that block of the whole."""
    src, weight, _ = _table(model, build, args, degree)
    cols = slice(0, _rows(model.dim, degree)) if cols is None else cols
    src, weight = src[:, rows], weight[:, rows]
    out = np.zeros((src.shape[1], cols.stop - cols.start), dtype=weight.dtype)
    slot, row = np.nonzero((src >= cols.start) & (src < cols.stop))
    np.add.at(out, (row, src[slot, row] - cols.start), weight[slot, row])
    return out


def _ladder(model, op, I, p):
    """The mode-I ladder operator ``op`` on the polynomial p; I is checked."""
    return _apply_table(model, _ladder_table, (op, _check_mode(model, I)), p)


def apply_forward(model, f):
    """Apply the Fokker-Planck operator L to a forward function.

    For f = p * f0 the result is again polynomial times f0, with the
    factor (M x) . grad p + (1/2) B : grad grad p, M = ``forward_drift``:
    the adjoint's generator with drift M in place of A.
    """
    _check_forward(model, f)
    return ForwardFunction(_apply_table(model, _generator_table, ("forward",), f.poly), f.base)


def apply_adjoint(model, g):
    """Apply the adjoint (backward) operator to a plain polynomial:
    (A x) . grad g + (1/2) B : grad grad g."""
    _check_adjoint(model, g)
    return _apply_table(model, _generator_table, ("adjoint",), g)


def raise_forward(model, I, f):
    """Mode-I raising operator on the forward side: -e_I . grad.

    Acting on p * f0 this sends p to -e_I . grad p + (e_I^T Sigma^-1 x) p,
    stepping the eigenvalue by lambda_I.
    """
    _check_forward(model, f)
    return ForwardFunction(_ladder(model, "raise_forward", I, f.poly), f.base)


def lower_forward(model, I, f):
    """Mode-I lowering operator on the forward side.

    Acting on p * f0 it sends p to 2 (Sigma w_I) . grad p, the
    directional-derivative form of ``lower_adjoint``; it annihilates the
    stationary density.
    """
    _check_forward(model, f)
    return ForwardFunction(_ladder(model, "lower_forward", I, f.poly), f.base)


def raise_adjoint(model, I, g):
    """Mode-I raising operator on the adjoint side.

    g -> 2 conj(w_I) . x g - 2 (Sigma conj(w_I)) . grad g, stepping the
    adjoint eigenvalue by conj(lambda_I).
    """
    _check_adjoint(model, g)
    return _ladder(model, "raise_adjoint", I, g)


def lower_adjoint(model, I, g):
    """Mode-I lowering operator on the adjoint side: conj(e_I) . grad."""
    _check_adjoint(model, g)
    return _ladder(model, "lower_adjoint", I, g)


def _eigentable(model, side, order):
    """(table,): row r holds the coefficients of the r-th mode of
    ``graded_index(model.dim, order)`` over the same rows, read-only.

    The side's table of a lower order is copied, and each higher order
    raised from it: row K is its parent's row raised by mode I
    (``monomials.parent``), the rows of one run of the index
    (``GradedIndex.runs``) by one gather of mode I's table read at
    ``order - 1``, so each is bit for bit its parent's own raise.
    """
    R = _rows(model.dim, order)
    table = np.zeros((R, R), dtype=np.complex128)
    table[0, 0] = 1.0
    if order:
        raising = [(f"raise_{side}", I) for I in range(model.dim)]
        for args in raising:
            _table(model, _ladder_table, args, order - 1)
        top, held = _grown(model, _eigentable, (side,), 0)
        top = min(top, order - 1)
        S = _rows(model.dim, top)
        table[:S, :S] = held[:S, :S]
        for k, I, rows, parents in graded_index(model.dim, order).runs[model.dim * top :]:
            parent_rows = table[parents, : _rows(model.dim, k - 1)]
            image = _image(model, _ladder_table, raising[I], k - 1, parent_rows)
            table[rows, : image.shape[1]] = image
    table.setflags(write=False)
    return (table,)


def _eigenfunctions(model, side, order, build=_eigentable):
    """The eigenfunctions of ``side`` up to ``order``: the leading block
    of the side's one table, the ladder's (``_eigentable``) or the Hermite
    closed form's (``hermite_form._hermite_table``)."""
    R = _rows(model.dim, order)
    return _grown(model, build, (side,), order)[1][:R, :R]


def _eigenfunction(model, side, K, build=_eigentable):
    """Row K of ``_eigenfunctions(model, side, |K|, build)`` as an ``MPoly``:
    every entry of the row, trimmed to its degree, |K| or less where the
    top-degree block underflows at extreme units."""
    K = _check_multi_index(model, K)
    k = sum(K)
    row = _eigenfunctions(model, side, k, build)[graded_index(model.dim, k).row[K]]
    return MPoly.from_coeffs(model.dim, row, model.prune_eps)


def forward_eigenfunction(model, K):
    """Eigenfunction of L with multi-index K, built by repeated raising.

    The mode-0 raising operator is applied last, so the operator product
    runs in increasing mode order from the outside in.  Memoized as a
    row of the side's one table.
    """
    return ForwardFunction(_eigenfunction(model, "forward", K), model.f0)


def adjoint_eigenfunction(model, K):
    """Eigenfunction of the adjoint operator with multi-index K.  Memoized
    as a row of the side's one table."""
    return _eigenfunction(model, "adjoint", K)


def _eigenvalues(model, side, exponents):
    """lambda_K = sum_I K_I lambda_I of each row K of ``exponents``, the
    one formula, added in mode order; conjugated on the adjoint side."""
    lam = sum(exponents[:, I] * value for I, value in enumerate(model.eig.values))
    return lam if side == "forward" else np.conj(lam)


def eigenvalue(model, K):
    """Forward eigenvalue sum_I K_I lambda_I.  Conjugate for the adjoint."""
    return complex(_eigenvalues(model, "forward", np.array([_check_multi_index(model, K)]))[0])

