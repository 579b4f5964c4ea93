"""Verification suites over a built model.

Each suite exercises one family of exact identities and reports its
worst residual against a tolerance.  The CLI renders these; they are
plain library code so they can also be driven programmatically.
"""

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .gaussian import moment_matrix
from .hermite_form import _hermite_table, _require_canonical, is_canonical, to_canonical
from .ladder import (
    _cached,
    _eigenblock,
    _gather,
    _generator_table,
    _ladder_table,
    _matrix,
    mode_normalization,
)
from .monomials import graded_index
from .mpoly import fold_worst, prune
from .spectral import (
    CHECK_DEGREE,
    _column_worst,
    _ladder_matrices,
    reconstruct_operators_check,
)


@dataclass
class SuiteResult:
    name: str
    worst: float
    tol: float
    lines: list = field(default_factory=list)

    @property
    def passed(self):
        return self.worst <= self.tol


@dataclass
class VerifyReport:
    suites: list

    @property
    def passed(self):
        return all(s.passed for s in self.suites)


def _stacked(model, side, max_order):
    """The eigenfunction blocks (``ladder._eigenblock``) of ``side`` up to
    ``max_order`` as one matrix: row k holds the coefficients of mode k,
    both indexed by ``graded_index(model.dim, max_order)``."""
    idx = graded_index(model.dim, max_order)
    out = np.zeros((len(idx.modes),) * 2, dtype=np.complex128)
    for k in range(max_order + 1):
        out[idx.degree(k), : idx.degree(k).stop] = _cached(model, _eigenblock, side, k)
    return out


def biorthogonality_suite(model, max_order, tol=1e-8):
    """Every pairing <g_M, f_K> with M and K up to max_order against
    delta_MK times the duality normalization of K.

    All pairings come at once as conj(G) H F^T, from the stacked forward
    and adjoint eigenfunctions F and G (``_stacked``) and the moment
    matrix H_ab = E_f0[x^(a+b)].  Residuals are relative to the
    normalization of the forward index.
    """
    modes = graded_index(model.dim, max_order).modes
    F = _stacked(model, "forward", max_order)
    G = _stacked(model, "adjoint", max_order)
    pairings = np.conj(G) @ moment_matrix(model.f0, max_order) @ F.T
    norms = np.array([mode_normalization(K) for K in modes])
    diag = np.diag(pairings)
    lines = [
        f"K={K} pairing/normalization = {re:.6f}" + (f" {im:+.2e}i" if abs(im) > 0 else "")
        for K, re, im in zip(modes, diag.real / norms, diag.imag / norms)
    ]
    # Column k pairs f_K with every adjoint eigenfunction; its max is NaN
    # when any entry is.
    resid = np.abs(pairings - np.diag(norms)) / norms
    worst = reduce(fold_worst, resid.max(axis=0).tolist(), 0.0)
    return SuiteResult("biorthogonality", worst, tol, lines)


def eigen_residual_suite(model, max_order, tol=1e-8):
    """Forward and adjoint eigen-equations, relative coefficient residuals.

    Each order is one gather of the generator table over its block,
    against lambda_K times row K; each row's residual is relative to its
    largest coefficient and 1.
    """
    idx = graded_index(model.dim, max_order)
    eps = model.prune_eps
    worst = 0.0
    # inf - inf is NaN, which the fold keeps.
    with np.errstate(invalid="ignore"):
        for side, lams in (("forward", model.eig.values), ("adjoint", np.conj(model.eig.values))):
            for k in range(max_order + 1):
                block = _cached(model, _eigenblock, side, k)
                lam = (idx.exponents[idx.degree(k)] * lams).sum(axis=1)
                image = _gather(*_cached(model, _generator_table, side, k), block)
                resid = np.abs(prune(image, eps) - prune(block * lam[:, None], eps))
                scale = np.fmax(np.abs(block).max(axis=1), 1.0)
                worst = fold_worst(worst, float(np.max(resid.max(axis=1) / scale)))
    return SuiteResult("eigen-residuals", worst, tol)


def ladder_suite(model, n_max=6, tol=1e-10):
    """Repeated lowering against the exact factorial ladder factors.

    k-fold lowering of the order-m single-mode eigenfunction must equal
    2^k m!/(m-k)! times the order-(m-k) one, and annihilate it for k > m.
    The single-mode rows of one axis are lowered together, one gather of
    its lowering table per step, pruned after each step as ``MPoly``
    prunes.  A row's residual is relative to its factor times the largest
    coefficient of its reference and 1, and past the bottom to 2^m m!.
    """
    exps, eps = graded_index(model.dim, n_max).exponents, model.prune_eps
    norms = np.array([mode_normalization((m,)) for m in range(n_max + 1)])
    worst = 0.0
    # inf - inf is NaN, which the fold keeps.
    with np.errstate(invalid="ignore"):
        for side in ("forward", "adjoint"):
            stacked = _stacked(model, side, n_max)
            for I in range(model.dim):
                # Row m holds the eigenfunction of m e_I, m = 0..n_max.
                rows = single = stacked[exps[:, I] == exps.sum(axis=1)]
                for k in range(1, n_max + 2):
                    table = _cached(model, _ladder_table, f"lower_{side}", I, eps, n_max + 1 - k)
                    rows = prune(_gather(*table, rows), eps)
                    factor = norms[k:] / norms[: n_max + 1 - k]
                    ref = single[: n_max + 1 - k, : rows.shape[1]]
                    target = prune(ref * factor[:, None], eps)
                    scale = factor * np.fmax(np.abs(ref).max(axis=1, initial=0.0), 1.0)
                    d = np.abs(rows[k:] - target).max(axis=1, initial=0.0) / scale
                    bottom = np.abs(rows[:k]).max(axis=1, initial=0.0) / norms[:k]
                    worst = fold_worst(worst, float(np.max(np.concatenate([d, bottom]))))
    return SuiteResult("ladder-factorials", worst, tol)


def commutator_suite(model, tol=1e-9):
    """Ladder commutation relations as identities between operator
    matrices.

    [L, V_I] = lambda_I V_I on the forward side, the conjugate relation
    on the adjoint side, and the cross relations between opposite
    lowering and raising families equal to twice the identity, on the
    polynomials of degree up to ``CHECK_DEGREE``.  An operator on degree
    k is the matrix of its gather table at degree k (``ladder._matrix``),
    and products compose with ``@``, so each relation holds on every
    basis polynomial.  Column j of a residual acts on the j-th; it is
    relative to the column maximum of V_I e_j and 1 for the commutators,
    and absolute for the cross relations, as e_j has coefficients of 1.
    """
    n, d = model.dim, CHECK_DEGREE
    rows = [math.comb(k + n, n) for k in (d - 1, d, d + 1)]
    worst = 0.0

    # inf - inf is NaN, which the fold keeps.
    with np.errstate(invalid="ignore"):
        for side, lams in (("forward", model.eig.values), ("adjoint", np.conj(model.eig.values))):
            gen = _matrix(model, _generator_table, (side,), d, rows[1])
            gen_up = _matrix(model, _generator_table, (side,), d + 1, rows[2])
            raised = _ladder_matrices(model, f"raise_{side}", d, rows[2])
            raised_down = _ladder_matrices(model, f"raise_{side}", d - 1, rows[1])
            lowered = _ladder_matrices(model, f"lower_{side}", d, rows[0])
            lowered_up = _ladder_matrices(model, f"lower_{side}", d + 1, rows[1])
            for I in range(n):
                R = raised[I]
                scale = np.fmax(np.abs(R).max(axis=0), 1.0)
                lhs = gen_up @ R - R @ gen
                worst = fold_worst(worst, _column_worst(lhs, lams[I] * R, scale))
                for J in range(n):
                    lhs = lowered_up[J] @ R - raised_down[I] @ lowered[J]
                    target = 2.0 * np.eye(rows[1]) if I == J else 0.0
                    worst = fold_worst(worst, _column_worst(lhs, target, 1.0))
    return SuiteResult("commutators", worst, tol)


def hermite_suite(model, max_order=5, tol=1e-9):
    """Ladder route against the Hermite closed form, coefficient-wise.

    Transforms to canonical coordinates first when needed.
    """
    model_c = model if is_canonical(model) else to_canonical(model)[0]
    _require_canonical(model_c)
    worst = 0.0
    # inf - inf is NaN, which the fold keeps.
    with np.errstate(invalid="ignore"):
        for side in ("forward", "adjoint"):
            closed = _cached(model_c, _hermite_table, side, max_order)
            closed = prune(closed.copy(), model_c.prune_eps)
            d = np.abs(_stacked(model_c, side, max_order) - closed).max()
            worst = fold_worst(worst, float(d))
    return SuiteResult("hermite-form", worst, tol)


def reconstruction_suite(model, tol=1e-9):
    report = reconstruct_operators_check(model, tol=tol)
    lines = [f"{name}: {val:.3e}" for name, val in sorted(report.residuals.items())]
    return SuiteResult("operator-reconstruction", report.worst, tol, lines)


def run_all(model, max_order, residual_tol=1e-8):
    """Every suite at its standard tolerance; shared residual_tol where
    a suite has no tighter inherent requirement."""
    suites = [
        biorthogonality_suite(model, max_order, tol=residual_tol),
        eigen_residual_suite(model, min(max_order, 6), tol=residual_tol),
        ladder_suite(model, n_max=min(max_order, 6)),
        commutator_suite(model),
        hermite_suite(model, max_order=min(max_order, 5)),
        reconstruction_suite(model),
    ]
    return VerifyReport(suites=suites)
