"""Verification suites over a built model.

Each suite exercises one family of exact identities and reports its
worst residual against a tolerance.  The CLI renders these; they are
plain library code so they can also be driven programmatically.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import moment_matrix
from .hermite_form import adjoint_hermite, forward_hermite, is_canonical, to_canonical
from .ladder import (
    _generator_table,
    _matrix,
    adjoint_eigenfunction,
    apply_adjoint,
    apply_forward,
    eigenvalue,
    forward_eigenfunction,
    lower_adjoint,
    lower_forward,
    mode_normalization,
)
from .monomials import enumerate_modes, graded_index
from .mpoly import coeff_distance, fold_worst
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


def _pairing_matrix(model, max_order):
    """P[M, K] = <g_M, f_K> for every M and K up to ``max_order``, both
    indexed by the rows of ``graded_index(model.dim, max_order)``.

    Row k of the matrices F and G (modes x monomials) holds the
    coefficient vector of the forward and the adjoint eigenfunction of
    mode k, whose monomials are the same rows.  With the moment matrix
    H_ab = E_f0[x^(a+b)], P = conj(G) H F^T.
    """
    idx = graded_index(model.dim, max_order)
    F = np.zeros((len(idx.modes), len(idx.modes)), dtype=complex)
    G = np.zeros_like(F)
    for k, K in enumerate(idx.modes):
        f = forward_eigenfunction(model, K).poly.coeffs
        g = adjoint_eigenfunction(model, K).coeffs
        F[k, : f.size] = f
        G[k, : g.size] = g
    return np.conj(G) @ moment_matrix(model.f0, max_order) @ F.T


def biorthogonality_suite(model, max_order, tol=1e-8):
    """Every pairing <g_M, f_K> with M and K up to max_order against
    delta_MK times the duality normalization of K.

    All pairings come at once as conj(G) H F^T from the eigenfunction
    coefficient matrices and one moment matrix (``_pairing_matrix``).
    Residuals are relative to the normalization of the forward index.
    """
    modes = graded_index(model.dim, max_order).modes
    pairings = _pairing_matrix(model, max_order)
    norms = np.array([mode_normalization(K) for K in modes])
    resid = np.abs(pairings - np.diag(norms)) / norms
    worst = 0.0
    lines = []
    for k, K in enumerate(modes):
        diag = complex(pairings[k, k])
        norm = norms[k]
        lines.append(
            f"K={K} pairing/normalization = {diag.real / norm:.6f}"
            + (f" {diag.imag / norm:+.2e}i" if abs(diag.imag) > 0 else "")
        )
        # Column k pairs f_K with every adjoint eigenfunction; its max is
        # NaN when any entry is.
        worst = fold_worst(worst, float(resid[:, k].max()))
    return SuiteResult("biorthogonality", worst, tol, lines)


def eigen_residual_suite(model, max_order, tol=1e-8):
    """Forward and adjoint eigen-equations, relative coefficient residuals."""
    worst = 0.0
    for K in enumerate_modes(model.dim, max_order):
        lam = eigenvalue(model, K)
        f = forward_eigenfunction(model, K)
        resid = coeff_distance(apply_forward(model, f).poly, lam * f.poly)
        worst = fold_worst(worst, resid / max(1.0, f.poly.max_coeff()))
        g = adjoint_eigenfunction(model, K)
        resid = coeff_distance(apply_adjoint(model, g), np.conj(lam) * g)
        worst = fold_worst(worst, resid / max(1.0, g.max_coeff()))
    return SuiteResult("eigen-residuals", worst, tol)


def ladder_suite(model, n_max=6, tol=1e-10):
    """Repeated lowering against the exact factorial ladder factors.

    k-fold lowering of the order-n single-mode eigenfunction must equal
    2^k n!/(n-k)! times the order-(n-k) one, and one step past the
    bottom must annihilate.
    """
    worst = 0.0
    for I in range(model.dim):
        for n in range(1, n_max + 1):
            K = tuple(n if i == I else 0 for i in range(model.dim))
            f = forward_eigenfunction(model, K)
            g = adjoint_eigenfunction(model, K)
            for k in range(1, n + 1):
                factor = float(2**k) * math.factorial(n) / math.factorial(n - k)
                Kref = tuple(n - k if i == I else 0 for i in range(model.dim))
                fref = forward_eigenfunction(model, Kref)
                gref = adjoint_eigenfunction(model, Kref)
                f = lower_forward(model, I, f)
                g = lower_adjoint(model, I, g)
                d = coeff_distance(f.poly, factor * fref.poly)
                worst = fold_worst(worst, d / (factor * max(1.0, fref.poly.max_coeff())))
                d = coeff_distance(g, factor * gref)
                worst = fold_worst(worst, d / (factor * max(1.0, gref.max_coeff())))
            f = lower_forward(model, I, f)
            g = lower_adjoint(model, I, g)
            scale = float(2**n) * math.factorial(n)
            worst = fold_worst(worst, f.poly.max_coeff() / scale)
            worst = fold_worst(worst, g.max_coeff() / scale)
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
    if is_canonical(model):
        model_c = model
    else:
        model_c, _ = to_canonical(model)
    worst = 0.0
    for K in enumerate_modes(model_c.dim, max_order):
        d = coeff_distance(
            forward_eigenfunction(model_c, K).poly, forward_hermite(model_c, K)
        )
        worst = fold_worst(worst, d)
        d = coeff_distance(
            adjoint_eigenfunction(model_c, K), adjoint_hermite(model_c, K)
        )
        worst = fold_worst(worst, d)
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
