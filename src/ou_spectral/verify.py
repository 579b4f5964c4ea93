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
    adjoint_eigenfunction,
    apply_adjoint,
    apply_forward,
    eigenvalue,
    forward_eigenfunction,
    lower_adjoint,
    lower_forward,
    mode_normalization,
    raise_adjoint,
    raise_forward,
)
from .monomials import enumerate_modes, graded_index
from .mpoly import coeff_distance, fold_worst
from .spectral import BatteryImages, reconstruct_operators_check


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


def commutator_suite(model, tol=1e-9, images=None):
    """Ladder commutation relations on the polynomial battery.

    [L, V_I] = lambda_I V_I on the forward side, the conjugate relation
    on the adjoint side, and the cross relations between opposite
    lowering and raising families equal to twice the identity.

    ``images`` (a ``BatteryImages`` of this model) holds each battery
    polynomial's images under L, its adjoint and every raising and
    lowering operator, computed once and reused for every mode pair;
    without it they are built here.
    """
    if images is None:
        images = BatteryImages(model)
    n = model.dim
    worst = 0.0
    for img in images.records:
        p = img.poly
        scale = max(1.0, p.max_coeff())
        zero_p, two_p = 0.0 * p, 2.0 * p
        for I in range(n):
            lam = model.eig.values[I]

            c = img.raise_forward[I]
            a = apply_forward(model, c).poly
            b = raise_forward(model, I, img.apply_forward).poly
            d = coeff_distance(a - b, lam * c.poly)
            worst = fold_worst(worst, d / max(1.0, c.poly.max_coeff()))

            c = img.raise_adjoint[I]
            a = apply_adjoint(model, c)
            b = raise_adjoint(model, I, img.apply_adjoint)
            d = coeff_distance(a - b, np.conj(lam) * c)
            worst = fold_worst(worst, d / max(1.0, c.max_coeff()))

            for J in range(n):
                if I == J:
                    target = two_p
                    b_adj = img.raise_lower_adjoint[I]
                    b_fwd = img.raise_lower_forward[I]
                else:
                    target = zero_p
                    b_adj = raise_adjoint(model, I, img.lower_adjoint[J])
                    b_fwd = raise_forward(model, I, img.lower_forward[J])
                a = lower_adjoint(model, J, img.raise_adjoint[I])
                d = coeff_distance(a - b_adj, target)
                worst = fold_worst(worst, d / scale)

                a = lower_forward(model, J, img.raise_forward[I])
                d = coeff_distance(a.poly - b_fwd.poly, target)
                worst = fold_worst(worst, d / scale)
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


def reconstruction_suite(model, tol=1e-9, images=None):
    report = reconstruct_operators_check(model, tol=tol, images=images)
    lines = [f"{name}: {val:.3e}" for name, val in sorted(report.residuals.items())]
    return SuiteResult("operator-reconstruction", report.worst, tol, lines)


def run_all(model, max_order, residual_tol=1e-8):
    """Every suite at its standard tolerance; shared residual_tol where
    a suite has no tighter inherent requirement.

    The commutator and reconstruction suites share one ``BatteryImages``,
    built inside the commutator suite and dropped when this call returns.
    """
    images = BatteryImages(model)
    suites = [
        biorthogonality_suite(model, max_order, tol=residual_tol),
        eigen_residual_suite(model, min(max_order, 6), tol=residual_tol),
        ladder_suite(model, n_max=min(max_order, 6)),
        commutator_suite(model, images=images),
        hermite_suite(model, max_order=min(max_order, 5)),
        reconstruction_suite(model, images=images),
    ]
    return VerifyReport(suites=suites)
