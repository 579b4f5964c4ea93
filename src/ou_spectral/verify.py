"""Verification suites over a built model.

Each suite exercises one family of exact identities and reports its
worst residual against a tolerance: the caller's for bi-orthogonality and
the eigen-residuals, and a named constant for the others (``LADDER_TOL``,
``IDENTITY_TOL``).  The CLI renders these; they are plain library code so
they can also be driven programmatically.  Every check lives here, and no
production module imports this one.  The eigenfunction suites read each
side's one table of them in place (``ladder._eigenfunctions``), and the
operator suites each operator's one gather table through the two readers
of ``ladder``: ``_image`` gathers a stack of polynomials through it, and
``_matrix`` scatters it into the operator's matrix once.  No suite reads
the slots of a table, and none prunes.  A suite's worst residual is
numpy's maximum (``np.maximum``, ``ndarray.max``), which keeps a NaN
wherever it comes, so a non-finite residual decides the verdict.
"""

from dataclasses import dataclass, field

import numpy as np

from .gaussian import stationary_density
from .hermite_form import _hermite_table
from .ladder import (
    _eigenfunctions,
    _eigenvalues,
    _generator_table,
    _image,
    _ladder_table,
    _matrix,
    mode_normalization,
)
from .linalg import solve_lyapunov
from .monomials import enumerate_modes, graded_index
from .mpoly import MPoly, _diff, _rows, power_table


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


# Degree up to which the commutator and reconstruction identities are
# checked, on every polynomial: C(n + 5, n) basis polynomials.
CHECK_DEGREE = 5
# Highest order at which ``run_all`` checks the eigen-residuals and the
# ladder factorials.
ORDER_CAP = 6
# Default tolerance of bi-orthogonality and the eigen-residuals; the fixed
# one of the ladder factorials; that of the operator identities (commutators,
# Hermite closed form, reconstruction).
DEFAULT_RESIDUAL_TOL = 1e-8
LADDER_TOL = 1e-10
IDENTITY_TOL = 1e-9


def battery_polynomials(nvars, count=20, max_degree=5):
    """Deterministic battery of dense random polynomials for operator checks.

    Degrees cycle through 0..max_degree; coefficients are complex
    standard normals from a fixed generator, so the battery is identical
    on every run.
    """
    rng = np.random.default_rng(20240817)
    out = []
    for i in range(count):
        modes = enumerate_modes(nvars, i % (max_degree + 1))
        terms = {K: complex(rng.standard_normal(), rng.standard_normal()) for K in modes}
        out.append(MPoly(nvars, terms))
    return out


def _ladders(model, op, degree):
    """The matrices (``ladder._matrix``) of ``op`` of every mode on ``degree``."""
    return [_matrix(model, _ladder_table, (op, I), degree) for I in range(model.dim)]


def _column_worst(lhs, rhs, scale):
    """Largest over the columns of max |lhs - rhs| / scale, ``scale``
    one value per column: the coefficient distance on each basis
    polynomial, relative.  NaN when any entry is NaN."""
    return float(np.max(np.abs(lhs - rhs).max(axis=0) / scale))


def reconstruct_operators_check(model, tol=IDENTITY_TOL):
    """Verify gradient, position, and both evolution operators rebuild
    from the ladder families alone: the suite "operator-reconstruction",
    its worst residual over the four identities, one line for each.

    Identities checked, with W the left and E the right eigenvector
    basis:

    * grad      from the adjoint lowering family weighted by conj(W)
    * position  from adjoint raising plus a lowering correction
    * forward   as half the eigenvalue-weighted sum of raise(lower(.))
    * adjoint   as the conjugate-weighted mirror of the same sum

    Each identity is one between operator matrices on the polynomials of
    degree up to ``CHECK_DEGREE`` (``ladder._matrix``), so it holds on
    every basis polynomial; column j, the residual on the j-th, is
    relative to the larger column maximum of its two sides and 1.  Each
    operator is scattered once, on that degree.
    """
    n, d = model.dim, CHECK_DEGREE
    rows = [_rows(n, k) for k in (d - 1, d, d + 1)]
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
        worst[name] = np.maximum(worst[name], _column_worst(lhs, rhs, np.fmax(colmax, 1.0)))

    def evolution(side, lam):
        # Raising on degree d - 1 is a leading sub-block of raising on d.
        raised = _ladders(model, f"raise_{side}", d)
        lowered = _ladders(model, f"lower_{side}", d)
        rhs = sum(0.5 * lam[I] * (raised[I][: rows[1], : rows[0]] @ lowered[I]) for I in range(n))
        fold(side, _matrix(model, _generator_table, (side,), d), rhs)
        return raised, lowered

    idx = graded_index(n, d + 1)
    cols = np.arange(rows[1])
    # inf - inf is NaN, which the maximum keeps.
    with np.errstate(invalid="ignore"):
        evolution("forward", lams)
        shifted, lows = evolution("adjoint", np.conj(lams))
        # Raising terms of the position identity with their lowering
        # correction, added in place; neither depends on the axis i.
        for I in range(n):
            shifted[I][: rows[0]] += sum(2.0 * G[I, J] * lows[J] for J in range(n))
        for i in range(n):
            grad = _diff(np.eye(rows[1]), n, d, i).T
            fold("gradient", grad, sum(Wc[I, i] * lows[I] for I in range(n)))
            times_x = np.zeros((rows[2], rows[1]))
            times_x[idx.up[i, cols], cols] = 1.0
            fold("position", times_x, sum(0.5 * Ec[i, I] * shifted[I] for I in range(n)))

    lines = [f"{name}: {val:.3e}" for name, val in sorted(worst.items())]
    total = float(np.max(list(worst.values())))
    return SuiteResult("operator-reconstruction", total, tol, lines)


def reconstruction_suite(model):
    """``reconstruct_operators_check``, a function of its own because
    perfbench/layers.py traces the two names apart, by identity."""
    return reconstruct_operators_check(model)


def biorthogonality_suite(model, max_order, tol=DEFAULT_RESIDUAL_TOL):
    """Every pairing <g_M, f_K> with M and K up to max_order against
    delta_MK times the duality normalization of K.

    All pairings come at once as conj(G) H F^T, from the forward and
    adjoint eigenfunctions F and G (``ladder._eigenfunctions``) and the
    moment matrix H_ab = E_f0[x^(a+b)], one gather of f0's moments through
    the index's sum table.  Residuals are relative to the normalization
    of the forward index.
    """
    modes = graded_index(model.dim, max_order).modes
    norms = np.array([mode_normalization(K) for K in modes])
    F = _eigenfunctions(model, "forward", max_order)
    G = _eigenfunctions(model, "adjoint", max_order)
    pairs = graded_index(model.dim, 2 * max_order).sum_table(len(modes), len(modes))
    # Moments that overflow give inf and NaN, which the maximum keeps.
    with np.errstate(over="ignore", invalid="ignore"):
        pairings = np.conj(G) @ model.f0.moments(2 * max_order)[pairs] @ F.T
    diag = np.diag(pairings)
    lines = [
        f"K={K} pairing/normalization = {re:.6f}" + (f" {im:+.2e}i" if abs(im) > 0 else "")
        for K, re, im in zip(modes, diag.real / norms, diag.imag / norms)
    ]
    resid = np.abs(pairings - np.diag(norms)) / norms
    worst = float(resid.max())
    return SuiteResult("biorthogonality", worst, tol, lines)


def eigen_residual_suite(model, max_order, tol=DEFAULT_RESIDUAL_TOL):
    """Forward and adjoint eigen-equations, relative coefficient residuals.

    Each side is one gather of the generator (``_image``) over its
    eigenfunctions (``ladder._eigenfunctions``) against lambda_K
    (``ladder._eigenvalues``) times row K, a row's residual relative to
    its largest coefficient and 1.
    """
    worst = 0.0
    # inf - inf is NaN, which the maximum keeps.
    with np.errstate(invalid="ignore"):
        for side in ("forward", "adjoint"):
            table = _eigenfunctions(model, side, max_order)
            lam = _eigenvalues(model, side, graded_index(model.dim, max_order).exponents)
            image = _image(model, _generator_table, (side,), max_order, table)
            resid = np.abs(image - table * lam[:, None])
            scale = np.fmax(np.abs(table).max(axis=1), 1.0)
            worst = np.maximum(worst, np.max(resid.max(axis=1) / scale))
    return SuiteResult("eigen-residuals", float(worst), tol)


def ladder_suite(model, n_max=ORDER_CAP):
    """Repeated lowering against the exact factorial ladder factors.

    k-fold lowering of the order-m single-mode eigenfunction must equal
    2^k m!/(m-k)! times the order-(m-k) one, and annihilate it for k > m.
    The single-mode rows of one axis are lowered together, one gather of
    its lowering operator per step (``_image``), none of them pruned.  A
    row's residual is relative to its factor times the largest
    coefficient of its reference and 1, and past the bottom to 2^m m!.
    """
    exps = graded_index(model.dim, n_max).exponents
    norms = np.array([mode_normalization((m,)) for m in range(n_max + 1)])
    worst = 0.0
    # inf - inf is NaN, which the maximum keeps.
    with np.errstate(invalid="ignore"):
        for side in ("forward", "adjoint"):
            table = _eigenfunctions(model, side, n_max)
            for I in range(model.dim):
                # Row m holds the eigenfunction of m e_I, m = 0..n_max.
                rows = single = table[exps[:, I] == exps.sum(axis=1)]
                args = (f"lower_{side}", I)
                for k in range(1, n_max + 2):
                    rows = _image(model, _ladder_table, args, n_max + 1 - k, rows)
                    factor = norms[k:] / norms[: n_max + 1 - k]
                    ref = single[: n_max + 1 - k, : rows.shape[1]]
                    target = ref * factor[:, None]
                    scale = factor * np.fmax(np.abs(ref).max(axis=1, initial=0.0), 1.0)
                    d = np.abs(rows[k:] - target).max(axis=1, initial=0.0) / scale
                    bottom = np.abs(rows[:k]).max(axis=1, initial=0.0) / norms[:k]
                    worst = np.maximum(worst, np.max(np.concatenate([d, bottom])))
    return SuiteResult("ladder-factorials", float(worst), LADDER_TOL)


def commutator_suite(model):
    """Ladder commutation relations as identities between operator
    matrices.

    [L, V_I] = lambda_I V_I on the forward side, the conjugate relation
    on the adjoint side, and the cross relations between opposite
    lowering and raising families equal to twice the identity, on the
    polynomials of degree up to ``CHECK_DEGREE``.  Each operator is the
    matrix of its gather table (``ladder._matrix``), scattered once on the
    highest degree it acts on, one above the check degree for L and the
    lowering operators; on a lower degree it is a leading sub-block.
    Products compose with ``@``, so each relation holds on every basis
    polynomial.  Column j of a residual acts on the j-th; it is relative
    to the column maximum of V_I e_j and 1 for the commutators, and
    absolute for the cross relations, as e_j has coefficients of 1.
    """
    n, d = model.dim, CHECK_DEGREE
    rows = [_rows(n, k) for k in (d - 1, d, d + 1)]
    worst = 0.0

    # inf - inf is NaN, which the maximum keeps.
    with np.errstate(invalid="ignore"):
        for side, lams in (("forward", model.eig.values), ("adjoint", np.conj(model.eig.values))):
            gen_up = _matrix(model, _generator_table, (side,), d + 1)
            gen = gen_up[: rows[1], : rows[1]]
            raised = _ladders(model, f"raise_{side}", d)
            lowered_up = _ladders(model, f"lower_{side}", d + 1)
            for I in range(n):
                R = raised[I]
                scale = np.fmax(np.abs(R).max(axis=0), 1.0)
                lhs = gen_up @ R - R @ gen
                worst = np.maximum(worst, _column_worst(lhs, lams[I] * R, scale))
                for J in range(n):
                    lowered = lowered_up[J][: rows[0], : rows[1]]
                    lhs = lowered_up[J] @ R - R[: rows[1], : rows[0]] @ lowered
                    target = 2.0 * np.eye(rows[1]) if I == J else 0.0
                    worst = np.maximum(worst, _column_worst(lhs, target, 1.0))
    return SuiteResult("commutators", float(worst), IDENTITY_TOL)


def hermite_suite(model, max_order=5):
    """Each side's table (``ladder._eigenfunctions``), mapped to y = T^-1 x
    by one power table of T = sqrt(2) L, L the Cholesky factor of the
    Lyapunov solution of A and B, against the model's own closed form in
    y of f0, read by the same reader (``_hermite_table`` as its builder),
    which a Sigma off that solution moves apart.  Row K's residual
    is divided (forward) or multiplied (adjoint) by prod_I |T^-1 e_I|^K_I:
    the absolute residual of eigenvectors of unit norm in y."""
    T = np.sqrt(2.0) * stationary_density(solve_lyapunov(model.A, model.B)).factor
    to_y = power_table(T, np.zeros(model.dim), max_order)
    d = np.linalg.norm(np.linalg.solve(T, model.eig.right), axis=0)
    scale = np.prod(d ** graded_index(model.dim, max_order).exponents, axis=1)
    worst = 0.0
    # inf - inf is NaN, which the maximum keeps.
    with np.errstate(invalid="ignore"):
        for side, unit in (("forward", 1.0 / scale), ("adjoint", scale)):
            table = _eigenfunctions(model, side, max_order) @ to_y
            closed = _eigenfunctions(model, side, max_order, _hermite_table)
            resid = np.abs(table - closed).max(axis=1)
            worst = np.maximum(worst, np.max(resid * unit))
    return SuiteResult("hermite-form", float(worst), IDENTITY_TOL)


def run_all(model, max_order, residual_tol=DEFAULT_RESIDUAL_TOL):
    """Every suite at its standard tolerance; shared residual_tol where
    a suite has no tighter inherent requirement.  Each suite reads each
    operator's one table at the degree it needs, which grows the table
    when that degree is above every earlier read."""
    suites = [
        biorthogonality_suite(model, max_order, tol=residual_tol),
        eigen_residual_suite(model, min(max_order, ORDER_CAP), tol=residual_tol),
        ladder_suite(model, n_max=min(max_order, ORDER_CAP)),
        commutator_suite(model),
        hermite_suite(model, max_order=min(max_order, 5)),
        reconstruction_suite(model),
    ]
    return VerifyReport(suites=suites)
