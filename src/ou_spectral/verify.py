"""Verification suites over a built model.

Each suite exercises one family of exact identities and reports its
worst residual against a tolerance: the caller's for bi-orthogonality and
the eigen-residuals, and a named constant for the others (``LADDER_TOL``,
``IDENTITY_TOL``).  The CLI renders these; they are plain library code so
they can also be driven programmatically.  Every check lives here, and no
production module imports this one.  The eigenfunction suites read each
side's one table of them in place (``ladder._eigenfunctions``); the
operator suites check their identities on the operators' n x n weights,
and each table once against them (``ladder._matrix``).  No suite reads
the slots of a table, and none prunes.  A suite's worst residual is
numpy's maximum (``np.maximum``, ``ndarray.max``), which keeps a NaN
wherever it comes, so a non-finite residual decides the verdict.
"""

from dataclasses import dataclass, field

import numpy as np

from .gaussian import stationary_density
from .hermite_form import _hermite_table
from .ladder import (
    _drift,
    _eigenfunctions,
    _eigenvalues,
    _generator_table,
    _image,
    _ladder_table,
    _ladder_weights,
    _matrix,
)
from .linalg import solve_lyapunov
from .monomials import _max_order, enumerate_modes, graded_index
from .mpoly import MPoly, power_table


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


# Degree of the polynomials on which each operator table is read against
# its weights: C(n + 5, n) monomials.
CHECK_DEGREE = 5
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


def _normwise(terms, target=0.0, axis=None):
    """max |sum of ``terms`` (each a tuple of matrices, their product) - target|
    over the largest product of entries forming it; axis 1: each row's own."""
    value, scale = -target, 0.0
    for factors in terms:
        P, S = factors[0], abs(factors[0])
        for f in factors[1:]:
            P, S = P @ f, (S[:, :, None] * abs(f)).max(axis=1)
        value, scale = value + P, np.maximum(scale, S)
    return (abs(value).max(axis=axis) / scale.max(axis=axis)).max()


def _realized(model, build, args, a=None, w=None, D=None, B=None):
    """The largest gap between an entry of the matrix (``ladder._matrix``)
    of ``build(model, *args)`` on degree ``CHECK_DEGREE`` and of the matrix
    pushed from its weights, in roundoff units of the larger, times
    ``IDENTITY_TOL``.  x^b goes to x^(b+e_j) by a_j, to x^(b-e_i) by
    w_i b_i, to x^(b-e_i+e_j) by D_ij b_i and to x^(b-e_i-e_j) by
    (1/2) B_ij b_i (b_j - delta_ij), summed in the table's slot order
    (``ladder.operator_table``), so a clean table reads exactly 0."""
    M = _matrix(model, build, args, CHECK_DEGREE)
    n, C, idx = model.dim, M.shape[1], graded_index(model.dim, CHECK_DEGREE + 1)
    b, up, down = idx.exponents[:C].T, idx.up[:, :C], idx.down[:, :C]
    on = down[:, None] >= 0
    # Slot s sends x^b, column c, to row rows[s, c] by weight[s, c]; -1 is off the index.
    slots = [] if a is None else [(up, np.repeat(a[:, None], C, axis=1))]
    slots += [] if w is None else [(down, w[:, None] * b)]
    if D is not None:
        slots += [(np.where(on, idx.up[:, down].swapaxes(0, 1), -1), D[:, :, None] * b[:, None])]
    if B is not None:
        half = 0.5 * B[:, :, None] * b[:, None] * (b - np.eye(n, dtype=int)[:, :, None])
        slots += [(np.where(on, idx.down[:, down].swapaxes(0, 1), -1), half)]
    rows = np.concatenate([r.reshape(-1, C) for r, _ in slots])
    weight = np.concatenate([v.reshape(-1, C) for _, v in slots])
    live, P = rows >= 0, np.zeros_like(M)
    np.add.at(P, (rows[live], np.nonzero(live)[1]), weight[live])
    if (M == P).all():
        return 0.0
    size = np.maximum(np.abs(M), np.abs(P))
    gap = np.abs(M - P)[size != 0] / size[size != 0]
    return np.max(gap, initial=0.0) / np.finfo(float).eps * IDENTITY_TOL


def _side(model, side):
    """(D, diag(lambda), a, w, w'): the side's drift (``ladder._drift``)
    and eigenvalues, and the weights of its raising a . x + w . grad and
    lowering w' . grad (``ladder._ladder_weights``), stacked by mode."""
    lam = model.eig.values if side == "forward" else np.conj(model.eig.values)
    modes = range(model.dim)
    a, w = map(np.array, zip(*(_ladder_weights(model, f"raise_{side}", I) for I in modes)))
    low = np.array([_ladder_weights(model, f"lower_{side}", I)[1] for I in modes])
    return _drift(model, side), np.diag(lam), a, w, low


def _check_tol(tol):
    """The residual tolerance of a suite: ``ValueError`` unless it is
    finite and positive, where inf would pass every residual and NaN or 0
    fail every one."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"residual tolerance must be finite and positive, got {tol}")


def reconstruct_operators_check(model, tol=IDENTITY_TOL):
    """Verify gradient, position, and both evolution operators rebuild
    from the ladder families alone: the suite "operator-reconstruction",
    its worst residual over the four identities, one line for each, each
    between the weights of ``_side`` and normwise relative (``_normwise``),
    W and E the left and right eigenvector bases:

    * grad      from adjoint lowering: conj(W)^T w' = I
    * position  from adjoint raising plus a lowering correction:
      conj(E) a / 2 = I and conj(E) (w / 2 + G w') = 0, G = conj(W) Sigma conj(W)^T
    * forward   as half the eigenvalue-weighted sum of raise(lower(.)), with
      its table (``_realized``): D^T = sum_I lambda_I a_I w'_I^T / 2 and
      B = sym(sum_I lambda_I w_I w'_I^T)
    * adjoint   as the conjugate-weighted mirror of the same sum

    A ``tol`` that ``_check_tol`` refuses is refused before any weight is read."""
    _check_tol(tol)
    Wc, Ec = np.conj(model.eig.left), np.conj(model.eig.right)
    sides = {side: _side(model, side) for side in ("forward", "adjoint")}
    _, _, a, w, low = sides["adjoint"]
    # inf - inf is NaN, which the maximum keeps.
    with np.errstate(invalid="ignore"):
        position = _normwise([(0.5 * Ec, w), (Ec, Wc @ model.Sigma @ Wc.T, low)])
        worst = {"gradient": _normwise([(Wc.T, low)], np.eye(model.dim))}
        worst["position"] = np.maximum(_normwise([(0.5 * Ec, a)], np.eye(model.dim)), position)
        for side, (D, Lam, a, w, low) in sides.items():
            drift = _normwise([(D,), (-0.5 * low.T, Lam, a)])
            diffusion = _normwise([(model.B,), (-0.5 * w.T, Lam, low), (-0.5 * low.T, Lam, w)])
            table = _realized(model, _generator_table, (side,), D=D, B=model.B)
            worst[side] = np.maximum(np.maximum(drift, diffusion), table)
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
    of the forward index.  Raises ``ValueError`` for a ``tol`` that is not
    finite and positive.
    """
    _check_tol(tol)
    max_order = _max_order(max_order)
    idx = graded_index(model.dim, max_order)
    modes, norms = idx.modes, idx.normalizations
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
    its largest coefficient and 1.  Raises ``ValueError`` for a ``tol``
    that is not finite and positive.
    """
    _check_tol(tol)
    max_order = _max_order(max_order)
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


def ladder_suite(model, max_order):
    """Repeated lowering against the exact factorial ladder factors.

    k-fold lowering of the order-m single-mode eigenfunction, m <= max_order,
    must equal 2^k m!/(m-k)! times the order-(m-k) one, and annihilate it for
    k > m.  The single-mode rows of one axis are lowered together, one gather
    of its lowering operator per step (``_image``), none of them pruned.  A
    row's residual is relative to its factor times the largest coefficient
    of its reference and 1, and past the bottom to 2^m m!.
    """
    max_order = _max_order(max_order)
    exps = graded_index(model.dim, max_order).exponents
    norms = graded_index(1, max_order).normalizations
    worst = 0.0
    # inf - inf is NaN, which the maximum keeps.
    with np.errstate(invalid="ignore"):
        for side in ("forward", "adjoint"):
            table = _eigenfunctions(model, side, max_order)
            for I in range(model.dim):
                # Row m holds the eigenfunction of m e_I, m = 0..max_order.
                rows = single = table[exps[:, I] == exps.sum(axis=1)]
                args = (f"lower_{side}", I)
                for k in range(1, max_order + 2):
                    rows = _image(model, _ladder_table, args, max_order + 1 - k, rows)
                    factor = norms[k:] / norms[: max_order + 1 - k]
                    ref = single[: max_order + 1 - k, : rows.shape[1]]
                    target = ref * factor[:, None]
                    scale = factor * np.fmax(np.abs(ref).max(axis=1, initial=0.0), 1.0)
                    d = np.abs(rows[k:] - target).max(axis=1, initial=0.0) / scale
                    bottom = np.abs(rows[:k]).max(axis=1, initial=0.0) / norms[:k]
                    worst = np.maximum(worst, np.max(np.concatenate([d, bottom])))
    return SuiteResult("ladder-factorials", float(worst), LADDER_TOL)


def commutator_suite(model):
    """Ladder commutation relations as identities between n x n weights:
    with V_I = a_I . x + w_I . grad raising and L = (D x) . grad +
    (1/2) B : grad grad (``_side``), [L, V_I] = lambda_I V_I (conjugate on
    the adjoint side) is D^T a_I = lambda_I a_I and B a_I - D w_I =
    lambda_I w_I, each mode apart, and the cross relations with lowering
    w'_J . grad are w'_J . a_I = 2 delta_IJ, normwise relative
    (``_normwise``).  Each of the 4n ladder tables is read as ``_realized``."""
    worst = 0.0
    # inf - inf is NaN, which the maximum keeps.
    with np.errstate(invalid="ignore"):
        for side in ("forward", "adjoint"):
            D, Lam, a, w, low = _side(model, side)
            worst = np.maximum(worst, _normwise([(a, D), (-Lam, a)], axis=1))
            worst = np.maximum(worst, _normwise([(a, model.B), (-w, D.T), (-Lam, w)], axis=1))
            worst = np.maximum(worst, _normwise([(low, a.T)], 2.0 * np.eye(model.dim)))
            for op in (f"raise_{side}", f"lower_{side}"):
                for I in range(model.dim):
                    weights = _ladder_weights(model, op, I)
                    worst = np.maximum(worst, _realized(model, _ladder_table, (op, I), *weights))
    return SuiteResult("commutators", float(worst), IDENTITY_TOL)


def hermite_suite(model, max_order):
    """Each side's table (``ladder._eigenfunctions``), mapped to y = T^-1 x
    by one power table of T = sqrt(2) L, L the Cholesky factor of the
    Lyapunov solution of A and B, against the model's own closed form in
    y of f0, read by the same reader (``_hermite_table`` as its builder),
    which a Sigma off that solution moves apart.  Row K's residual is
    relative to the largest coefficient of its closed form, which makes
    it unit-free at every order."""
    max_order = _max_order(max_order)
    T = np.sqrt(2.0) * stationary_density(solve_lyapunov(model.A, model.B)).factor
    to_y = power_table(T, np.zeros(model.dim), max_order)
    worst = 0.0
    # inf - inf is NaN, which the maximum keeps.
    with np.errstate(invalid="ignore"):
        for side in ("forward", "adjoint"):
            table = _eigenfunctions(model, side, max_order) @ to_y
            closed = _eigenfunctions(model, side, max_order, _hermite_table)
            resid = np.abs(table - closed).max(axis=1) / np.abs(closed).max(axis=1)
            worst = np.maximum(worst, np.max(resid))
    return SuiteResult("hermite-form", float(worst), IDENTITY_TOL)


def run_all(model, max_order, residual_tol=DEFAULT_RESIDUAL_TOL):
    """Every suite at its standard tolerance, shared residual_tol where a
    suite has no tighter inherent requirement, and at ``max_order`` where
    it takes an order.  Each suite reads each operator's one table at the
    degree it needs, growing it when that degree is above every earlier read.
    A ``max_order`` or ``residual_tol`` that the suites refuse is refused
    by the first, before any table is read."""
    suites = [
        biorthogonality_suite(model, max_order, tol=residual_tol),
        eigen_residual_suite(model, max_order, tol=residual_tol),
        ladder_suite(model, max_order),
        commutator_suite(model),
        hermite_suite(model, max_order),
        reconstruction_suite(model),
    ]
    return VerifyReport(suites=suites)
