"""Dense linear algebra for small drift and diffusion matrices.

Everything here operates on plain numpy arrays at desk scale (N up to a
few dozen).  ``_spd_factor`` is the one check and Cholesky factoring of a
symmetric positive-definite matrix (B, Sigma, every covariance), unit-free.
``biorthogonal_eig`` fixes a deterministic ordering and phase for the
eigenvectors so that downstream mode labels are reproducible across runs
and platforms.  The order is one sort of LAPACK's units for a real matrix,
each a real eigenvalue or an adjacent conjugate pair (positive imaginary
part first), by descending real part, then imaginary part, of the first.
``expm`` is exp(tA) by the scaling and squaring algorithm of Al-Mohy &
Higham (2009), "A new scaling and squaring algorithm for the matrix
exponential", SIAM J. Matrix Anal. Appl. 31(3):970-989, in numpy, so the
package needs no scipy at run time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DefectiveMatrixError,
    DimensionMismatchError,
    NotSPDError,
    NotSquareError,
    SingularSystemError,
    UnstableDriftError,
)

# Default defectiveness threshold, also ``build_model``'s stability margin.
DEFAULT_DEFECT_TOL = 1e-9


def _real(x, name):
    """``x`` as a float array; ``ValueError`` naming it when it is complex,
    whose imaginary part the conversion would drop."""
    if np.iscomplexobj(x):
        raise ValueError(f"{name} must have real entries")
    return np.asarray(x, dtype=float)


def _as_square(M, name="matrix"):
    out = _real(M, name)
    if out.ndim != 2 or out.shape[0] != out.shape[1] or out.shape[0] == 0:
        raise NotSquareError(f"{name} must be square, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must have finite entries")
    return out.copy()


def _spd_factor(S, name):
    """Cholesky factor L of the SPD float array S = L L^T.  Asymmetry is
    measured against S's largest entry, with no floor, so the verdict
    does not depend on units; raises ``NotSPDError`` naming S."""
    if np.max(np.abs(S - S.T)) > 1e-12 * np.max(np.abs(S)):
        raise NotSPDError(f"{name} is not symmetric")
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise NotSPDError(f"{name} is not positive definite") from None


@dataclass(frozen=True)
class EigenSystem:
    """Bi-orthogonal eigendecomposition of a real square matrix.

    ``values[I]`` pairs with right eigenvector ``right[:, I]`` and left
    eigenvector ``left[I, :]``, normalized so that ``left @ right`` is the
    identity.  Right eigenvectors have unit 2-norm with their
    largest-magnitude component real and positive.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray


def _ordered_indices(values):
    # dgeev lists a pair as adjacent exact conjugates, in values and vector
    # columns alike; the sort is stable, so equal units keep LAPACK's order.
    units, i = [], 0
    while i < len(values):
        width = 2 if values[i].imag != 0.0 else 1
        units.append(range(i, i + width))
        i += width
    units.sort(key=lambda u: (-values[u[0]].real, -values[u[0]].imag))
    return [i for u in units for i in u]


def biorthogonal_eig(A, tol=DEFAULT_DEFECT_TOL):
    """Eigenvalues with matched right and left eigenvector bases.

    Parameters
    ----------
    A : (N, N) array_like
        Real matrix.  May have complex eigenvalues; these come out in
        conjugate pairs with the positive imaginary part listed first.
    tol : float
        Defectiveness threshold, finite and positive.  The right
        eigenvector matrix must have condition number below ``1/tol``.

    Returns
    -------
    EigenSystem

    Raises
    ------
    NotSquareError
        If ``A`` is not square.
    ValueError
        If ``tol`` is not finite and positive: NaN would pass every basis.
    DefectiveMatrixError
        If the eigenvector basis is numerically incomplete.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    A = _as_square(A, "A")
    values, vecs = np.linalg.eig(A)
    order = _ordered_indices(values)
    values = values[order]
    vecs = vecs[:, order]

    # Unit norm, then rotate each column so its largest component is real
    # and positive.  Exact conjugate columns stay exact conjugates.
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        col = col / np.linalg.norm(col)
        pivot = int(np.argmax(np.abs(col)))
        piv = col[pivot]
        col = col * (np.conj(piv) / abs(piv))
        vecs[:, k] = col

    cond = np.linalg.cond(vecs)
    if not np.isfinite(cond) or cond * tol > 1.0:
        raise DefectiveMatrixError(
            f"eigenvector basis has condition number {cond:.3e}, "
            f"exceeds 1/tol = {1.0 / tol:.3e}"
        )
    left = np.linalg.inv(vecs)
    return EigenSystem(values=values, right=vecs, left=left)


def solve_lyapunov(A, B):
    """Stationary covariance: the SPD solution of A S + S A^T = -B.

    Solved as a dense Kronecker system, which is exact up to the linear
    solver at these sizes.  ``A`` must be stable and ``B`` SPD.
    """
    A = _as_square(A, "A")
    B = _as_square(B, "B")
    n = A.shape[0]
    if B.shape[0] != n:
        raise DimensionMismatchError(f"A is {n}x{n} but B is {B.shape[0]}x{B.shape[0]}")
    _spd_factor(B, "B")
    lam = np.linalg.eigvals(A)
    if np.max(lam.real) >= 0.0:
        raise UnstableDriftError(
            f"drift has eigenvalue with real part {np.max(lam.real):.3e} >= 0"
        )

    eye = np.eye(n)
    K = np.kron(A, eye) + np.kron(eye, A)
    try:
        vec = np.linalg.solve(K, -B.reshape(n * n))
    except np.linalg.LinAlgError:
        raise SingularSystemError("Lyapunov system is singular") from None
    S = vec.reshape(n, n)
    return 0.5 * (S + S.T)


# Al-Mohy & Higham (2009), Table 3.1: the [m/m] Pade approximant of exp
# meets unit roundoff while the power-norm bound eta stays below theta_m.
_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 4.25,
}
# 1 / |c_(2m+1)|, the leading coefficient of the approximant's backward error
# series (Higham 2005, (2.2) and (2.6)), which the ell correction reads.
_ELL_COEFF = {
    3: 100800.0,
    5: 10059033600.0,
    7: 4487938430976000.0,
    9: 5914384781877411840000.0,
    13: 113250775606021113483283660800000000.0,
}
# b_0 .. b_m of the [m/m] Pade numerator; the denominator alternates signs.
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (
        17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0,
    ),
    13: (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
        33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
    ),
}


def expm(A, t):
    """Matrix exponential exp(t A).

    The scaling and squaring algorithm of Al-Mohy & Higham (2009), as
    ``scipy.linalg.expm`` runs it.  A diagonal t A, every 1 x 1 one
    included, gives ``np.exp`` of its diagonal.  Otherwise the Pade degree
    m in {3, 5, 7, 9, 13} and the scaling s come from the exact 1-norms of
    the unscaled powers (tA)^2, (tA)^4, ..., with the ell correction against
    overscaling, and a triangular t A keeps exact diagonals and first
    off-diagonals through the squarings (their Code Fragment 2.1).  When t A
    or its powers overflow, the result is not finite, with no warning: the
    caller reports a flow that is not finite.
    """
    A = _as_square(A, "A")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    with np.errstate(all="ignore"):
        A = t * A
        lower, upper = np.tril(A, -1).any(), np.triu(A, 1).any()
        if not (lower or upper):
            return np.diag(np.exp(np.diag(A)))
        m, s, powers = _pade_structure(A)
        if s is None:
            return np.full(A.shape, np.nan)
        U, V = _pade_uv(powers, m)
        X = np.linalg.solve(V - U, U + V)
        if s and lower != upper:
            X = _fragment_2_1(X, A, s, lower)
        else:
            for _ in range(s):
                X = X @ X
    return X if lower and upper else np.tril(X) if lower else np.triu(X)


def _eta(P, k):
    """||P||_1^(1/k) of the power P = A^k; inf when P is not finite."""
    d = np.linalg.norm(P, 1) ** (1.0 / k)
    return np.inf if np.isnan(d) else d


def _pade_structure(A):
    """Degree m and scaling s of Al-Mohy & Higham's Algorithm 6.1, with A
    and the even powers A^2, A^4, ..., A^(m-1) that its approximant reads
    (A, A^2, A^4 and A^6 for m = 13, scaled by 2^-s, 2^-2s, 2^-4s and
    2^-6s).  s is None when the bound for m = 13 is not finite: a power
    overflowed."""
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    d4, d6 = _eta(A4, 4), _eta(A6, 6)
    eta = max(d4, d6)
    for m in (3, 5):
        if eta < _THETA[m] and _ell(A, m) == 0:
            return m, 0, (A, A2, A4)[: m // 2 + 1]
    A8 = A4 @ A4
    d8 = _eta(A8, 8)
    eta = max(d6, d8)
    for m in (7, 9):
        if eta < _THETA[m] and _ell(A, m) == 0:
            return m, 0, (A, A2, A4, A6, A8)[: m // 2 + 1]
    eta = min(eta, max(d8, _eta(A4 @ A6, 10)))
    if eta == np.inf:
        return 13, None, ()
    s = max(math.ceil(np.log2(eta / _THETA[13])), 0) if eta else 0
    s += _ell(np.ldexp(A, -s), 13)
    return 13, s, tuple(np.ldexp(P, -k * s) for k, P in zip((1, 2, 4, 6), (A, A2, A4, A6)))


def _ell(A, m):
    """Al-Mohy & Higham's ell(A, m): the squarings to add so that the
    [m/m] approximant's backward error stays below u = 2^-53 however far
    |A|^(2m+1) outgrows A.  max(ceil(log2(alpha / u) / 2m), 0), with
    alpha = || |A|^(2m+1) ||_1 |c_(2m+1)| / ||A||_1.  |A| is scaled by the
    power of two 2^-e at its norm, exactly, so its powers cannot overflow."""
    frac, e = np.frexp(np.linalg.norm(A, 1))
    B = np.ldexp(np.abs(A), -e)
    v = np.ones(len(A))
    for _ in range(2 * m + 1):
        v = v @ B  # 1^T B^k, whose largest entry is ||B^k||_1
    log2_alpha_u = np.log2(v.max() / (frac * _ELL_COEFF[m])) + 2 * m * e + 53
    return math.ceil(log2_alpha_u / (2 * m)) if log2_alpha_u > 0 else 0


def _pade_uv(powers, m):
    """U and V of the [m/m] approximant (V - U)^-1 (V + U) at A = powers[0]:
    U holds the odd terms of its numerator and V the even ones.  (The
    compiled scipy.linalg.expm of scipy 1.17 adds A^6 once more to U for
    m = 13, which moves its result by up to 1e-13; this U does not.)"""
    b = _PADE[m]
    eye = np.eye(len(powers[0]))
    if m == 13:
        A, A2, A4, A6 = powers
        inner = A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        U = A @ (inner + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
        V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2
        return U, V + b[0] * eye
    evens = list(enumerate((eye,) + powers[1:]))[::-1]  # A^(m-1), ..., A^2, I
    odd = sum(b[2 * k + 1] * P for k, P in evens)
    return powers[0] @ odd, sum(b[2 * k] * P for k, P in evens)


def _fragment_2_1(X, T, s, lower):
    """Square X = r_m(2^-s T) s times for a triangular T, each time setting
    the diagonal and first off-diagonal to those of exp(2^-i T) exactly:
    Code Fragment 2.1 of Al-Mohy & Higham (2009)."""
    r = np.arange(len(T) - 1)
    rows, cols = (r + 1, r) if lower else (r, r + 1)
    diag, off = np.diag(T), T[rows, cols]
    np.fill_diagonal(X, np.exp(np.ldexp(diag, -s)))
    for i in range(s - 1, -1, -1):
        X = X @ X
        d = np.ldexp(diag, -i)
        np.fill_diagonal(X, np.exp(d))
        X[rows, cols] = _exp_sinch(d) * np.ldexp(off, -i)
    return X


def _exp_sinch(x):
    """exp's first off-diagonal over T's for a bidiagonal T with diagonal x:
    e^a sinh(b) / b at a, b the mean and half-difference of x[k], x[k+1]
    (Higham, Functions of Matrices, 2008, (10.42)).  As in scipy, a Taylor
    series of sinh(b) / b for |b| < 0.0135, where the divided difference
    (e^(a+b) - e^(a-b)) / 2b would cancel; that difference elsewhere."""
    a = 0.5 * (x[:-1] + x[1:])
    b = 0.5 * (x[:-1] - x[1:])
    near = np.abs(b) < 0.0135
    b2 = b * b
    series = np.exp(a) * (1.0 + b2 / 6.0 * (1.0 + b2 / 20.0 * (1.0 + b2 / 42.0)))
    bf = np.where(near, 1.0, b)
    return np.where(near, series, (np.exp(a + bf) - np.exp(a - bf)) / (2.0 * bf))
