"""Dense linear algebra for small drift and diffusion matrices.

Everything here operates on plain numpy arrays at desk scale (N up to a
few dozen).  ``_spd_factor`` is the one check and Cholesky factoring of a
symmetric positive-definite matrix (B, Sigma, every covariance), unit-free.
``biorthogonal_eig`` fixes a deterministic ordering and phase for the
eigenvectors so that downstream mode labels are reproducible across runs
and platforms.  The order is one sort of LAPACK's units for a real matrix,
each a real eigenvalue or an adjacent conjugate pair (positive imaginary
part first), by descending real part, then imaginary part, of the first.
"""

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


def expm(A, t):
    """Matrix exponential exp(t A).

    scipy is imported here, its only use, so that importing the package
    does not load it.
    """
    import scipy.linalg

    A = _as_square(A, "A")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    # t A may overflow; the caller reports a flow that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        tA = t * A
    return scipy.linalg.expm(tA)
