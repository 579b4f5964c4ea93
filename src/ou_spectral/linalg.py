"""Dense linear algebra for small drift and diffusion matrices.

Everything here operates on plain numpy arrays at desk scale (N up to a
few dozen).  The one piece with real policy content is
``biorthogonal_eig``: it fixes a deterministic ordering and phase for the
eigenvectors so that downstream mode labels are reproducible across runs
and platforms.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DefectiveMatrixError,
    NotSPDError,
    NotSquareError,
    SingularSystemError,
    UnstableDriftError,
)

# Default defectiveness threshold, also ``build_model``'s stability margin.
DEFAULT_DEFECT_TOL = 1e-9


def _as_square(M, name="matrix"):
    out = np.asarray(M, dtype=float)
    if out.ndim != 2 or out.shape[0] != out.shape[1] or out.shape[0] == 0:
        raise NotSquareError(f"{name} must be square, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must have finite entries")
    return out.copy()


def _check_symmetric(S, name="matrix"):
    scale = max(1.0, float(np.max(np.abs(S))))
    if np.max(np.abs(S - S.T)) > 1e-12 * scale:
        raise NotSPDError(f"{name} is not symmetric")


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
    # Primary order: descending real part, then descending imaginary part.
    # Conjugate partners are then forced adjacent (positive imaginary first)
    # so pair structure survives even when distinct pairs share a real part.
    primary = sorted(range(len(values)), key=lambda i: (-values[i].real, -values[i].imag))
    out = []
    used = set()
    for i in primary:
        if i in used:
            continue
        used.add(i)
        out.append(i)
        if values[i].imag != 0.0:
            target = np.conj(values[i])
            best = None
            best_dist = np.inf
            for j in primary:
                if j in used:
                    continue
                d = abs(values[j] - target)
                if d < best_dist:
                    best = j
                    best_dist = d
            if best is not None and best_dist <= 1e-9 * max(1.0, abs(values[i])):
                used.add(best)
                out.append(best)
    return out


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
        raise NotSquareError("A and B must have the same dimension")
    _check_symmetric(B, "B")
    try:
        np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        raise NotSPDError("B is not positive definite") from None
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
    return scipy.linalg.expm(t * A)
