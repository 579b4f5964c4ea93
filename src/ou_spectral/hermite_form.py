"""Canonical coordinates and Hermite closed forms for eigenfunctions.

A linear change of variables x = T y with T = sqrt(2) L, L the Cholesky
factor of the stationary covariance Sigma = L L^T that whitens f0, makes
the stationary covariance equal to I/2.  So y = z / sqrt(2) in the
whitened coordinates z = L^-1 x of f0, the frame in which ``spectral``
evaluates on grids.  In those coordinates both raising families decompose
over commuting per-axis Hermite raising maps, so each eigenfunction is
a finite multinomial combination of products of physicists' Hermite
polynomials, weighted by eigenvector components.  This gives a second,
independent route to the eigenfunctions that never touches the ladder
recursion.

The closed forms of the eigenfunctions on one side up to one order are
the rows of one table (``mpoly.hermite_products``): the power table of
the eigenvectors in y, whose row K expands prod_I (v_I . u)^{K_I}, times
the Hermite map that sends the monomial u^a to prod_i H_{a_i}(y_i).  The
model keeps one table per side, at the highest order read so far, and a
lower order reads its leading block; nothing is cached at module level.
The public closed forms here, ``verify`` and grid evaluation all read it
through the ladder's readers, ``_eigenfunctions`` and ``_eigenfunction``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotCanonicalError
from .ladder import OUModel, _eigenfunction, build_model
from .mpoly import hermite_products


@dataclass(frozen=True)
class CanonicalTransform:
    """Change of variables x = T y."""

    T: np.ndarray
    T_inv: np.ndarray


def canonical_transform(model):
    """Transform whose pullback sends the stationary covariance to I/2:
    T = sqrt(2) L and T^-1 = W^T / sqrt(2) for f0's Cholesky factor L
    (``GaussianDensity.factor``) and whitener W = L^-T."""
    T = np.sqrt(2.0) * model.f0.factor
    T_inv = model.f0.whitener.T / np.sqrt(2.0)
    return CanonicalTransform(T=T, T_inv=T_inv)


def to_canonical(model):
    """Rebuild the model in canonical coordinates.

    Returns the transformed model and the transform used.  Eigenvalues
    are unchanged; eigenvectors pick up the coordinate change.
    """
    tr = canonical_transform(model)
    A_c = tr.T_inv @ model.A @ tr.T
    B_c = tr.T_inv @ model.B @ tr.T_inv.T
    B_c = 0.5 * (B_c + B_c.T)
    model_c = build_model(A_c, B_c, tol=model.tol, prune_eps=model.prune_eps)
    return model_c, tr


# Largest entry of Sigma - I/2 in a model that counts as canonical.
CANONICAL_TOL = 1e-9


def is_canonical(model):
    half_eye = 0.5 * np.eye(model.dim)
    return float(np.max(np.abs(model.Sigma - half_eye))) <= CANONICAL_TOL


def _require_canonical(model):
    if not isinstance(model, OUModel):
        raise TypeError("expected an OUModel")
    if not is_canonical(model):
        raise NotCanonicalError(
            "model is not in canonical coordinates; use to_canonical first"
        )


def _hermite_table(model, side, degree):
    """(table,): row K holds the Hermite closed form of eigenfunction K
    on ``side``, for every K up to order ``degree``, in the coordinates
    y = T^-1 x of f0 (``canonical_transform``): the ``hermite_products``
    of the eigenvectors there, the rows of (T^-1 E)^T or conj(W) T.
    """
    tr = canonical_transform(model)
    V = (tr.T_inv @ model.eig.right).T if side == "forward" else np.conj(model.eig.left) @ tr.T
    table = hermite_products(V, degree)
    table.setflags(write=False)
    return (table,)


def forward_hermite(model, K):
    """Polynomial factor of a forward eigenfunction, via Hermite products.

    Requires a canonical model.  Multi-index semantics match the ladder
    construction exactly, term for term.
    """
    _require_canonical(model)
    return _eigenfunction(model, "forward", K, _hermite_table)


def adjoint_hermite(model, K):
    """Adjoint eigenfunction as a Hermite combination.  Canonical only."""
    _require_canonical(model)
    return _eigenfunction(model, "adjoint", K, _hermite_table)
