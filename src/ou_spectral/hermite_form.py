"""Canonical coordinates and Hermite closed forms for eigenfunctions.

A linear change of variables x = T y with T the symmetric square root
of twice the stationary covariance makes the stationary covariance
equal to I/2.  In those coordinates both raising families decompose
over commuting per-axis Hermite raising maps, so each eigenfunction is
a finite multinomial combination of products of physicists' Hermite
polynomials, weighted by eigenvector components.  This gives a second,
independent route to the eigenfunctions that never touches the ladder
recursion.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotCanonicalError
from .ladder import OUModel, _check_multi_index, build_model, compositions
from .mpoly import MPoly, hermite_in_var, multinomial


@dataclass(frozen=True)
class CanonicalTransform:
    """Change of variables x = T y with Jacobian determinant ``jac``."""

    T: np.ndarray
    T_inv: np.ndarray
    jac: float


def canonical_transform(model):
    """Transform whose pullback sends the stationary covariance to I/2."""
    T = linalg.sym_sqrt(2.0 * model.Sigma)
    T_inv = linalg.inverse(T)
    return CanonicalTransform(T=T, T_inv=T_inv, jac=float(np.linalg.det(T)))


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


def is_canonical(model, tol=1e-9):
    half_eye = 0.5 * np.eye(model.dim)
    return float(np.max(np.abs(model.Sigma - half_eye))) <= tol


def _require_canonical(model):
    if not isinstance(model, OUModel):
        raise TypeError("expected an OUModel")
    if not is_canonical(model):
        raise NotCanonicalError(
            "model is not in canonical coordinates; use to_canonical first"
        )


_HPROD_CACHE = {}


def _hermite_product(orders, nvars, eps):
    key = (nvars, orders, eps)
    got = _HPROD_CACHE.get(key)
    if got is None:
        got = MPoly.constant(nvars, 1.0, eps)
        for axis, m in enumerate(orders):
            if m:
                got = got * hermite_in_var(m, axis, nvars, eps)
        _HPROD_CACHE[key] = got
    return got


def _hermite_sum(model, K, mode_weights):
    n = model.dim
    orders = {(0,) * n: 1.0 + 0.0j}
    for I, kI in enumerate(K):
        if kI == 0:
            continue
        v = mode_weights(I)
        contrib = {}
        for comp in compositions(kI, n):
            c = complex(multinomial(kI, comp))
            for vk, ek in zip(v, comp):
                if ek:
                    c *= vk**ek
            if c != 0.0:
                contrib[comp] = c
        merged = {}
        for oa, ca in orders.items():
            for ob, cb in contrib.items():
                key = tuple(a + b for a, b in zip(oa, ob))
                merged[key] = merged.get(key, 0.0) + ca * cb
        orders = merged
    out = MPoly.zero(n, model.prune_eps)
    for m, c in sorted(orders.items()):
        out = out + c * _hermite_product(m, n, model.prune_eps)
    return out


def forward_hermite(model, K):
    """Polynomial factor of a forward eigenfunction, via Hermite products.

    Requires a canonical model.  Multi-index semantics match the ladder
    construction exactly, term for term.
    """
    _require_canonical(model)
    K = _check_multi_index(model, K)
    return _hermite_sum(model, K, lambda I: model.eig.right[:, I])


def adjoint_hermite(model, K):
    """Adjoint eigenfunction as a Hermite combination.  Canonical only."""
    _require_canonical(model)
    K = _check_multi_index(model, K)
    return _hermite_sum(model, K, lambda I: np.conj(model.eig.left[I, :]))
