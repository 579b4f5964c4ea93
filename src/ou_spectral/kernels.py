"""Hot numeric kernels: Euler-Maruyama stepping and polynomial grid evaluation.

Both kernels are vectorized numpy: ``em_paths`` over paths and
``eval_poly_grid`` over grid points.  Spectral propagation no longer
calls ``eval_poly_grid``: ``spectral`` evaluates every mode on the grid
by its three-term recursion.  The kernel stays as the term-array
evaluator that the tests use as a reference and that the ``perfbench``
trace binds by name.

Randomness is a counter-style splitmix64 generator: path ``p`` owns the
stream seeded from ``mix64(seed + SALT * (p + 1))``, and each normal
consumes two raw outputs through a Box-Muller cosine branch.  Per-path
draws therefore do not depend on how paths are batched, and results are
bit-reproducible for a fixed seed.
"""

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SALT = np.uint64(0xD1342543DE82EF95)
_TWO_PI = 2.0 * np.pi
_INV_2_53 = 2.0**-53


def active_backend():
    """Name of the kernel implementation, reported in run metadata."""
    return "numpy"


def _mix64(z):
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _next_normal(states):
    s1 = states + _GOLDEN
    o1 = _mix64(s1)
    s2 = s1 + _GOLDEN
    o2 = _mix64(s2)
    u1 = ((o1 >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    u2 = (o2 >> np.uint64(11)).astype(np.float64) * _INV_2_53
    return s2, np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)


def em_paths(A, LB, mean0, L0, n_paths, n_steps, dt, seed):
    """Terminal states of Euler-Maruyama paths, shape (n_paths, N).

    ``LB`` and ``L0`` are Cholesky factors of the diffusion matrix and
    the initial covariance.  Bit-reproducible for a fixed seed.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    LB = np.ascontiguousarray(LB, dtype=np.float64)
    mean0 = np.ascontiguousarray(mean0, dtype=np.float64)
    L0 = np.ascontiguousarray(L0, dtype=np.float64)
    seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    n_paths, n_steps, dt = int(n_paths), int(n_steps), float(dt)
    n = A.shape[0]
    sqdt = np.sqrt(dt)
    with np.errstate(over="ignore"):
        p = np.arange(1, n_paths + 1, dtype=np.uint64)
        states = _mix64(seed + _SALT * p)
        z = np.empty((n_paths, n), dtype=np.float64)
        for d in range(n):
            states, z[:, d] = _next_normal(states)
        x = mean0[None, :] + z @ L0.T
        for _ in range(n_steps):
            for d in range(n):
                states, z[:, d] = _next_normal(states)
            x = x + dt * (x @ A.T) + sqdt * (z @ LB.T)
    return x


def eval_poly_grid(exps, coeffs, points):
    """Evaluate a sparse polynomial (term arrays) at many points."""
    exps = np.ascontiguousarray(exps, dtype=np.int64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    points = np.ascontiguousarray(points, dtype=np.float64)
    n_pts = points.shape[0]
    if exps.shape[0] == 0:
        return np.zeros(n_pts, dtype=np.complex128)
    out = np.empty(n_pts, dtype=np.complex128)
    chunk = 4096
    for lo in range(0, n_pts, chunk):
        hi = min(lo + chunk, n_pts)
        block = points[lo:hi, None, :] ** exps[None, :, :]
        out[lo:hi] = block.prod(axis=2) @ coeffs
    return out
