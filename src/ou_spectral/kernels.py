"""Hot numeric kernels: Euler-Maruyama stepping and polynomial grid evaluation.

Both kernels are vectorized numpy: ``em_paths`` over paths and
``eval_poly_grid`` over grid points.  Spectral propagation does not call
``eval_poly_grid``: ``spectral`` evaluates the Hermite closed form of the
eigenfunctions in the whitened coordinates of f0, as real monomials
built block by block.  The kernel stays as the term-array evaluator that
the tests use as a reference and that the ``perfbench`` trace binds by
name.

Randomness is a counter-style splitmix64 generator with one stream per
path.  Path ``p`` (counting from 0) has the base state
``mix64(seed + SALT * (p + 1))``, and its raw output ``j`` (j = 1, 2, ...)
is ``mix64(base + j * GOLDEN)``.  Box-Muller pair ``k`` turns raw
``2k+1`` into the radius and raw ``2k+2`` into the angle, and gives two
standard normals, ``zeta[2k] = r cos(theta)`` and
``zeta[2k+1] = r sin(theta)``.  Draw ``s`` of a path (``s = 0`` is the
initial law, ``s = 1 .. n_steps`` the steps) uses
``zeta[s*n : s*n + n]``, so each group of two draws takes exactly ``n``
pairs.  The cosine and sine come from a 1024-entry table indexed by the
top 10 of the angle's 53 bits, corrected by Taylor terms of degree 6
and 5 in the angle left by the low 43 bits.  A path's draws therefore do
not depend on how paths are batched, and results are bit-reproducible
for a fixed seed.

``em_paths`` steps ``PATH_CHUNK`` paths at a time through every step, so
its working set stays in cache and its transient memory does not grow
with the number of paths.
"""

import math

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SALT = np.uint64(0xD1342543DE82EF95)
_TWO_PI = 2.0 * np.pi
_INV_2_53 = 2.0**-53

PATH_CHUNK = 4096

# An angle is 2*pi*a/2^53 for a 53-bit integer a.  Its top 10 bits pick
# the table entry; its low 43 bits give the rest, an angle below 2*pi/1024.
# libm builds the table, so its entries do not depend on which SIMD loop
# numpy dispatches to on the running CPU.
_TABLE_BITS = 10
_TABLE_SIZE = 1 << _TABLE_BITS
_FINE_BITS = np.uint64(53 - _TABLE_BITS)
_FINE_MASK = np.uint64((1 << (53 - _TABLE_BITS)) - 1)
_COS_TABLE = np.array([math.cos(_TWO_PI * k / _TABLE_SIZE) for k in range(_TABLE_SIZE)])
_SIN_TABLE = np.array([math.sin(_TWO_PI * k / _TABLE_SIZE) for k in range(_TABLE_SIZE)])


def active_backend():
    """Name of the kernel implementation, reported in run metadata."""
    return "numpy"


def _mix64_inplace(z, tmp):
    """The splitmix64 finalizer, in place on the uint64 array ``z``."""
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def _mix64(z):
    """The splitmix64 finalizer of a uint64 scalar or array."""
    z = np.array(z, dtype=np.uint64)
    _mix64_inplace(z, np.empty_like(z))
    return z[()]


def _cos_sin(a, cos, sin, bits, work):
    """Cosine and sine of the angles 2*pi*a/2^53, for 53-bit integers ``a``.

    Writes them into ``cos`` and ``sin``.  ``bits`` (uint64, a's shape)
    and ``work`` (float64, shape ``(4,) + a.shape``) are scratch.
    """
    d, d2, h, e = work
    np.bitwise_and(a, _FINE_MASK, out=bits)
    np.multiply(bits, _TWO_PI * _INV_2_53, out=d)
    np.right_shift(a, _FINE_BITS, out=bits)
    index = bits.view(np.int64)
    np.take(_COS_TABLE, index, out=cos, mode="clip")
    np.take(_SIN_TABLE, index, out=sin, mode="clip")
    np.multiply(d, d, out=d2)
    # h = 1 - cos d = d2 (1/2 - d2 (1/24 - d2/720))
    np.multiply(d2, -1.0 / 720.0, out=h)
    h += 1.0 / 24.0
    h *= d2
    np.subtract(0.5, h, out=h)
    h *= d2
    # d <- sin d = d (1 - d2 (1/6 - d2/120))
    np.multiply(d2, -1.0 / 120.0, out=e)
    e += 1.0 / 6.0
    e *= d2
    np.subtract(1.0, e, out=e)
    d *= e
    # cos(t + d) = cos t - (h cos t + sin d sin t)
    # sin(t + d) = sin t - (h sin t - sin d cos t)
    np.multiply(cos, h, out=e)
    np.multiply(sin, d, out=d2)
    e += d2
    np.multiply(sin, h, out=d2)
    np.multiply(cos, d, out=h)
    d2 -= h
    cos -= e
    sin -= d2


def _pair_groups(first, P, n, seed):
    """Box-Muller pairs of paths ``first .. first + P - 1``, n at a time.

    Each group is a (2n, P) array: row ``2i`` holds the cosine output of
    the group's pair ``i``, row ``2i + 1`` its sine output.  Every group is
    written into the same arrays, so no operation allocates: with fresh
    temporaries of this size a group took more than twice as long.
    """
    p = np.arange(first + 1, first + P + 1, dtype=np.uint64)
    base = _mix64(seed + _SALT * p)
    # Raws 2i+1 (radius, row 0) and 2i+2 (angle, row 1) of pair i.
    raw_index = np.arange(1, 2 * n + 1, dtype=np.uint64).reshape(n, 2).T
    raw = np.empty((2, n, P), dtype=np.uint64)
    tmp = np.empty((2, n, P), dtype=np.uint64)
    r, cos, sin = np.empty((3, n, P))
    work = np.empty((4, n, P))
    zeta = np.empty((2 * n, P))
    group = 0
    while True:
        offsets = (raw_index + np.uint64(2 * n * group)) * _GOLDEN
        np.add(base, offsets[:, :, None], out=raw)
        _mix64_inplace(raw, tmp)
        raw >>= np.uint64(11)
        # r = sqrt(-2 log u1) with u1 = (raw + 1) / 2^53 in (0, 1]
        np.multiply(raw[0], _INV_2_53, out=r)
        r += _INV_2_53
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        _cos_sin(raw[1], cos, sin, tmp[0], work)
        np.multiply(r, cos, out=zeta[0::2])
        np.multiply(r, sin, out=zeta[1::2])
        yield zeta
        group += 1


def _combine(out, tmp, cols, rows):
    """out = sum_k cols[k] * rows[k], each an (n, 1) column times a path row.

    Elementwise, so each path's result does not depend on the block width.
    """
    np.multiply(cols[0], rows[0], out=out)
    for col, row in zip(cols[1:], rows[1:]):
        np.multiply(col, row, out=tmp)
        out += tmp


def _em_block(first, P, seed, mean0, L0, step_x, step_z, n_steps):
    """Terminal states, shape (n, P), of paths ``first .. first + P - 1``."""
    n = mean0.shape[0]
    groups = _pair_groups(first, P, n, seed)
    x, x_next, tmp = np.empty((3, n, P))
    # The columns of each matrix, as (n, 1) arrays.
    cols_0 = list(L0.T[:, :, None])
    cols = list(step_x.T[:, :, None]) + list(step_z.T[:, :, None])
    zeta = next(groups)
    _combine(x, tmp, cols_0, zeta[:n])
    x += mean0[:, None]
    for s in range(1, n_steps + 1):
        if s % 2 == 0:
            zeta = next(groups)
        z = zeta[n:] if s % 2 else zeta[:n]
        _combine(x_next, tmp, cols, [*x, *z])
        x, x_next = x_next, x
    return x


def em_paths(A, LB, mean0, L0, n_paths, n_steps, dt, seed, first=0):
    """Terminal states of Euler-Maruyama paths, shape (n_paths, N).

    ``LB`` and ``L0`` are Cholesky factors of the diffusion matrix and
    the initial covariance.  Each step is x <- (I + dt A) x + (sqrt(dt) LB) z.
    Row ``i`` is path ``first + i``; every path has its own stream, so
    the rows equal those of one call that starts at path 0.
    Bit-reproducible for a fixed seed.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    LB = np.ascontiguousarray(LB, dtype=np.float64)
    mean0 = np.ascontiguousarray(mean0, dtype=np.float64)
    L0 = np.ascontiguousarray(L0, dtype=np.float64)
    seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    n_paths, n_steps, dt, first = int(n_paths), int(n_steps), float(dt), int(first)
    n = A.shape[0]
    step_x = np.eye(n) + dt * A
    step_z = np.sqrt(dt) * LB
    out = np.empty((n_paths, n), dtype=np.float64)
    with np.errstate(over="ignore"):
        for lo in range(0, n_paths, PATH_CHUNK):
            P = min(PATH_CHUNK, n_paths - lo)
            out[lo : lo + P] = _em_block(
                first + lo, P, seed, mean0, L0, step_x, step_z, n_steps
            ).T
    return out


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
