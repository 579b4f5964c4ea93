import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from ou_spectral import kernels

from conftest import A_3D, A_SPIRAL, B_3D


def test_splitmix_finalizer_reference_value():
    # First output of the reference stream seeded at 0: the finalizer
    # applied to the golden-ratio increment.
    with np.errstate(over="ignore"):
        out = kernels._mix64(np.uint64(0x9E3779B97F4A7C15))
    assert int(out) == 0xE220A8397B1DCDAF


def test_splitmix_sequence_reference_values():
    # Next two outputs of the same stream
    s = np.uint64(0)
    outs = []
    with np.errstate(over="ignore"):
        for _ in range(3):
            s = s + kernels._GOLDEN
            outs.append(int(kernels._mix64(s)))
    assert outs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_normals_are_standard():
    zeta = next(kernels._pair_groups(0, 200000, 1, np.uint64(99)))
    for z in zeta:  # the cosine output, then the sine output
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        assert abs(np.mean(np.abs(z) < 1.96) - 0.95) < 0.005
    assert abs(np.corrcoef(zeta)[0, 1]) <= 0.01


def test_em_paths_deterministic_and_prefix_stable():
    A = np.array([[-1.0, -2.0], [2.0, -1.0]])
    LB = np.eye(2)
    mean0 = np.array([0.3, 0.0])
    L0 = np.linalg.cholesky(0.5 * np.eye(2))
    a = kernels.em_paths(A, LB, mean0, L0, 50, 20, 0.01, 42)
    b = kernels.em_paths(A, LB, mean0, L0, 50, 20, 0.01, 42)
    npt.assert_array_equal(a, b)
    # per-path streams: a longer run reproduces the first paths bitwise,
    # across the boundaries of the path blocks too
    c = kernels.em_paths(A, LB, mean0, L0, 9000, 20, 0.01, 42)
    npt.assert_array_equal(c[:50], a)
    for n_paths in (4095, 4096, 4097):
        part = kernels.em_paths(A, LB, mean0, L0, n_paths, 20, 0.01, 42)
        npt.assert_array_equal(c[:n_paths], part)
    d = kernels.em_paths(A, LB, mean0, L0, 50, 20, 0.01, 43)
    assert np.max(np.abs(d - a)) > 1e-3


def test_kernel_outputs_match_reference_values():
    # Bit-exact reference outputs: any change to the random stream or to
    # the order of the arithmetic shows here.
    A = np.array([[-1.0, -2.0], [2.0, -1.0]])
    LB = np.eye(2)
    mean0 = np.array([0.3, 0.0])
    L0 = np.linalg.cholesky(0.5 * np.eye(2))
    paths = kernels.em_paths(A, LB, mean0, L0, 4, 10, 0.01, 42)
    want_paths = [
        ("0x1.a47921791beabp-2", "-0x1.024826a0670f3p-1"),
        ("-0x1.6c487a45ec982p-1", "0x1.a8735481b285fp+0"),
        ("-0x1.e90f6f5fe2b16p-1", "0x1.941afb098c2c4p-4"),
        ("0x1.a1811afe85a21p-2", "-0x1.b3f9764413fc8p-2"),
    ]
    assert [tuple(v.hex() for v in row) for row in paths] == want_paths

    exps = np.array([[0, 0], [1, 0], [2, 1], [0, 3]])
    coeffs = np.array([1.0, 0.5 - 0.25j, -1.5, 0.125j])
    pts = np.array([[0.3, -1.2], [1.7, 0.4], [-0.9, 2.5]])
    vals = kernels.eval_poly_grid(exps, coeffs, pts)
    want_vals = [
        ("0x1.4fdf3b645a1cap+0", "-0x1.29fbe76c8b439p-2"),
        ("0x1.db22d0e560420p-4", "-0x1.ab020c49ba5e3p-2"),
        ("-0x1.3e66666666668p+1", "0x1.16ccccccccccdp+1"),
    ]
    assert [(v.real.hex(), v.imag.hex()) for v in vals] == want_vals


def _model(n):
    A = {1: np.array([[-0.7]]), 2: A_SPIRAL, 3: A_3D}[n]
    B = {1: np.array([[1.3]]), 2: np.array([[1.0, 0.3], [0.3, 0.5]]), 3: B_3D}[n]
    mean0 = np.linspace(0.3, -0.2, n)
    cov0 = 0.5 * np.eye(n) + 0.1
    return A, np.linalg.cholesky(B), mean0, np.linalg.cholesky(cov0)


def _reference_zeta(seed, p, count):
    """The first ``count`` normals of path ``p``, one Box-Muller pair at a time."""
    mask = (1 << 64) - 1
    golden, salt = int(kernels._GOLDEN), int(kernels._SALT)

    def mix(z):
        return int(kernels._mix64(np.uint64(z & mask)))

    zeta = []
    base = mix(seed + salt * (p + 1))
    for k in range((count + 1) // 2):
        radius = mix(base + (2 * k + 1) * golden) >> 11
        angle = mix(base + (2 * k + 2) * golden) >> 11
        r = math.sqrt(-2.0 * math.log((radius + 1) * 2.0**-53))
        theta = 2.0 * math.pi * (angle * 2.0**-53)
        zeta += [r * np.cos(theta), r * np.sin(theta)]
    return zeta[:count]


def _reference_path(A, LB, mean0, L0, p, n_steps, dt, seed):
    """Path ``p`` stepped one draw at a time: draw s uses zeta[s*n : s*n + n]."""
    n = len(mean0)
    zeta = _reference_zeta(seed, p, n * (n_steps + 1))
    x = [mean0[i] + sum(L0[i, k] * zeta[k] for k in range(n)) for i in range(n)]
    for s in range(1, n_steps + 1):
        z = zeta[s * n : s * n + n]
        x = [
            x[i]
            + dt * sum(A[i, k] * x[k] for k in range(n))
            + math.sqrt(dt) * sum(LB[i, k] * z[k] for k in range(n))
            for i in range(n)
        ]
    return x


@pytest.mark.parametrize("n", [1, 2, 3])
def test_em_paths_match_scalar_reference(n):
    # Paths in the first block, at both sides of the first block boundary
    # and in the third block.
    A, LB, mean0, L0 = _model(n)
    seed = 20261018
    for n_steps in (1, 2, 7):
        X = kernels.em_paths(A, LB, mean0, L0, 9001, n_steps, 0.01, seed)
        for p in (1, 4096, 4097, 9000):
            want = _reference_path(A, LB, mean0, L0, p, n_steps, 0.01, seed)
            npt.assert_allclose(X[p], want, rtol=0, atol=1e-13)


def test_table_cos_sin_matches_libm():
    rng = np.random.default_rng(11)
    k = np.arange(1024, dtype=np.uint64)
    fine = np.uint64(1 << 43)
    a = np.concatenate(
        [
            rng.integers(0, 1 << 53, size=1_000_000, dtype=np.uint64),
            k * fine,  # each table entry's own angle
            (k + np.uint64(1)) * fine - np.uint64(1),  # the last angle before the next
        ]
    )
    cos, sin = np.empty(a.shape), np.empty(a.shape)
    kernels._cos_sin(a, cos, sin, np.empty_like(a), np.empty((4,) + a.shape))
    theta = 2.0 * np.pi * (a * 2.0**-53)
    assert np.max(np.abs(cos - np.cos(theta))) <= 1e-15
    assert np.max(np.abs(sin - np.sin(theta))) <= 1e-15
    assert np.max(np.abs(cos * cos + sin * sin - 1.0)) <= 1e-15


def test_em_paths_transient_memory_does_not_grow_with_paths():
    A, LB, mean0, L0 = _model(2)
    transient = []
    tracemalloc.start()
    try:
        # A first call fills numpy's caches of small blocks, which stay.
        kernels.em_paths(A, LB, mean0, L0, 200000, 3, 0.01, 5)
        for n_paths in (20000, 200000):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            X = kernels.em_paths(A, LB, mean0, L0, n_paths, 3, 0.01, 5)
            transient.append(tracemalloc.get_traced_memory()[1] - before - X.nbytes)
            del X
    finally:
        tracemalloc.stop()
    # Equal up to a few small Python objects alive at the peak; the old
    # whole-array kernel grew by about 100 B per path, 18 MB here.
    assert abs(transient[1] - transient[0]) <= 1024
    assert max(transient) <= 2 * 2**20


def test_eval_poly_grid_matches_direct():
    rng = np.random.default_rng(2)
    exps = rng.integers(0, 5, size=(12, 3)).astype(np.int64)
    coeffs = rng.normal(size=12) + 1j * rng.normal(size=12)
    pts = rng.normal(size=(30, 3))
    direct = np.array(
        [sum(c * np.prod(p**e) for e, c in zip(exps, coeffs)) for p in pts]
    )
    got = kernels.eval_poly_grid(exps, coeffs, pts)
    npt.assert_allclose(got, direct, atol=1e-10)


def test_eval_poly_grid_empty():
    out = kernels.eval_poly_grid(
        np.zeros((0, 2), dtype=np.int64),
        np.zeros(0, dtype=np.complex128),
        np.zeros((5, 2)),
    )
    npt.assert_array_equal(out, np.zeros(5, dtype=np.complex128))
