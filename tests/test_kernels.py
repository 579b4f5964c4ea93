import numpy as np
import numpy.testing as npt

from ou_spectral import kernels


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
    with np.errstate(over="ignore"):
        states = kernels._mix64(
            np.uint64(99) + kernels._SALT * np.arange(1, 200001, dtype=np.uint64)
        )
        _, z = kernels._next_normal(states)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert abs(np.mean(np.abs(z) < 1.96) - 0.95) < 0.005


def test_em_paths_deterministic_and_prefix_stable():
    A = np.array([[-1.0, -2.0], [2.0, -1.0]])
    LB = np.eye(2)
    mean0 = np.array([0.3, 0.0])
    L0 = np.linalg.cholesky(0.5 * np.eye(2))
    a = kernels.em_paths(A, LB, mean0, L0, 50, 20, 0.01, 42)
    b = kernels.em_paths(A, LB, mean0, L0, 50, 20, 0.01, 42)
    npt.assert_array_equal(a, b)
    # per-path streams: a longer run reproduces the first paths bitwise
    c = kernels.em_paths(A, LB, mean0, L0, 80, 20, 0.01, 42)
    npt.assert_array_equal(c[:50], a)
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
        ("0x1.44badec4d393dp-1", "-0x1.277c6eca47171p-1"),
        ("0x1.c4ccfb9eca5cep-4", "-0x1.355aa8e7928a3p+0"),
        ("-0x1.cf5b15bbff865p-1", "0x1.c229659f64fe3p-3"),
        ("0x1.3b765a1de87abp-1", "-0x1.7674f5ba7aa68p-2"),
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
