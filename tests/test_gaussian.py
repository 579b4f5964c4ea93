import numpy as np
import numpy.testing as npt
import pytest
import scipy.integrate
import scipy.stats

from ou_spectral import errors, gaussian
from ou_spectral.gaussian import (
    ForwardFunction,
    GaussianDensity,
    expectation,
    inner_product,
    stationary_density,
    wick_moment,
)
from ou_spectral.mpoly import MPoly


def test_univariate_even_moments():
    # E[x^{2k}] = (2k-1)!! sigma^{2k}
    s2 = 0.7
    S = np.array([[s2]])
    assert wick_moment((0,), S) == 1.0
    assert wick_moment((2,), S) == pytest.approx(s2)
    assert wick_moment((4,), S) == pytest.approx(3 * s2**2)
    assert wick_moment((6,), S) == pytest.approx(15 * s2**3)
    assert wick_moment((8,), S) == pytest.approx(105 * s2**4)
    assert wick_moment((10,), S) == pytest.approx(945 * s2**5)


def test_odd_moments_vanish():
    S = np.array([[0.3, 0.1], [0.1, 0.5]])
    assert wick_moment((1, 0), S) == 0.0
    assert wick_moment((2, 1), S) == 0.0
    assert wick_moment((3, 2), S) == 0.0


def test_bivariate_moments_by_hand():
    # Hand-expanded pairings for low cross moments
    sxx, sxy, syy = 0.6, 0.2, 0.9
    S = np.array([[sxx, sxy], [sxy, syy]])
    assert wick_moment((1, 1), S) == pytest.approx(sxy)
    assert wick_moment((2, 2), S) == pytest.approx(sxx * syy + 2 * sxy**2)
    assert wick_moment((3, 1), S) == pytest.approx(3 * sxx * sxy)
    assert wick_moment((4, 0), S) == pytest.approx(3 * sxx**2)


def test_moment_against_quadrature():
    # Independent route: numeric integration of x^6 times the density
    s2 = 0.55
    val = wick_moment((6,), np.array([[s2]]))
    num, _ = scipy.integrate.quad(
        lambda x: x**6 * scipy.stats.norm.pdf(x, scale=np.sqrt(s2)), -12, 12
    )
    npt.assert_allclose(val, num, rtol=1e-9)


def test_moment_memoization_stable():
    S = np.array([[0.4, 0.1], [0.1, 0.3]])
    a = wick_moment((4, 2), S)
    b = wick_moment((4, 2), S)
    assert a == b


def test_moment_validation():
    with pytest.raises(errors.NotSPDError):
        wick_moment((2,), np.array([[-1.0]]))
    with pytest.raises(errors.DimensionMismatchError):
        wick_moment((2, 2), np.array([[1.0]]))
    with pytest.raises(ValueError):
        wick_moment((-2,), np.array([[1.0]]))


def test_expectation_with_mean_shift():
    # E[x] = m, E[x^2] = m^2 + s2, E[x^3] = m^3 + 3 m s2
    m, s2 = 0.8, 0.5
    g = GaussianDensity(mean=[m], cov=[[s2]])
    assert expectation(MPoly(1, {(1,): 1.0}), g) == pytest.approx(m)
    assert expectation(MPoly(1, {(2,): 1.0}), g) == pytest.approx(m**2 + s2)
    assert expectation(MPoly(1, {(3,): 1.0}), g) == pytest.approx(m**3 + 3 * m * s2)


def test_expectation_complex_linear():
    g = GaussianDensity(mean=[0.5, -0.25], cov=0.3 * np.eye(2))
    p = MPoly(2, {(1, 0): 1j, (0, 1): 2.0})
    assert expectation(p, g) == pytest.approx(0.5j - 0.5)


def test_expectation_quadrature_cross_check():
    g = GaussianDensity(mean=[0.4], cov=[[0.6]])
    p = MPoly(1, {(4,): 1.0, (3,): -2.0, (1,): 0.5, (0,): 1.0})
    want, _ = scipy.integrate.quad(
        lambda x: (x**4 - 2 * x**3 + 0.5 * x + 1)
        * scipy.stats.norm.pdf(x, loc=0.4, scale=np.sqrt(0.6)),
        -14,
        14,
    )
    npt.assert_allclose(expectation(p, g), want, rtol=1e-9)


def test_density_pdf_matches_scipy():
    g = GaussianDensity(mean=[0.3], cov=[[0.8]])
    for x in (-1.0, 0.0, 0.7):
        npt.assert_allclose(
            g.pdf([x]), scipy.stats.norm.pdf(x, loc=0.3, scale=np.sqrt(0.8))
        )


def test_density_pdf_grid_matches_pointwise():
    rng = np.random.default_rng(3)
    cov = np.array([[0.5, 0.1], [0.1, 0.4]])
    g = GaussianDensity(mean=[0.1, -0.2], cov=cov)
    pts = rng.normal(size=(40, 2))
    grid = g.pdf_grid(pts)
    for k in range(40):
        npt.assert_allclose(grid[k], g.pdf(pts[k]), rtol=1e-12)


def test_density_normalization_numeric():
    g = GaussianDensity(mean=[0.0], cov=[[0.5]])
    xs = np.linspace(-8, 8, 4001).reshape(-1, 1)
    total = np.trapezoid(g.pdf_grid(xs), xs[:, 0])
    npt.assert_allclose(total, 1.0, atol=1e-10)


def test_stationary_density_zero_mean():
    g = stationary_density([[0.5]])
    assert g.mean[0] == 0.0
    assert g.cov[0, 0] == 0.5


def test_density_validation():
    with pytest.raises(errors.NotSPDError):
        GaussianDensity(mean=[0.0], cov=[[-0.5]])
    with pytest.raises(errors.NotSPDError):
        GaussianDensity(mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(errors.DimensionMismatchError):
        GaussianDensity(mean=[0.0, 0.0], cov=[[1.0]])
    g = GaussianDensity(mean=[0.0], cov=[[1.0]])
    with pytest.raises(errors.DimensionMismatchError):
        g.pdf([0.0, 0.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_density_rejects_non_finite_points(bad):
    g = GaussianDensity(mean=[0.1, -0.2], cov=[[0.5, 0.1], [0.1, 0.4]])
    pts = np.zeros((5, 2))
    pts[3, 1] = bad
    with pytest.raises(ValueError, match="row 3"):
        g.pdf_grid(pts)
    with pytest.raises(ValueError, match="finite"):
        g.pdf([bad, 0.0])


def test_density_far_finite_point_is_zero():
    # |z|^2 overflows to inf: the density underflows to 0, not an error.
    g = GaussianDensity(mean=[0.0, 0.0], cov=[[0.5, 0.1], [0.1, 0.4]])
    out = g.pdf_grid([[1e200, -1e200], [0.0, 0.0]])
    assert out[0] == 0.0 and out[1] > 0.0


def test_density_pdf_grid_is_the_whitened_form():
    # pdf_grid is exp(log_norm - |z|^2 / 2) with z = (x - mean) L^-T,
    # cov = L L^T; the quadratic form through inv(cov) agrees to round-off.
    rng = np.random.default_rng(4)
    M = rng.normal(size=(3, 3))
    cov = M @ M.T + 0.3 * np.eye(3)
    g = GaussianDensity(mean=rng.normal(size=3), cov=cov)
    pts = rng.normal(size=(50, 3))
    L = np.linalg.cholesky(cov)
    npt.assert_allclose(g.whitener, np.linalg.inv(L).T, rtol=1e-14, atol=1e-14)
    d = pts - g.mean
    q = np.einsum("pi,ij,pj->p", d, np.linalg.inv(cov), d)
    npt.assert_allclose(g.pdf_grid(pts), np.exp(g.log_norm - 0.5 * q), rtol=1e-13)


def test_forward_function_value():
    g = GaussianDensity(mean=[0.0], cov=[[0.5]])
    f = ForwardFunction(MPoly(1, {(2,): 4.0, (0,): -2.0}), g)
    x = 0.6
    assert f.value([x]) == pytest.approx((4 * x**2 - 2) * g.pdf([x]))
    with pytest.raises(errors.DimensionMismatchError):
        ForwardFunction(MPoly(2, {(1, 0): 1.0}), g)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_density_and_forward_function_compare_by_identity(n):
    # A field-wise __eq__ compares the mean and cov arrays as tuple members,
    # which raises for n >= 2; equality and hashing are by identity.
    a = GaussianDensity(mean=np.zeros(n), cov=np.eye(n))
    b = GaussianDensity(mean=np.zeros(n), cov=np.eye(n))
    fa = ForwardFunction(MPoly.constant(n, 1.0), a)
    fb = ForwardFunction(MPoly.constant(n, 1.0), a)
    assert a == a and a != b
    assert fa == fa and fa != fb
    assert len({a, b, fa, fb}) == 4


def test_inner_product_conjugates_first_argument():
    g0 = GaussianDensity(mean=[0.0], cov=[[0.5]])
    f = ForwardFunction(MPoly(1, {(2,): 1.0}), g0)
    gp = MPoly(1, {(2,): 1j})
    # <g, f> integrates conj(g) * poly against the base Gaussian
    want = expectation(gp.conj() * f.poly, g0)
    assert inner_product(gp, f) == pytest.approx(want)
    assert inner_product(gp, f).imag == pytest.approx(-0.75)


def test_expectation_type_checks():
    g = GaussianDensity(mean=[0.0], cov=[[1.0]])
    with pytest.raises(TypeError):
        expectation("not a poly", g)
    with pytest.raises(errors.DimensionMismatchError):
        expectation(MPoly(2, {(1, 1): 1.0}), g)


def test_moment_cache_is_bounded_and_exact_after_eviction():
    gaussian._MOMENT_CACHE.clear()
    size = gaussian.MOMENT_CACHE_SIZE

    def cov(k):
        s = 1.0 + k / 64.0
        return np.array([[s, 0.25], [0.25, s]])

    def want(k):
        s = cov(k)[0, 0]
        # Isserlis: E[x^2 y^2] = s^2 + 2 r^2 with off-diagonal entry r.
        return s * s + 2.0 * 0.25 * 0.25

    first = wick_moment((2, 2), cov(0))
    assert first == want(0)
    for k in range(1, size + 50):
        assert wick_moment((2, 2), cov(k)) == pytest.approx(want(k), rel=1e-15)
        # Keep the first table in use: least-recently-used eviction spares it.
        wick_moment((4, 0), cov(0))
        assert len(gaussian._MOMENT_CACHE) <= size
    assert len(gaussian._MOMENT_CACHE) == size
    assert cov(0).tobytes() in gaussian._MOMENT_CACHE
    assert cov(1).tobytes() not in gaussian._MOMENT_CACHE
    # An evicted covariance is recomputed from scratch, with the same value.
    assert wick_moment((2, 2), cov(1)) == pytest.approx(want(1), rel=1e-15)
    x2y2 = MPoly(2, {(2, 2): 1.0})
    for k in range(size + 10):
        g = GaussianDensity(mean=[0.0, 0.0], cov=cov(k))
        assert expectation(x2y2, g) == pytest.approx(want(k), rel=1e-15)
        assert len(gaussian._MOMENT_CACHE) <= size


def test_expectation_and_wick_moment_share_memo_tables():
    g = GaussianDensity(mean=[0.0], cov=[[2.0]])
    p = MPoly(1, {(2,): 1.0, (4,): 1.0})
    assert expectation(p, g) == pytest.approx(2.0 + 12.0)
    # A table cached by expectation is the one wick_moment reads.
    key = np.array([[2.0]]).tobytes()
    assert gaussian._MOMENT_CACHE[key][(4,)] == 12.0
    assert wick_moment((4,), [[2.0]]) == 12.0
