import functools
import gc
import itertools
import math
import weakref
from fractions import Fraction

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
from ou_spectral.monomials import graded_index
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


def _reference_whitened(g, pts):
    """``whitened`` as one allocating expression per step."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = g.whitener.T @ (pts - g.mean if g.mean.any() else pts).T
        q = np.einsum("ip,ip->p", z, z)
    density = np.exp(g.log_norm - 0.5 * q)
    if not np.all(np.isfinite(q)):
        density[~np.all(np.isfinite(pts), axis=1)] = np.nan
    return z, density


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("mean", [[0.0, 0.0, 0.0], [0.4, -1.1, 0.25]], ids=["zero", "shifted"])
def test_whitening_into_buffers_is_whitened(mean, bad):
    # Written into prefixes of larger buffers full of junk, the whitened
    # coordinates and density equal both allocating forms bit for bit.
    # Row 7 is the one row that is not finite and gets density NaN; its
    # entry in the first coordinate makes every z_i infinite, so |z|^2 is
    # inf, not NaN.  Row 20 is finite, its |z|^2 overflows and its density
    # is 0.
    rng = np.random.default_rng(9)
    M = rng.normal(size=(3, 3))
    g = GaussianDensity(mean=mean, cov=M @ M.T + 0.3 * np.eye(3))
    pts = rng.normal(size=(50, 3))
    pts[7, 0] = bad
    pts[20] = [1e200, -1e200, 1e200]
    z_buf, d_buf = np.full(3 * 64, 7.0), np.full(64, 7.0)
    z, density = z_buf[: 3 * 50].reshape(3, 50), d_buf[:50]
    g._whiten_into(pts, z, density)
    for want_z, want_density in (g.whitened(pts), _reference_whitened(g, pts)):
        assert np.array_equal(z, want_z, equal_nan=True)
        assert np.array_equal(density, want_density, equal_nan=True)
    assert np.isnan(density[7]) and density[20] == 0.0
    assert np.all(density[np.r_[0:7, 8:20, 21:50]] > 0.0)
    assert np.all(z_buf[3 * 50 :] == 7.0) and np.all(d_buf[50:] == 7.0)


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


@functools.cache
def _isserlis(counts, S):
    """E[y^counts] for y ~ N(0, S) by pair counting, in Fractions: one
    slot of the first variable pairs with each remaining slot."""
    if sum(counts) % 2:
        return Fraction(0)
    if not any(counts):
        return Fraction(1)
    a = next(i for i, c in enumerate(counts) if c)
    rest = counts[:a] + (counts[a] - 1,) + counts[a + 1 :]
    val = Fraction(0)
    for b, c in enumerate(rest):
        if c:
            pair = rest[:b] + (c - 1,) + rest[b + 1 :]
            val += c * S[a][b] * _isserlis(pair, S)
    return val


def _reference_moment(K, mean, S):
    """E[x^K] for x = mean + y, y ~ N(0, S): the binomial expansion of
    prod_i (mean_i + y_i)^K_i over the centered moments."""
    total = Fraction(0)
    for B in itertools.product(*(range(k + 1) for k in K)):
        term = _isserlis(B, S)
        for k, b, mu in zip(K, B, mean):
            term *= math.comb(k, b) * mu ** (k - b)
        total += term
    return total


# Dyadic means and Cholesky factors: every moment up to degree 8 and every
# step of the recursion is exact in floating point, so the two routes
# must agree exactly.
MOMENT_CASES = [
    ([Fraction(3, 4)], [[Fraction(3, 2)]]),
    ([Fraction(-1, 2), Fraction(5, 4)], [[Fraction(1), 0], [Fraction(-1, 2), Fraction(3, 4)]]),
    (
        [Fraction(1, 4), 0, Fraction(-3, 2)],
        [
            [Fraction(5, 4), 0, 0],
            [Fraction(1, 2), Fraction(1), 0],
            [Fraction(-1, 4), Fraction(3, 8), Fraction(1, 2)],
        ],
    ),
]


@pytest.mark.parametrize("mean, L", MOMENT_CASES, ids=["n1", "n2", "n3"])
def test_moments_match_isserlis_exactly(mean, L):
    n = len(mean)
    S = tuple(
        tuple(sum(L[i][k] * L[j][k] for k in range(n)) for j in range(n)) for i in range(n)
    )
    mean_f = np.array([float(m) for m in mean])
    cov_f = np.array([[float(v) for v in row] for row in S])
    got = gaussian.moments(mean_f, cov_f, 8)
    modes = graded_index(n, 8).modes
    assert got.shape == (len(modes),)
    for K, v in zip(modes, got.tolist()):
        assert v == _reference_moment(K, mean, S), K
    npt.assert_array_equal(GaussianDensity(mean_f, cov_f).moments(8), got)
    zero = [Fraction(0)] * n
    npt.assert_array_equal(
        [wick_moment(K, cov_f) for K in modes], [_reference_moment(K, zero, S) for K in modes]
    )


def test_density_moments_are_a_read_only_prefix():
    g = GaussianDensity(mean=[0.3, -0.6], cov=[[0.5, 0.1], [0.1, 0.4]])
    full = gaussian.moments(g.mean, g.cov, 7)
    low = g.moments(3)
    assert low.size == math.comb(3 + 2, 2) and not low.flags.writeable
    npt.assert_array_equal(low, full[: low.size])
    # Growth recomputes one longer vector; lower degrees read its prefix.
    high = g.moments(7)
    npt.assert_array_equal(high, full)
    assert g.moments(5).base is high.base
    assert g.moments(0).tolist() == [1.0]
    assert g.moments(-1).size == 0


def test_dropped_density_frees_its_moments():
    g = GaussianDensity(mean=[0.2], cov=[[0.7]])
    ref = weakref.ref(g.moments(6).base)
    assert ref() is not None
    del g
    gc.collect()
    assert ref() is None
    # No moment state lives at module level.
    state = [
        name
        for name, v in vars(gaussian).items()
        if not name.startswith("__") and isinstance(v, (dict, list, set, np.ndarray))
    ]
    assert not state


@pytest.mark.parametrize("case", ["nan", "inf", "-inf", "edit"])
def test_density_mean_is_a_finite_read_only_copy(case):
    cov = np.array([[0.5, 0.1], [0.1, 0.4]])
    if case != "edit":
        with pytest.raises(ValueError, match="mean"):
            GaussianDensity(mean=[float(case), 0.0], cov=cov)
        return
    mean = np.array([0.5, -0.25])
    g = GaussianDensity(mean=mean, cov=cov)
    mean[0] = 9.0
    cov[0, 0] = 9.0
    assert g.mean.tolist() == [0.5, -0.25] and g.cov[0, 0] == 0.5
    for a in (g.mean, g.cov):
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert expectation(MPoly(2, {(1, 0): 1.0}), g) == 0.5


def test_expectation_does_not_depend_on_units():
    # The mean used to enter through a pruned shift of the polynomial,
    # which dropped mean^2 = 1e-14 here and returned 1e-14.
    g = GaussianDensity(mean=[1e-7], cov=[[1e-14]])
    assert expectation(MPoly(1, {(2,): 1.0}), g) == pytest.approx(2e-14, rel=1e-15, abs=0.0)
    rng = np.random.default_rng(5)
    idx = graded_index(2, 4)
    coeffs = rng.standard_normal(len(idx.modes)) + 1j * rng.standard_normal(len(idx.modes))
    mean = np.array([0.7, -0.4])
    cov = np.array([[0.5, 0.1], [0.1, 0.3]])
    want = expectation(MPoly.from_coeffs(2, coeffs, prune_eps=0.0), GaussianDensity(mean, cov))
    for c in (1e-8, 1.0, 1e8):
        # E[p(x / c)] under the law of c x.
        scaled = MPoly.from_coeffs(2, coeffs * c ** -idx.exponents.sum(axis=1), prune_eps=0.0)
        got = expectation(scaled, GaussianDensity(c * mean, c * c * cov))
        assert abs(got - want) <= 1e-14 * abs(want), c
