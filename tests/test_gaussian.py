import functools
import gc
import itertools
import math
import re
import weakref
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
import scipy.integrate
import scipy.stats

from ou_spectral import errors, gaussian, ladder
from ou_spectral.gaussian import (
    GRID_CHUNK,
    ForwardFunction,
    GaussianDensity,
    expectation,
    inner_product,
    stationary_density,
    wick_moment,
)
from ou_spectral.monomials import graded_index, parent
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
    # Read by int(), (0.5, 0.5) gave E[1] = 1, (1.9, 0) gave E[x_1] = 0
    # and ("2", 0) gave E[x_1^2]; ``MPoly`` reads the exponents.
    for exponents in ((0.5, 0.5), (1.9, 0), ("2", 0)):
        with pytest.raises(TypeError):
            wick_moment(exponents, np.eye(2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wick_moment_reads_its_entry_of_the_moment_vector(n):
    # The expectation of one monomial reads the entry of the density's
    # moment vector bit for bit on every mode up to order 8, but for the
    # sign of an exact zero, which the dot product of ``expectation`` reads
    # as 0.0 where the recursion gave -0.0.
    rng = np.random.default_rng(4700 + n)
    modes = graded_index(n, 8).modes
    for _ in range(20):
        M = rng.normal(size=(n, n))
        S = (M @ M.T + 0.5 * np.eye(n)) * 10.0 ** rng.uniform(-3.0, 3.0)
        want = stationary_density(S).moments(8)
        got = np.array([wick_moment(K, S) for K in modes])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want) & (want != 0.0))


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
    # The row is named in the whole grid, in the first block or past it.
    g = GaussianDensity(mean=[0.1, -0.2], cov=[[0.5, 0.1], [0.1, 0.4]])
    for row in (3, GRID_CHUNK + 2):
        pts = np.zeros((GRID_CHUNK + 5, 2))
        pts[row, 1] = bad
        with pytest.raises(ValueError, match=f"row {row} "):
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_whitened_rejects_non_finite_points(bad):
    # The check is at the entry of the whitened read: a ValueError naming
    # the row, never a density that a caller has to look for afterwards.
    g = GaussianDensity(mean=[0.1, -0.2], cov=[[0.5, 0.1], [0.1, 0.4]])
    pts = np.zeros((5, 2))
    pts[3, 0] = bad
    with pytest.raises(ValueError, match="row 3 "):
        g.pdf_grid(pts)


def _reference_whitened(g, pts):
    """One block of ``GaussianDensity._whitened_blocks`` as one allocating
    expression per step."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = g.whitener.T @ (pts - g.mean if g.mean.any() else pts).T
        q = np.einsum("ip,ip->p", z, z)
    return z, np.exp(g.log_norm - 0.5 * q)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("mean", [[0.0, 0.0, 0.0], [0.4, -1.1, 0.25]], ids=["zero", "shifted"])
def test_whitening_into_buffers_is_whitened(mean, bad):
    # Each block, the short last one written into a prefix of buffers that
    # still hold the full block before it, equals the allocating form bit
    # for bit, and its density is ``pdf_grid``'s on finite rows.  Row 7 of
    # each block is not finite: ``_whitened_blocks`` holds only the
    # arithmetic, so its density there is whatever that gives, and
    # ``pdf_grid`` refuses the row before any arithmetic.  Row 20 of each
    # block is finite, its |z|^2 overflows and its density is 0.
    rng = np.random.default_rng(9)
    M = rng.normal(size=(3, 3))
    g = GaussianDensity(mean=mean, cov=M @ M.T + 0.3 * np.eye(3))
    pts = rng.normal(size=(GRID_CHUNK + 50, 3))
    pts[[20, GRID_CHUNK + 20]] = [1e200, -1e200, 1e200]
    finite = pts.copy()
    pts[[7, GRID_CHUNK + 7], 0] = bad
    for rows in (pts, finite):
        before = None
        for block, z, density in g._whitened_blocks(rows):
            want = _reference_whitened(g, rows[block])
            assert np.array_equal(z, want[0], equal_nan=True)
            assert np.array_equal(density, want[1], equal_nan=True)
            m = density.size
            assert density[20] == 0.0 and np.all(density[np.r_[0:7, 8:20, 21:m]] > 0.0)
            if rows is finite:
                assert np.array_equal(density, g.pdf_grid(rows[block]))
            if before is not None:
                # The same two buffers, their tails past the prefix untouched.
                z_buf, f_buf, z_old, f_old = before
                assert z.base is z_buf and density.base is f_buf
                assert np.array_equal(z_buf[z.size :], z_old[z.size :], equal_nan=True)
                assert np.array_equal(f_buf[m:], f_old[m:], equal_nan=True)
            before = z.base, density.base, z.base.copy(), density.base.copy()
        assert m == 50 and before[0].size == 3 * GRID_CHUNK
    with pytest.raises(ValueError, match="row 7 "):
        g.pdf_grid(pts)


@pytest.mark.parametrize("mean", [[0.0, 0.0, 0.0], [0.4, -1.1, 0.25]], ids=["zero", "shifted"])
def test_pdf_grid_is_whitened_block_by_block(mean):
    # The buffers are reused across blocks and a short block fills their
    # prefix; neither may change a bit of the density that the allocating
    # form gives on each block.
    rng = np.random.default_rng(10)
    M = rng.normal(size=(3, 3))
    g = GaussianDensity(mean=mean, cov=M @ M.T + 0.3 * np.eye(3))
    for P in (0, 1, GRID_CHUNK - 1, GRID_CHUNK, GRID_CHUNK + 1, 3 * GRID_CHUNK + 17):
        pts = 2.0 * rng.normal(size=(P, 3))
        blocks = [_reference_whitened(g, pts[lo : lo + GRID_CHUNK])[1] for lo in range(0, P, GRID_CHUNK)]
        want = np.concatenate(blocks) if blocks else np.empty(0)
        assert np.array_equal(g.pdf_grid(pts), want), P


def test_forward_function_value():
    # The value is poly(x) * base.pdf(x), which callers form themselves;
    # the polynomial must live in the density's dimension.
    g = GaussianDensity(mean=[0.0], cov=[[0.5]])
    assert ForwardFunction(MPoly(1, {(2,): 4.0, (0,): -2.0}), g).dim == 1
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


# An argument of the wrong kind, each of which raised an untyped
# AttributeError from inside the call, and the message it now raises.
WRONG_KINDS = {
    "forward-poly": (lambda g, model: ForwardFunction("x", g), "^expected an MPoly$"),
    "forward-base": (
        lambda g, model: ForwardFunction(MPoly(1, {(1,): 1.0}), "g"),
        "^expected a GaussianDensity$",
    ),
    "expectation-density": (
        lambda g, model: expectation(MPoly(1, {(1,): 1.0}), model),
        "^expected a GaussianDensity$",
    ),
    "inner-product-poly": (
        lambda g, model: inner_product([1, 2], ForwardFunction(MPoly(1, {(1,): 1.0}), g)),
        "^expected an MPoly$",
    ),
}


@pytest.mark.parametrize("kind", WRONG_KINDS)
def test_an_argument_of_the_wrong_kind_is_a_type_error(kind, model_1d):
    call, message = WRONG_KINDS[kind]
    with pytest.raises(TypeError, match=message):
        call(model_1d.f0, model_1d)


def test_every_polynomial_argument_is_read_by_one_check(model_spiral):
    # ``mpoly._poly_for`` reads the polynomial of each entry: one message
    # for a polynomial in the wrong number of variables, and one for an
    # argument that is not an MPoly.
    g, p1 = model_spiral.f0, MPoly(1, {(1,): 1.0})
    f = ForwardFunction(MPoly(2, {(1, 0): 1.0}), g)
    entries = (
        lambda p: ForwardFunction(p, g),
        lambda p: expectation(p, g),
        lambda p: inner_product(p, f),
        lambda p: ladder.apply_adjoint(model_spiral, p),
        lambda p: ladder.raise_adjoint(model_spiral, 0, p),
        lambda p: ladder.lower_adjoint(model_spiral, 0, p),
    )
    for entry in entries:
        with pytest.raises(errors.DimensionMismatchError, match="^polynomial in 1 variables, expected 2$"):
            entry(p1)
        with pytest.raises(TypeError, match="^expected an MPoly$"):
            entry(np.zeros(6))


def test_expectation_reads_only_the_moments_its_polynomial_uses():
    # E[x_2^8] = 105e400 overflows, and 0 * inf once made the expectation
    # of x_1^8 NaN; it is 105, bit for bit the finite entry.
    g = GaussianDensity(mean=[0.0, 0.0], cov=np.diag([1.0, 1e100]))
    assert expectation(MPoly(2, {(8, 0): 1.0}), g) == 105.0
    with pytest.raises(errors.NonFiniteResultError, match=r"a = \(0, 8\)"):
        expectation(MPoly(2, {(8, 0): 1.0, (0, 8): 1.0}), g)


def test_wick_moment_that_overflows_is_an_error():
    # E[x^8] = 105e400 read NaN.
    with pytest.raises(errors.NonFiniteResultError, match=r"a = \(8,\)"):
        wick_moment((8,), [[1e100]])


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


def _stein_moments(mean, cov, degree):
    """``moments`` as one scalar Stein step per mode, from its
    ``parent`` row, J ascending, read through ``row`` alone."""
    idx = graded_index(len(mean), degree)
    m = np.empty(len(idx.modes), dtype=np.result_type(mean, cov, float))
    m[0] = 1.0
    for r, K in enumerate(idx.modes[1:], 1):
        I, P = parent(K)
        m[r] = mean[I] * m[idx.row[P]]
        for J, c in enumerate(P):
            if c:
                m[r] += (cov[I, J] * c) * m[idx.row[P[:J] + (c - 1,) + P[J + 1 :]]]
    return m


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_complex_moments_are_the_scalar_stein_step_bit_for_bit(n):
    # expand_gaussian passes a = 2 W mu and M = 4 W (C - Sigma) W^T, with
    # W complex; the coefficients are these moments, bit for bit.
    rng = np.random.default_rng(3800 + n)
    for _ in range(4):
        W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        D = rng.normal(size=(n, n))
        mean = 2.0 * (W @ rng.normal(size=n))
        cov = 4.0 * (W @ (0.1 * (D + D.T)) @ W.T)
        got = gaussian.moments(mean, cov, 8)
        want = _stein_moments(mean, cov, 8)
        assert got.dtype == want.dtype == np.complex128
        assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize(
    "mean", [[0.5j, 0.0], np.array([0.5 + 0.5j, 0.0])], ids=["python", "numpy"]
)
def test_density_refuses_a_complex_mean(mean):
    # A list of Python complex numbers used to raise an untyped TypeError,
    # and a complex array lost its imaginary part.
    with pytest.raises(ValueError, match="^mean must have real entries$"):
        GaussianDensity(mean=mean, cov=np.eye(2))


def test_density_refuses_complex_points():
    g = GaussianDensity(mean=[0.0, 0.0], cov=np.eye(2))
    points = np.array([[0.5, 0.0], [0.0, 0.5j]])
    with pytest.raises(ValueError, match="^points must have real entries$"):
        g.pdf_grid(points)
    with pytest.raises(ValueError, match="^x must have real entries$"):
        g.pdf([0.5j, 0.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_density_at_one_point_names_the_point(bad):
    # A one-point call was read as a grid of one row: "points must be
    # finite; row 0 is [nan, 0.0]" and "points must have shape (P, 2), got
    # (1, 3)".  The error types are unchanged.
    g = GaussianDensity(mean=[0.0, 0.0], cov=np.eye(2))
    want = re.escape(f"point must be finite, got [{bad}, 0.0]")
    with pytest.raises(ValueError, match=f"^{want}$"):
        g.pdf([bad, 0.0])
    for point, n in (([1.0, 2.0, 3.0], 3), ([], 0), ([[1.0]], 1)):
        with pytest.raises(errors.DimensionMismatchError, match=f"^point has {n} coordinates, expected 2$"):
            g.pdf(point)


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
