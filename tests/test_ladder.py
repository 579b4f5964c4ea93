import dataclasses
import math
import re

import numpy as np
import numpy.testing as npt
import pytest

import ou_spectral as ou
from ou_spectral import errors, ladder, mpoly
from ou_spectral.monomials import graded_index
from ou_spectral.mpoly import MPoly, hermite

from conftest import A_3D, A_SPIRAL, B_3D


def test_build_model_solves_lyapunov(model_3d):
    resid = model_3d.A @ model_3d.Sigma + model_3d.Sigma @ model_3d.A.T + model_3d.B
    assert np.max(np.abs(resid)) < 1e-12
    npt.assert_allclose(model_3d.Sigma @ model_3d.Sigma_inv, np.eye(3), atol=1e-12)


def test_build_model_rejects_bad_inputs():
    with pytest.raises(errors.UnstableDriftError):
        ou.build_model([[0.5]], [[1.0]])
    with pytest.raises(errors.UnstableDriftError):
        ou.build_model([[0.0]], [[1.0]])
    with pytest.raises(errors.DefectiveMatrixError):
        ou.build_model([[-1.0, 1.0], [0.0, -1.0]], np.eye(2))
    with pytest.raises(errors.DimensionMismatchError):
        ou.build_model([[-1.0]], np.eye(2))


# The Jordan block's eigenvector basis has condition number 9.0e15, so
# only a tolerance that switches the checks off accepts it.
JORDAN = [[-1.0, 1.0], [0.0, -1.0]]


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
def test_build_model_rejects_a_tol_that_switches_its_checks_off(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        ou.build_model(JORDAN, np.eye(2), tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        ou.biorthogonal_eig(A_SPIRAL, tol=tol)


@pytest.mark.parametrize("eps", [float("nan"), -1.0, float("inf")])
def test_build_model_rejects_a_prune_eps_that_is_not_a_threshold(eps):
    with pytest.raises(ValueError, match="prune_eps must be finite and nonnegative"):
        ou.build_model(A_SPIRAL, np.eye(2), prune_eps=eps)
    with pytest.raises(ValueError, match="prune_eps must be finite and nonnegative"):
        MPoly(2, {(1, 0): 1.0}, prune_eps=eps)
    with pytest.raises(ValueError, match="prune_eps must be finite and nonnegative"):
        MPoly.from_coeffs(2, [1.0], prune_eps=eps)


def test_build_model_accepts_a_zero_prune_eps():
    model = ou.build_model(A_SPIRAL, np.eye(2), prune_eps=0.0)
    assert ou.forward_eigenfunction(model, (1, 1)).poly.prune_eps == 0.0


def test_one_dimensional_eigenfunctions_are_hermite(model_1d):
    # Canonical 1D model: both families reduce to physicists' Hermites
    for n in range(7):
        f = ou.forward_eigenfunction(model_1d, (n,))
        g = ou.adjoint_eigenfunction(model_1d, (n,))
        assert ou.coeff_distance(f.poly, hermite(n)) <= 1e-12
        assert ou.coeff_distance(g, hermite(n)) <= 1e-12
    assert ou.forward_eigenfunction(model_1d, (2,)).poly.terms == {
        (0,): complex(-2),
        (2,): complex(4),
    }


def test_eigenvalue_combination(model_spiral):
    lam = ou.eigenvalue(model_spiral, (2, 1))
    npt.assert_allclose(lam, 2 * (-1 + 2j) + (-1 - 2j), atol=1e-12)
    assert ou.eigenvalue(model_spiral, (0, 0)) == 0.0


def test_stationary_state_is_annihilated(four_models):
    for model in four_models.values():
        f0 = ou.forward_eigenfunction(model, (0,) * model.dim)
        assert ou.apply_forward(model, f0).poly.max_coeff() <= 1e-12
        g0 = ou.adjoint_eigenfunction(model, (0,) * model.dim)
        assert ou.apply_adjoint(model, g0).max_coeff() <= 1e-12
        for I in range(model.dim):
            assert ou.lower_forward(model, I, f0).poly.max_coeff() <= 1e-12
            assert ou.lower_adjoint(model, I, g0).max_coeff() <= 1e-12


def _numeric_forward(model, f, x, h=1e-3):
    # Direct stencil evaluation of -div(A y q) + (1/2) B : Hess q
    n = model.dim
    A, B = model.A, model.B

    def q(y):
        return complex(f.poly(y)) * f.base.pdf(np.asarray(y))

    def flux(y, i):
        return float(A[i, :] @ np.asarray(y)) * q(y)

    out = 0.0
    for i in range(n):
        ep = np.array(x, dtype=float)
        em = np.array(x, dtype=float)
        ep[i] += h
        em[i] -= h
        out -= (flux(ep, i) - flux(em, i)) / (2 * h)
    for i in range(n):
        for j in range(n):
            if B[i, j] == 0.0:
                continue
            if i == j:
                ep = np.array(x, dtype=float)
                em = np.array(x, dtype=float)
                ep[i] += h
                em[i] -= h
                second = (q(ep) - 2 * q(np.array(x, dtype=float)) + q(em)) / h**2
            else:
                pp = np.array(x, dtype=float)
                pm = np.array(x, dtype=float)
                mp = np.array(x, dtype=float)
                mm = np.array(x, dtype=float)
                pp[i] += h
                pp[j] += h
                pm[i] += h
                pm[j] -= h
                mp[i] -= h
                mp[j] += h
                mm[i] -= h
                mm[j] -= h
                second = (q(pp) - q(pm) - q(mp) + q(mm)) / (4 * h**2)
            out += 0.5 * B[i, j] * second
    return out


def test_apply_forward_matches_numeric_differentiation(model_spiral, model_3d):
    rng = np.random.default_rng(29)
    for model in (model_spiral, model_3d):
        p = MPoly(
            model.dim,
            {
                tuple(int(e) for e in exps): complex(c)
                for exps, c in zip(
                    rng.integers(0, 3, size=(5, model.dim)), rng.normal(size=5)
                )
            },
        )
        f = ou.ForwardFunction(p, model.f0)
        Lf = ou.apply_forward(model, f)
        for _ in range(4):
            x = rng.normal(size=model.dim) * 0.7
            want = _numeric_forward(model, f, x)
            got = complex(Lf.poly(x)) * Lf.base.pdf(x)
            assert abs(got - want) <= 2e-4 * max(1.0, abs(want))


def test_apply_adjoint_matches_numeric_differentiation(model_spiral):
    rng = np.random.default_rng(31)
    model = model_spiral
    g = MPoly(2, {(2, 1): 0.7, (1, 0): -1.2, (0, 3): 0.4})
    Lg = ou.apply_adjoint(model, g)
    h = 1e-4

    def val(y):
        return complex(g(y))

    for _ in range(4):
        x = rng.normal(size=2) * 0.8
        acc = 0.0
        for i in range(2):
            ep, em = x.copy(), x.copy()
            ep[i] += h
            em[i] -= h
            acc += float(model.A[i, :] @ x) * (val(ep) - val(em)) / (2 * h)
            acc += 0.5 * model.B[i, i] * (val(ep) - 2 * val(x) + val(em)) / h**2
        assert abs(complex(Lg(x)) - acc) <= 1e-5 * max(1.0, abs(acc))


def test_raising_operators_commute(model_spiral, model_3d):
    for model in (model_spiral, model_3d):
        f0 = ou.forward_eigenfunction(model, (0,) * model.dim)
        a = ou.raise_forward(model, 0, ou.raise_forward(model, 1, f0))
        b = ou.raise_forward(model, 1, ou.raise_forward(model, 0, f0))
        assert ou.coeff_distance(a.poly, b.poly) <= 1e-12
        g0 = ou.adjoint_eigenfunction(model, (0,) * model.dim)
        a = ou.raise_adjoint(model, 0, ou.raise_adjoint(model, 1, g0))
        b = ou.raise_adjoint(model, 1, ou.raise_adjoint(model, 0, g0))
        assert ou.coeff_distance(a, b) <= 1e-12


def test_cross_commutator_is_twice_identity(model_spiral):
    # lower then raise minus raise then lower equals 2 delta_IJ
    model = model_spiral
    p = MPoly(2, {(2, 0): 1.0, (1, 1): -0.5, (0, 0): 2.0})
    for I in range(2):
        for J in range(2):
            a = ou.lower_adjoint(model, J, ou.raise_adjoint(model, I, p))
            b = ou.raise_adjoint(model, I, ou.lower_adjoint(model, J, p))
            want = (2.0 if I == J else 0.0) * p
            assert ou.coeff_distance(a - b, want) <= 1e-12


def test_eigenfunction_conjugate_pair_symmetry(model_spiral):
    f = ou.forward_eigenfunction(model_spiral, (2, 1))
    fc = ou.forward_eigenfunction(model_spiral, (1, 2))
    assert ou.coeff_distance(fc.poly, f.poly.conj()) <= 1e-12
    g = ou.adjoint_eigenfunction(model_spiral, (2, 1))
    gc = ou.adjoint_eigenfunction(model_spiral, (1, 2))
    assert ou.coeff_distance(gc, g.conj()) <= 1e-12


def test_eigenfunction_memoized(model_spiral, monkeypatch):
    # The side's table is built once and kept on the model: a second read
    # of a row builds nothing and gathers nothing.
    a = ou.forward_eigenfunction(model_spiral, (2, 2))
    cache = dict(model_spiral._op_cache)
    assert cache[(ladder._eigentable, "forward")][0] >= 4

    def refuse(*args):
        raise AssertionError("a block was built again")

    monkeypatch.setattr(ladder, "_image", refuse)
    b = ou.forward_eigenfunction(model_spiral, (2, 2))
    assert b.poly == a.poly
    assert model_spiral._op_cache.keys() == cache.keys()
    assert all(model_spiral._op_cache[key] is value for key, value in cache.items())


@pytest.mark.parametrize("c", [1.0, 1e4])
def test_eigenfunction_read_is_from_coeffs_of_its_row(four_models, c):
    # A read is the polynomial that from_coeffs builds from its row of the
    # table, at c = 1 and at c = 1e4 (B times c^2).
    for name, model in four_models.items():
        model = ou.build_model(model.A, model.B * c**2)
        idx = graded_index(model.dim, 6)
        for side in ("forward", "adjoint"):
            for K in idx.modes:
                k = sum(K)
                row = ladder._eigenfunctions(model, side, k)[idx.row[K]]
                got = ladder._eigenfunction(model, side, K)
                want = MPoly.from_coeffs(model.dim, row, model.prune_eps)
                assert np.array_equal(got.coeffs, want.coeffs), (name, side, K)
                assert got.degree() == want.degree(), (name, side, K)
                assert got.prune_eps == want.prune_eps
                assert not got.coeffs.flags.writeable


def test_public_eigenfunctions_in_large_units_are_their_table_rows(four_models):
    # At c = 1e4 (B times c^2) the coefficients of order k of a forward
    # row scale as c^-k, far below 1e-13 at the top orders.  No read
    # prunes, so each public eigenfunction is its row bit for bit, of
    # degree |K|.
    for name, model in four_models.items():
        model = ou.build_model(model.A, model.B * 1e8)
        idx = graded_index(model.dim, 6)
        table = ladder._eigenfunctions(model, "forward", 6)
        for K in idx.modes:
            got = ou.forward_eigenfunction(model, K).poly
            row = np.ascontiguousarray(table[idx.row[K], : got.coeffs.size])
            assert np.array_equal(got.coeffs.view(np.int64), row.view(np.int64)), (name, K)
            assert got.degree() == sum(K), (name, K)


def test_eigenfunction_polynomial_degree(model_diag):
    for K in [(1, 0), (2, 1), (3, 3)]:
        f = ou.forward_eigenfunction(model_diag, K)
        assert f.poly.degree() == sum(K)


def test_mode_normalization_values():
    assert ou.mode_normalization((0,)) == 1.0
    assert ou.mode_normalization((1,)) == 2.0
    assert ou.mode_normalization((3,)) == 48.0
    assert ou.mode_normalization((6,)) == 46080.0
    assert ou.mode_normalization((1, 2, 1)) == 32.0


def test_mode_normalization_keeps_the_float_product_of_its_factors():
    # Every finite normalization keeps its bits: the product, in axis
    # order, of float(2**k) * float(k!).
    rng = np.random.default_rng(5)
    for K in [(150,), (0, 150), (75, 40), *map(tuple, rng.integers(0, 60, size=(50, 3)))]:
        want = 1.0
        for k in K:
            want *= float(2**k) * float(math.factorial(k))
        assert ou.mode_normalization(K) == want


@pytest.mark.parametrize("K", [(151,), (170,), (171,), (172,), (1100,), (100, 100), (0, 0, 171)])
def test_a_normalization_that_is_not_a_finite_float_is_refused(K):
    # float(171!) raised OverflowError, and from a single-axis order of 151
    # to 170 the product read inf, which expansion weights divided by to 0.
    with pytest.raises(errors.NonFiniteResultError, match=re.escape(f"K={K}")):
        ou.mode_normalization(K)


def test_enumerate_modes_graded_lex():
    assert ou.enumerate_modes(2, 2) == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    ]
    assert len(ou.enumerate_modes(3, 4)) == 35
    assert ou.enumerate_modes(1, 3) == [(0,), (1,), (2,), (3,)]


def test_mode_index_validation(model_spiral):
    with pytest.raises(errors.ModeOutOfRangeError):
        ou.raise_forward(
            model_spiral, 2, ou.forward_eigenfunction(model_spiral, (0, 0))
        )
    with pytest.raises(errors.ModeIndexMismatchError):
        ou.forward_eigenfunction(model_spiral, (1,))
    with pytest.raises(errors.ModeIndexMismatchError):
        ou.forward_eigenfunction(model_spiral, (1, -1))
    with pytest.raises(errors.ModeIndexMismatchError):
        ou.eigenvalue(model_spiral, (1, 2, 3))


@pytest.mark.parametrize("I", [0.0, 1.5, "1"])
def test_a_mode_that_is_not_an_integer_is_refused(I):
    # int() read 0.0 and 1.5 as modes 0 and 1 and "1" as mode 1; 0.0 also
    # entered the table cache key as a float.
    model = ou.build_model(A_SPIRAL, np.eye(2))
    f = ou.forward_eigenfunction(model, (1, 0))
    g = ou.adjoint_eigenfunction(model, (1, 0))
    for op, arg in ((ou.raise_forward, f), (ou.lower_forward, f)):
        with pytest.raises(TypeError):
            op(model, I, arg)
    for op in (ou.raise_adjoint, ou.lower_adjoint):
        with pytest.raises(TypeError):
            op(model, I, g)


def test_an_integral_mode_is_passed_on_as_an_int():
    # True is mode 1: as given, it indexed the eigenvectors as a boolean
    # mask and failed in matmul.  A numpy integer mode entered the table
    # cache key as given.
    model = ou.build_model(A_SPIRAL, np.eye(2))
    f = ou.forward_eigenfunction(model, (1, 0))
    got = ou.raise_forward(model, True, f).poly
    ou.lower_adjoint(model, np.int32(0), ou.adjoint_eigenfunction(model, (1, 0)))
    keys = [key for key in model._op_cache if key[0] is ladder._ladder_table]
    assert {key[2] for key in keys} == {0, 1}
    assert {type(key[2]) for key in keys} == {int}
    fresh = ou.build_model(A_SPIRAL, np.eye(2))
    assert got == ou.raise_forward(fresh, 1, ou.forward_eigenfunction(fresh, (1, 0))).poly
    # Integral multi-indices read their mode.
    want = ou.forward_eigenfunction(model, (2, 1)).poly
    for K in [(np.int64(2), np.int8(1)), np.array([2, 1]), (2, True)]:
        assert ou.forward_eigenfunction(model, K).poly == want


@pytest.mark.parametrize("K", [(1.5, 0), ("1", 0), (1, 0.0)])
def test_a_multi_index_that_is_not_integral_is_refused(K):
    # int() read (1.5, 0) as the mode (1, 0) and ("1", 0) as (1, 0).
    model = ou.build_model(A_SPIRAL, np.eye(2))
    with pytest.raises(TypeError):
        ou.mode_normalization(K)
    for read in (
        ou.forward_eigenfunction,
        ou.adjoint_eigenfunction,
        ou.eigenvalue,
        ou.forward_hermite,
        ou.adjoint_hermite,
    ):
        with pytest.raises(TypeError):
            read(model, K)


def test_forward_function_base_is_checked(model_spiral):
    other = ou.GaussianDensity(mean=[0.1, 0.0], cov=0.5 * np.eye(2))
    f = ou.ForwardFunction(MPoly(2, {(0, 0): 1.0}), other)
    with pytest.raises(errors.DimensionMismatchError):
        ou.apply_forward(model_spiral, f)


def test_prune_eps_propagates_through_model():
    model = ou.build_model(A_SPIRAL, np.eye(2), prune_eps=1e-10)
    f = ou.forward_eigenfunction(model, (2, 1))
    assert f.poly.prune_eps == 1e-10


def test_model_derives_f0_sigma_inv_and_b_factor_from_its_fields(model_spiral):
    # Sigma and B are given once, and f0, Sigma^-1 and B's Cholesky factor
    # are derived from them, so a replaced model is a consistent one.
    init = [f.name for f in dataclasses.fields(ou.OUModel) if f.init]
    assert init == ["A", "B", "Sigma", "eig", "tol", "prune_eps"]
    npt.assert_array_equal(model_spiral.B_factor, np.linalg.cholesky(model_spiral.B))
    S = np.array([[0.4, 0.1], [0.1, 0.3]])
    m = dataclasses.replace(model_spiral, Sigma=S)
    npt.assert_array_equal(m.f0.cov, S)
    npt.assert_array_equal(m.Sigma_inv, np.linalg.inv(S))
    m = dataclasses.replace(model_spiral, B=4.0 * model_spiral.B)
    npt.assert_array_equal(m.B_factor, np.linalg.cholesky(4.0 * model_spiral.B))
    # A replaced B is checked as build_model checks it.
    with pytest.raises(ValueError, match="B must have finite entries"):
        dataclasses.replace(model_spiral, B=np.full((2, 2), np.nan))
    with pytest.raises(errors.NotSPDError, match="B is not positive definite"):
        dataclasses.replace(model_spiral, B=-model_spiral.B)


@pytest.mark.parametrize("A", [np.diag([-1.0]), np.diag([-1.0, -2.0])], ids=["n1", "n2"])
def test_model_compares_and_hashes_by_identity(A):
    # By value, two n = 2 models compared their arrays and raised.
    one, two = ou.build_model(A, np.eye(len(A))), ou.build_model(A, np.eye(len(A)))
    assert one == one and one != two and not one == two
    assert hash(one) != hash(two) and {one: 1}[one] == 1


def test_replaced_model_starts_with_empty_caches():
    # A model rebuilt with dataclasses.replace must not see the eigenfunction
    # tables and operator tables memoized on the model it was built from.
    model = ou.build_model([[-1.0]], [[1.0]])
    ou.forward_eigenfunction(model, (2,))
    ou.adjoint_eigenfunction(model, (2,))
    # One cache holds the eigenfunction tables of both sides and the
    # raising tables, one per side and mode.
    assert (ladder._eigentable, "forward") in model._op_cache
    assert (ladder._eigentable, "adjoint") in model._op_cache
    for op in ("raise_forward", "raise_adjoint"):
        assert (ladder._ladder_table, op, 0) in model._op_cache
    m2 = dataclasses.replace(model, B=4.0 * model.B, Sigma=4.0 * model.Sigma)
    assert not m2._op_cache
    f = ou.forward_eigenfunction(m2, (2,))
    assert f.base is m2.f0
    npt.assert_array_equal(f.base.cov, [[2.0]])
    assert f.poly != ou.forward_eigenfunction(model, (2,)).poly


def test_raising_tables_keep_every_linear_weight_in_large_units():
    # Under x -> 1e8 x every weight of Sigma^-1 e_I is about 1e-16, below
    # prune_eps.  A prune of the weights at prune_eps dropped all of them,
    # so the table lost its linear part and lowered the degree.
    model = ou.build_model(A_3D, B_3D * 1e16)
    n = model.dim
    ladder._eigenfunctions(model, "forward", 2)
    tables = {key[2]: entry for key, entry in model._op_cache.items() if key[1] == "raise_forward"}
    assert sorted(tables) == list(range(n))
    for I, (top, shift, src, weight) in tables.items():
        assert shift == 1
        assert len(src) == 2 * n
        assert (src[:n] >= 0).any(axis=1).all(), I
        assert 0.0 < np.abs(weight[:n]).max() < model.prune_eps


def test_raising_keeps_products_above_prune_eps_of_a_weight_below_it():
    # spiral_2d under x -> 1e3 x: Sigma = 5e5 I, so a = Sigma^-1 e_I has
    # entries of 1.4e-6, below the polynomial's prune_eps 1e-4, while
    # (a . x) p has coefficients of 1.4e-3 for p = 1e3 x_1.
    model = ou.build_model(A_SPIRAL, np.eye(2) * 1e6)
    eps = 1e-4
    p = MPoly(2, {(1, 0): 1e3}, prune_eps=eps)
    for I in range(2):
        e = model.eig.right[:, I]
        a, w = model.Sigma_inv @ e, -e
        assert np.abs(a).max() < eps
        want = MPoly.zero(2, eps)
        for j in range(2):
            want = want + a[j] * (MPoly.variable(2, j, eps) * p) + w[j] * p.diff(j)
        got = ou.raise_forward(model, I, ou.ForwardFunction(p, model.f0)).poly
        assert want.degree() == got.degree() == 2
        assert got.prune_eps == eps
        assert ou.coeff_distance(got, want) <= 1e-15 * want.max_coeff(), I


def test_polynomials_of_two_prune_eps_share_one_raising_table():
    # A table holds the operator's exact weights; no prune_eps selects
    # one.
    model = ou.build_model(A_SPIRAL, np.eye(2))
    for eps in (1e-13, 1e-4):
        p = MPoly(2, {(1, 0): 1.0, (0, 2): 0.5}, prune_eps=eps)
        for I in range(2):
            ou.raise_forward(model, I, ou.ForwardFunction(p, model.f0))
            ou.raise_adjoint(model, I, p)
    keys = [key[1:] for key in model._op_cache if key[0] is ladder._ladder_table]
    assert sorted(keys) == [(op, I) for op in ("raise_adjoint", "raise_forward") for I in range(2)]


LADDER_OPS = ("raise_forward", "raise_adjoint", "lower_forward", "lower_adjoint")
# (build, args, c): the table of the operator build(model, *args) on
# _table_model(n, c).
TABLE_KINDS = {side: (ladder._generator_table, (side,), 1.0) for side in ("forward", "adjoint")}
TABLE_KINDS.update({op: (ladder._ladder_table, (op, 0), 1.0) for op in LADDER_OPS})
# Under x -> 1e8 x every linear weight of the forward raising is below the
# default prune_eps, where a prune of the weights once dropped them and
# the table lowered the degree; the table keeps them.
TABLE_KINDS["raise_forward_dropped"] = (ladder._ladder_table, ("raise_forward", 0), 1e8)


def _table_model(n, c=1.0):
    """A random n-dimensional model under x -> c x: B times c^2."""
    rng = np.random.default_rng(n)
    A = 0.5 * rng.standard_normal((n, n)) - 3.0 * np.eye(n)
    L = rng.standard_normal((n, n))
    return ou.build_model(A, (L @ L.T + 0.2 * np.eye(n)) * c**2)


def _gather(src, weight, c):
    """The gathers (src, weight) of a table built at the degree of c on
    each coefficient vector along the last axis of c: the gather of
    ``ladder._image`` with no table of a higher degree."""
    c = mpoly._padded(c, c.shape[-1] + 1)
    out = weight[0] * c[..., src[0]]
    for s in range(1, len(src)):
        out += weight[s] * c[..., src[s]]
    return out


def _matrix(model, build, args, degree, rows):
    """The matrix (``ladder._matrix``) of the operator on every polynomial
    of ``degree`` or less, padded with zero rows to ``rows``, read from a
    table built at that degree: a copy of the model starts with an empty
    cache."""
    M = ladder._matrix(dataclasses.replace(model), build, args, degree)
    out = np.zeros((rows, M.shape[1]), dtype=M.dtype)
    out[: M.shape[0]] = M
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_stacked_gather_equals_one_polynomial_gathers(n, kind):
    # One matrix of a table at the top degree acts on a stack of
    # polynomials of every degree up to it, each of which gathers through
    # the table of its own degree: cut to the columns of degree k, the
    # matrix is bit for bit the matrix of the degree-k table, padded with
    # zero rows, and so is the matrix that the reader cuts from the table
    # grown to the top degree.  That its product with a coefficient vector
    # is the gather itself is checked in test_verify.
    build, args, c = TABLE_KINDS[kind]
    model = _table_model(n, c)
    top = 4
    rows = [len(graded_index(n, k).modes) for k in range(top + 2)]
    M = _matrix(model, build, args, top, rows[top + 1])
    ladder._table(model, build, args, top)
    for k in range(top + 1):
        want = _matrix(model, build, args, k, rows[k + 1])
        npt.assert_array_equal(M[: rows[k + 1], : rows[k]], want, strict=True)
        assert not M[rows[k + 1] :, : rows[k]].any()
        got = ladder._matrix(model, build, args, k)
        npt.assert_array_equal(got, want[: len(got)], strict=True)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_gather_through_the_top_table_prefix_equals_the_degree_table(n, kind):
    # The ladder reads every degree k from the first rows of the one
    # table of an operator, here at degree 6, on an input zero-padded to
    # its source length: the gather of a random degree-k stack must
    # equal, value for value, its gather through the table built at
    # degree k.  Only the sign of an exact zero may differ, which
    # np.array_equal does not see.
    build, args, c = TABLE_KINDS[kind]
    model = _table_model(n, c)
    rng = np.random.default_rng(100 + n)
    top = 6
    ladder._table(model, build, args, top)
    for k in range(top + 1):
        size = len(graded_index(n, k).modes)
        stack = rng.standard_normal((5, size)) + 1j * rng.standard_normal((5, size))
        _, src, weight = build(model, *args, k)
        assert ladder._table(model, build, args, k)[0].shape == src.shape
        want = _gather(src, weight, stack)
        got = ladder._image(model, build, args, k, stack)
        assert got.shape == want.shape, k
        assert np.array_equal(got, want), k
    assert ladder._table(model, build, args, 0)[2] == len(graded_index(n, top).modes)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_a_grown_table_reads_as_one_built_at_its_top_degree(n, kind):
    # A table read first at degree k and then at 6 is rebuilt at 6, and
    # reads at every degree as a table read at 6 first.
    build, args, c = TABLE_KINDS[kind]
    rng = np.random.default_rng(200 + n)
    stacks = []
    for j in range(7):
        size = len(graded_index(n, j).modes)
        stacks.append(rng.standard_normal((3, size)) + 1j * rng.standard_normal((3, size)))
    direct = _table_model(n, c)
    ladder._table(direct, build, args, 6)
    want = [ladder._image(direct, build, args, j, stacks[j]) for j in range(7)]
    for k in range(7):
        model = _table_model(n, c)
        ladder._table(model, build, args, k)
        ladder._table(model, build, args, 6)
        assert [key for key in model._op_cache] == [(build, *args)]
        for j in range(7):
            got = ladder._image(model, build, args, j, stacks[j])
            assert np.array_equal(got, want[j]), (k, j)


def _random_poly(rng, n, degree):
    size = len(graded_index(n, degree).modes)
    return MPoly.from_coeffs(n, rng.standard_normal(size) + 1j * rng.standard_normal(size))


def _reads(model, rng):
    """(name, read) of the operators on one polynomial: every public
    operator and mode on a random polynomial of each degree 0-6, and a
    solve of each source degree 1-5.  Each read takes a model and returns
    coefficients."""
    n, out = model.dim, []
    for d in range(7):
        p = _random_poly(rng, n, d)
        out.append((("apply_adjoint", d), lambda m, p=p: ou.apply_adjoint(m, p).coeffs))
        out.append(
            (
                ("apply_forward", d),
                lambda m, p=p: ou.apply_forward(m, ou.ForwardFunction(p, m.f0)).poly.coeffs,
            )
        )
        for I in range(n):
            for name in ("raise_adjoint", "lower_adjoint"):
                op = getattr(ou, name)
                out.append(((name, I, d), lambda m, op=op, I=I, p=p: op(m, I, p).coeffs))
            for name in ("raise_forward", "lower_forward"):
                op = getattr(ou, name)
                out.append(
                    (
                        (name, I, d),
                        lambda m, op=op, I=I, p=p: op(m, I, ou.ForwardFunction(p, m.f0)).poly.coeffs,
                    )
                )
    for d in range(1, 6):
        p = _random_poly(rng, n, d)
        # No stationary component: E_f0[q] = 0.
        q = p - ou.expectation(p, model.f0)

        def solve(m, q=q, d=d):
            return ou.solve_inhomogeneous(m, ou.ForwardFunction(q, m.f0), d).poly.coeffs

        out.append((("solve", d), solve))
    return out


def test_reads_in_any_order_equal_a_fresh_model(four_models):
    # Eigenfunctions read in ascending or in descending order, and the
    # operators and solves on random polynomials in a shuffled order,
    # read tables grown in an order that depends on the reads; each
    # result must equal the one on a fresh model.  Every table key is
    # (build, *args), with no degree.
    for name, config in four_models.items():
        model = ou.build_model(config.A, config.B)
        rng = np.random.default_rng(7)
        modes = graded_index(model.dim, 6).modes
        eigen = [
            ((side, K), lambda m, f=f, K=K: f(m, K))
            for K in modes
            for side, f in (
                ("forward", lambda m, K: ou.forward_eigenfunction(m, K).poly.coeffs),
                ("adjoint", lambda m, K: ou.adjoint_eigenfunction(m, K).coeffs),
            )
        ]
        reads = _reads(model, rng)
        want = {key: read(ou.build_model(model.A, model.B)) for key, read in eigen + reads}
        for ascending in (True, False):
            shared = ou.build_model(model.A, model.B)
            order = eigen if ascending else eigen[::-1]
            shuffled = [reads[i] for i in rng.permutation(len(reads))]
            for key, read in order + shuffled:
                assert np.array_equal(read(shared), want[key]), (name, ascending, key)
            for key in shared._op_cache:
                if key[0] is ladder._generator_table:
                    assert key[1:] in {("forward",), ("adjoint",)}, key
                elif key[0] is ladder._ladder_table:
                    assert key[1:] in {(op, I) for op in LADDER_OPS for I in range(shared.dim)}, key
                else:
                    assert key[0] is ladder._eigentable, key
                    assert key[1:] in {("forward",), ("adjoint",)}, key


EIGEN_SEQUENCES = {
    "ascending": list(range(7)),
    "descending": list(range(6, -1, -1)),
    "shuffled": [3, 0, 5, 1, 6, 2, 4],
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("sequence", sorted(EIGEN_SEQUENCES))
def test_eigen_tables_read_in_any_order_equal_a_fresh_model(n, sequence):
    # Each side keeps one table, grown to the highest order read; every
    # order read from it, before or after it grows, is bit for bit the
    # table a fresh model builds at that order.
    model = _table_model(n)
    for side in ("forward", "adjoint"):
        for k in EIGEN_SEQUENCES[sequence]:
            got = ladder._eigenfunctions(model, side, k)
            want = ladder._eigenfunctions(_table_model(n), side, k)
            assert got.shape == want.shape == (len(graded_index(n, k).modes),) * 2
            assert np.array_equal(got, want), (side, k)
            assert not got.flags.writeable
        top, table = model._op_cache[(ladder._eigentable, side)]
        assert top == 6 and table.shape == (len(graded_index(n, 6).modes),) * 2
    assert len([key for key in model._op_cache if key[0] is ladder._eigentable]) == 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_ascending_build_raises_each_row_once(n, monkeypatch):
    # The table of a higher order extends the one it holds: read at orders
    # 0-6 in turn, it runs the same raising gathers, on the same rows, as
    # one read at order 6 on a fresh model, one gather per mode and order.
    # The read at order 6 builds each raising table once, at degree 5.
    gathers, builds = [], []
    image, build_table = ladder._image, ladder._ladder_table

    def counted(model, build, args, degree, c):
        if build is ladder._ladder_table:
            gathers.append((args[0], args[1], degree, c.shape[0]))
        return image(model, build, args, degree, c)

    def built(model, op, I, degree):
        builds.append((op, I, degree))
        return build_table(model, op, I, degree)

    monkeypatch.setattr(ladder, "_image", counted)
    monkeypatch.setattr(ladder, "_ladder_table", built)
    model = _table_model(n)
    for k in range(7):
        ladder._eigenfunctions(model, "forward", k)
        ladder._eigenfunctions(model, "adjoint", k)
    ascending, gathers[:], builds[:] = sorted(gathers), [], []
    top_first = _table_model(n)
    ladder._eigenfunctions(top_first, "forward", 6)
    ladder._eigenfunctions(top_first, "adjoint", 6)
    assert ascending == sorted(gathers)
    assert len(ascending) == 2 * n * 6
    assert sum(rows for *_, rows in ascending) == 2 * (len(graded_index(n, 6).modes) - 1)
    ops = ("raise_forward", "raise_adjoint")
    assert sorted(builds) == sorted((op, I, 5) for op in ops for I in range(n))
