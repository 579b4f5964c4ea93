import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import ou_spectral as ou
from ou_spectral import errors, ladder, verify
from ou_spectral.monomials import graded_index
from ou_spectral.mpoly import MPoly, hermite

from conftest import A_SPIRAL


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
            got = Lf.value(x)
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
    # The block of each order is built once and kept on the model: a
    # second read of a row builds nothing and gathers nothing.
    a = ou.forward_eigenfunction(model_spiral, (2, 2))
    cache = dict(model_spiral._op_cache)
    assert (ladder._eigenblock, "forward", 4) in cache

    def refuse(*args):
        raise AssertionError("a block was built again")

    monkeypatch.setattr(ladder, "_gather", refuse)
    b = ou.forward_eigenfunction(model_spiral, (2, 2))
    assert b.poly == a.poly
    assert model_spiral._op_cache.keys() == cache.keys()
    assert all(model_spiral._op_cache[key] is value for key, value in cache.items())


@pytest.mark.parametrize("c", [1.0, 1e4])
def test_eigenfunction_read_is_from_coeffs_of_its_row(four_models, c):
    # A read views its row of the pruned block; it must be the polynomial
    # that from_coeffs builds from the row, trimmed to the same degree.
    # At c = 1e4 (B times c^2) the top degrees prune away and trim.
    for name, model in four_models.items():
        model = ou.build_model(model.A, model.B * c**2)
        idx = graded_index(model.dim, 6)
        for side in ("forward", "adjoint"):
            for K in idx.modes:
                k = sum(K)
                block = ladder._cached(model, ladder._eigenblock, side, k)
                row = block[idx.row[K] - idx.degree(k).start]
                got = ladder._eigenfunction(model, side, K)
                want = MPoly.from_coeffs(model.dim, row, model.prune_eps)
                assert np.array_equal(got.coeffs, want.coeffs), (name, side, K)
                assert got.degree() == want.degree(), (name, side, K)
                assert got.prune_eps == want.prune_eps
                assert not got.coeffs.flags.writeable


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


def test_forward_function_base_is_checked(model_spiral):
    other = ou.GaussianDensity(mean=[0.1, 0.0], cov=0.5 * np.eye(2))
    f = ou.ForwardFunction(MPoly(2, {(0, 0): 1.0}), other)
    with pytest.raises(errors.DimensionMismatchError):
        ou.apply_forward(model_spiral, f)


def test_prune_eps_propagates_through_model():
    model = ou.build_model(A_SPIRAL, np.eye(2), prune_eps=1e-10)
    f = ou.forward_eigenfunction(model, (2, 1))
    assert f.poly.prune_eps == 1e-10


def test_replaced_model_starts_with_empty_caches():
    # A model rebuilt with dataclasses.replace must not see the eigenfunction
    # blocks and operator tables memoized on the model it was built from.
    model = ou.build_model([[-1.0]], [[1.0]])
    ou.forward_eigenfunction(model, (2,))
    ou.adjoint_eigenfunction(model, (2,))
    # One cache holds the blocks of both sides and the raising tables.
    assert (ladder._eigenblock, "forward", 2) in model._op_cache
    assert (ladder._eigenblock, "adjoint", 2) in model._op_cache
    assert any(key[0] is ladder._ladder_table for key in model._op_cache)
    Sigma = 4.0 * model.Sigma
    m2 = dataclasses.replace(
        model,
        B=4.0 * model.B,
        Sigma=Sigma,
        Sigma_inv=np.linalg.inv(Sigma),
        f0=ou.stationary_density(Sigma),
    )
    assert not m2._op_cache
    f = ou.forward_eigenfunction(m2, (2,))
    assert f.base is m2.f0
    npt.assert_array_equal(f.base.cov, [[2.0]])
    assert f.poly != ou.forward_eigenfunction(model, (2,)).poly


LADDER_OPS = ("raise_forward", "raise_adjoint", "lower_forward", "lower_adjoint")
TABLE_KINDS = {side: (ladder._generator_table, (side,)) for side in ("forward", "adjoint")}
TABLE_KINDS.update({op: (ladder._ladder_table, (op, 0, 1e-13)) for op in LADDER_OPS})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_stacked_gather_equals_one_polynomial_gathers(n, kind):
    # One matrix of a table at the top degree acts on a stack of
    # polynomials of every degree up to it, each of which gathers through
    # the table of its own degree: cut to the columns of degree k, the
    # matrix is bit for bit the matrix of the degree-k table, padded with
    # zero rows.  That its product with a coefficient vector is the
    # gather itself is checked in test_verify.
    build, args = TABLE_KINDS[kind]
    rng = np.random.default_rng(n)
    A = 0.5 * rng.standard_normal((n, n)) - 3.0 * np.eye(n)
    L = rng.standard_normal((n, n))
    model = ou.build_model(A, L @ L.T + 0.2 * np.eye(n))
    top = 4
    rows = [len(graded_index(n, k).modes) for k in range(top + 2)]
    M = verify._matrix(model, build, args, top, rows[top + 1])
    for k in range(top + 1):
        want = verify._matrix(model, build, args, k, rows[k + 1])
        npt.assert_array_equal(M[: rows[k + 1], : rows[k]], want, strict=True)
        assert not M[rows[k + 1] :, : rows[k]].any()
