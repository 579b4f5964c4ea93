import dataclasses
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import ou_spectral as ou
from ou_spectral import cli, errors, gaussian, hermite_form, ladder, linalg, spectral, verify
from ou_spectral.gaussian import GRID_CHUNK
from ou_spectral.kernels import eval_poly_grid
from ou_spectral.monomials import graded_index, parent
from ou_spectral.mpoly import MPoly
from ou_spectral.verify import battery_polynomials


def test_expansion_coefficients_1d_closed_form(model_1d):
    # For N(m, C) on the canonical model, with a = 2 m and M = 4 (C - 1/2),
    # c_n = n! [s^n] exp(a s + M s^2 / 2)
    #     = sum_k n! a^(n-2k) (M/2)^k / (k! (n-2k)!),
    # which is (2m)^n for C = 1/2.  Near the stationary density (last case)
    # the Wick sums of the MPoly route cancel and lose about 6e-12; the
    # recursion must not.
    for m, C in ((0.5, 0.5), (0.3, 0.5), (-0.4, 0.5), (3.7e-4, 0.45)):
        F0 = ou.GaussianDensity(mean=[m], cov=[[C]])
        ex = ou.expand_gaussian(model_1d, F0, 8)
        a = 2 * Fraction(m)
        M = 4 * (Fraction(C) - Fraction(1, 2))
        for n in range(9):
            exact = sum(
                Fraction(math.factorial(n), math.factorial(k) * math.factorial(n - 2 * k))
                * a ** (n - 2 * k)
                * (M / 2) ** k
                for k in range(n // 2 + 1)
            )
            assert abs(ex.coefficient((n,)) - float(exact)) <= 1e-15, (m, C, n)


def test_expansion_stationary_mode_is_one(four_models):
    for model in four_models.values():
        F0 = ou.GaussianDensity(
            mean=0.1 * np.ones(model.dim), cov=0.8 * model.Sigma
        )
        ex = ou.expand_gaussian(model, F0, 2)
        npt.assert_allclose(ex.coefficient((0,) * model.dim), 1.0, atol=1e-12)


def test_coefficient_checks_the_mode_as_the_eigenfunctions_do(model_diag):
    F0 = ou.GaussianDensity(mean=[0.2, -0.1], cov=0.9 * model_diag.Sigma)
    ex = ou.expand_gaussian(model_diag, F0, 3)
    assert ex.coefficient((1, 2)) == ex.coeffs[graded_index(2, 3).row[(1, 2)]]
    assert ex.coefficient(np.array([0, 3])) == ex.coeffs[graded_index(2, 3).row[(0, 3)]]
    for K in [(1,), (1, 0, 0), (-1, 0)]:
        with pytest.raises(errors.ModeIndexMismatchError):
            ex.coefficient(K)
    with pytest.raises(TypeError):
        ex.coefficient((1.5, 0))
    with pytest.raises(ValueError, match=r"\(4, 0\).*max_order 3"):
        ex.coefficient((4, 0))


def _conj_partner(model):
    """Index of each mode's conjugate eigenvalue; a real one is its own."""
    lam = model.eig.values
    return [
        I if z.imag == 0.0 else int(np.argmin(np.abs(lam - np.conj(z))))
        for I, z in enumerate(lam)
    ]


def test_expansion_conjugate_pair_coefficients(four_models, model_spiral):
    # Mode K and its partner, K with each entry moved to the axis of the
    # conjugate eigenvalue, get conjugate coefficients for a real F0.
    rng = np.random.default_rng(9)
    cases = [(model_spiral, ou.GaussianDensity(mean=[0.3, 0.0], cov=model_spiral.Sigma))]
    for model in list(four_models.values()) + [_random_model(100 + n, n) for n in (4, 5)]:
        mean = 0.3 * rng.normal(size=model.dim)
        cases.append((model, ou.GaussianDensity(mean=mean, cov=0.9 * model.Sigma)))
    partners = [_conj_partner(m) for m, _ in cases]
    assert sum(p != list(range(len(p))) for p in partners) >= 4
    for (model, F0), partner in zip(cases, partners):
        ex = ou.expand_gaussian(model, F0, 4)
        scale = np.max(np.abs(ex.coeffs))
        for K, c in zip(graded_index(model.dim, 4).modes, ex.coeffs):
            Kc = [0] * model.dim
            for I, k in enumerate(K):
                Kc[partner[I]] = k
            assert abs(ex.coefficient(Kc) - np.conj(c)) <= 1e-12 * scale


def test_stationary_initial_density_reproduced_exactly(model_spiral):
    ex = ou.expand_gaussian(model_spiral, model_spiral.f0, 6)
    pts = np.random.default_rng(1).normal(size=(20, 2))
    for t in (0.0, 0.5, 2.0):
        vals = ou.evaluate_grid(ex, pts, t)
        npt.assert_allclose(vals, model_spiral.f0.pdf_grid(pts), atol=1e-12)


def test_evaluate_scalar_matches_grid(model_1d):
    F0 = ou.GaussianDensity(mean=[0.5], cov=[[0.5]])
    ex = ou.expand_gaussian(model_1d, F0, 6)
    pts = np.linspace(-2, 2, 9).reshape(-1, 1)
    grid = ou.evaluate_grid(ex, pts, 0.3)
    for k, x in enumerate(pts):
        assert ou.evaluate(ex, x, 0.3) == pytest.approx(grid[k], rel=1e-12)


def test_evaluate_rejects_negative_time(model_1d):
    ex = ou.expand_gaussian(model_1d, model_1d.f0, 2)
    with pytest.raises(ValueError):
        ou.evaluate(ex, [0.0], -0.1)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_evaluate_rejects_non_finite_time(model_1d, t):
    ex = ou.expand_gaussian(model_1d, ou.GaussianDensity(mean=[0.5], cov=[[0.5]]), 2)
    pts = np.linspace(-1.0, 1.0, 3).reshape(-1, 1)
    with pytest.raises(ValueError, match="finite"):
        ou.evaluate(ex, [0.0], t)
    with pytest.raises(ValueError, match="finite"):
        ou.evaluate_complex(ex, [0.0], t)
    with pytest.raises(ValueError, match="finite"):
        ou.evaluate_grid(ex, pts, t)
    with pytest.raises(ValueError, match="finite"):
        ou.evaluate_grid_complex(ex, pts, t)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_exact_propagator_rejects_non_finite_time_up_front(model_1d, monkeypatch, t):
    def no_expm(A, t):
        raise AssertionError("expm reached with a non-finite time")

    monkeypatch.setattr(linalg, "expm", no_expm)
    with pytest.raises(ValueError, match="finite"):
        ou.exact_gaussian_propagate(model_1d, model_1d.f0, t)


@pytest.mark.parametrize("t", [1j, 0.5 + 0j])
def test_grid_evaluation_refuses_a_complex_time(model_1d, t):
    # np.isfinite passed a complex time, and t < 0 then raised an untyped
    # TypeError.
    ex = ou.expand_gaussian(model_1d, model_1d.f0, 2)
    with pytest.raises(ValueError, match="^t must be real$"):
        ou.evaluate_grid_complex(ex, np.zeros((3, 1)), t)


@pytest.mark.parametrize("t", [1j, 0.5 + 0j])
def test_exact_propagator_refuses_a_complex_time(model_1d, t):
    with pytest.raises(ValueError, match="^t must be real$"):
        ou.exact_gaussian_propagate(model_1d, model_1d.f0, t)


@pytest.mark.parametrize("t", [1e100, 1e300])
def test_exact_propagator_refuses_a_flow_that_is_not_finite(model_spiral, model_3d, t):
    # At these times scipy's exp(tA) is NaN on both models; the density
    # built from it raised a bare ValueError about its mean.
    for model in (model_spiral, model_3d):
        with pytest.raises(errors.NonFiniteResultError, match=re.escape(f"t={t}")):
            ou.exact_gaussian_propagate(model, model.f0, t)


def test_propagation_converges_to_oracle_1d(model_1d):
    F0 = ou.GaussianDensity(mean=[0.5], cov=[[0.5]])
    pts = np.linspace(-3, 3, 61).reshape(-1, 1)
    errs = []
    for order in (2, 4, 6, 8):
        ex = ou.expand_gaussian(model_1d, F0, order)
        worst = 0.0
        for t in (0.1, 0.5, 1.0):
            got = ou.evaluate_grid(ex, pts, t)
            want = ou.exact_gaussian_propagate(model_1d, F0, t).pdf_grid(pts)
            worst = max(worst, float(np.max(np.abs(got - want))))
        errs.append(worst)
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] <= 1e-4


def test_exact_propagator_identity_at_zero_and_infinity(model_3d):
    F0 = ou.GaussianDensity(mean=[0.2, -0.1, 0.3], cov=0.7 * model_3d.Sigma)
    at0 = ou.exact_gaussian_propagate(model_3d, F0, 0.0)
    npt.assert_allclose(at0.mean, F0.mean, atol=1e-14)
    npt.assert_allclose(at0.cov, F0.cov, atol=1e-14)
    late = ou.exact_gaussian_propagate(model_3d, F0, 60.0)
    npt.assert_allclose(late.mean, 0.0, atol=1e-12)
    npt.assert_allclose(late.cov, model_3d.Sigma, atol=1e-12)


def test_exact_propagator_semigroup(model_spiral):
    F0 = ou.GaussianDensity(mean=[0.3, -0.2], cov=0.6 * np.eye(2))
    one = ou.exact_gaussian_propagate(model_spiral, F0, 0.9)
    two = ou.exact_gaussian_propagate(
        model_spiral, ou.exact_gaussian_propagate(model_spiral, F0, 0.4), 0.5
    )
    npt.assert_allclose(one.mean, two.mean, atol=1e-12)
    npt.assert_allclose(one.cov, two.cov, atol=1e-12)


def test_solve_linear_source_closed_form(model_1d):
    # L(-x f0) = x f0 for the canonical model, so q = x f0 gives P = -x f0
    q = ou.ForwardFunction(MPoly(1, {(1,): 1.0}), model_1d.f0)
    P = ou.solve_inhomogeneous(model_1d, q, 6)
    assert ou.coeff_distance(P.poly, MPoly(1, {(1,): -1.0})) <= 1e-12


def test_solve_residual_and_unsolvable(model_spiral):
    rng = np.random.default_rng(23)
    terms = {}
    for K in ou.enumerate_modes(2, 4):
        terms[K] = complex(rng.normal())
    p = MPoly(2, terms)
    # project out the stationary component so a solution exists
    c0 = ou.expectation(p, model_spiral.f0)
    p = p - c0.real
    q = ou.ForwardFunction(p, model_spiral.f0)
    P = ou.solve_inhomogeneous(model_spiral, q, 4)
    resid = ou.coeff_distance(ou.apply_forward(model_spiral, P).poly, q.poly)
    assert resid <= 1e-9
    with pytest.raises(errors.NotSolvableError):
        ou.solve_inhomogeneous(
            model_spiral,
            ou.ForwardFunction(MPoly(2, {(0, 0): 1.0}), model_spiral.f0),
            4,
        )


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "-1"])
def test_solve_rejects_a_solvability_tol_that_is_not_finite_and_nonnegative(model_1d, tol):
    # NaN and inf turned the solvability check off: q = (1 + x^2) f0 has
    # stationary component 1.5, and NaN returned a P with L P - q off by 1.5.
    q = ou.ForwardFunction(MPoly(1, {(0,): 1.0, (2,): 1.0}), model_1d.f0)
    with pytest.raises(ValueError, match="solvability_tol must be finite and nonnegative"):
        ou.solve_inhomogeneous(model_1d, q, 4, solvability_tol=tol)


def test_solve_zero_source_gives_zero(model_1d):
    q = ou.ForwardFunction(MPoly.zero(1), model_1d.f0)
    P = ou.solve_inhomogeneous(model_1d, q, 4)
    assert P.poly.is_zero()


def test_battery_is_deterministic():
    a = battery_polynomials(2)
    b = battery_polynomials(2)
    assert len(a) == 20
    for p, q in zip(a, b):
        assert p == q
    degrees = sorted({p.degree() for p in a})
    assert degrees == [0, 1, 2, 3, 4, 5]


def test_reconstruction_report(four_models):
    for name, model in four_models.items():
        report = ou.reconstruct_operators_check(model)
        assert report.passed, f"{name}: {report.lines}"
        assert report.name == "operator-reconstruction"
        names = [line.split(":")[0] for line in report.lines]
        assert names == ["adjoint", "forward", "gradient", "position"]
        assert report == verify.reconstruction_suite(model)


def test_expand_validates_inputs(model_1d):
    F0 = ou.GaussianDensity(mean=[0.0, 0.0], cov=np.eye(2))
    for take in (ou.expand_gaussian, ou.exact_gaussian_propagate):
        with pytest.raises(TypeError, match="^expected a GaussianDensity$"):
            take(model_1d, "nope", 3)
        with pytest.raises(errors.DimensionMismatchError, match="^density of dimension 2 for a 1-"):
            take(model_1d, F0, 3)


@pytest.mark.parametrize("order", [2.7, 3.0, "3"])
def test_an_order_that_is_not_an_integer_is_refused(model_spiral, order):
    # int() read max_order 2.7 as 2 and "3" as 3.
    F0 = ou.GaussianDensity(mean=[0.1, 0.0], cov=np.eye(2))
    with pytest.raises(TypeError):
        ou.expand_gaussian(model_spiral, F0, order)
    q = ou.ForwardFunction(MPoly(2, {(1, 0): 1.0}), model_spiral.f0)
    with pytest.raises(TypeError):
        ou.solve_inhomogeneous(model_spiral, q, order)


# ---- the ladder recursions against the exact MPoly route ----


def _reference_coeffs(model, F0, order):
    return {
        K: ou.expectation(ou.adjoint_eigenfunction(model, K).conj(), F0)
        for K in ou.enumerate_modes(model.dim, order)
    }


def _reference_values(model, coeffs, pts, t):
    poly = MPoly.zero(model.dim, model.prune_eps)
    for K, alpha in coeffs.items():
        weight = alpha / ou.mode_normalization(K) * np.exp(ou.eigenvalue(model, K) * t)
        poly = poly + weight * ou.forward_eigenfunction(model, K).poly
    exps, coeffs = poly.to_arrays()
    return eval_poly_grid(exps, coeffs, pts) * model.f0.pdf_grid(pts)


def _random_model(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) - 1.5 * np.sqrt(n) * np.eye(n)
    L = rng.normal(size=(n, n))
    return ou.build_model(A, L @ L.T + 0.5 * np.eye(n))


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _recursion_cases():
    """(name, model, F0, order): each shipped config with its own initial
    density (a displaced one where it has none), then random models.

    Near the stationary density the reference's Wick sums cancel and lose
    up to 5e-12 of max|c| (see the 1D closed-form test), more than this
    gate allows, so the random models start from displaced densities.
    """
    rng = np.random.default_rng(7)
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = cli.load_config(str(path))
        model = ou.build_model(cfg.A, cfg.B)
        if cfg.initial is None:
            F0 = ou.GaussianDensity(mean=0.2 * np.ones(model.dim), cov=0.7 * model.Sigma)
        else:
            F0 = ou.GaussianDensity(*cfg.initial)
        yield path.stem, model, F0, cfg.max_order
    for n, order in [(2, 6), (3, 5), (4, 4), (5, 3), (6, 3)]:
        model = _random_model(100 + n, n)
        sd = np.sqrt(np.diag(model.Sigma))
        F0 = ou.GaussianDensity(mean=0.5 * sd * rng.normal(size=n), cov=0.6 * model.Sigma)
        yield f"random n={n}", model, F0, order


def test_recursions_match_mpoly_reference():
    rng = np.random.default_rng(8)
    for name, model, F0, order in _recursion_cases():
        n = model.dim
        ex = ou.expand_gaussian(model, F0, order)
        ref = _reference_coeffs(model, F0, order)
        c_ref = np.array(list(ref.values()))
        assert ex.coeffs.shape == c_ref.shape
        dc = np.max(np.abs(ex.coeffs - c_ref))
        assert dc <= 1e-12 * np.max(np.abs(c_ref)), name
        pts = 1.5 * rng.normal(size=(300, n)) @ np.linalg.cholesky(model.Sigma).T
        for t in (0.0, 0.4):
            v_ref = _reference_values(model, ref, pts, t)
            dv = np.max(np.abs(ou.evaluate_grid_complex(ex, pts, t) - v_ref))
            assert dv <= 1e-10 * np.max(np.abs(v_ref)), (name, t)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_rescaled_model_matches_exact_propagator(c):
    # x -> c x keeps A and scales B by c^2.  Nothing is pruned on the
    # recursion route, so the error must not depend on c.
    A = np.array([[-1.0, -2.0], [2.0, -1.0]])
    model = ou.build_model(A, c * c * np.array([[1.0, 0.3], [0.3, 0.8]]))
    F0 = ou.GaussianDensity(mean=c * np.array([0.1, -0.05]), cov=0.95 * model.Sigma)
    ex = ou.expand_gaussian(model, F0, 5)
    pts = 1.5 * np.random.default_rng(3).normal(size=(200, 2)) @ np.linalg.cholesky(
        model.Sigma
    ).T
    for t in (0.3, 1.0):
        exact = ou.exact_gaussian_propagate(model, F0, t).pdf_grid(pts)
        err = np.max(np.abs(ou.evaluate_grid(ex, pts, t) - exact)) / np.max(exact)
        assert err <= 1e-4, (c, t, err)


@pytest.mark.parametrize("c", [1e-8, 10**-5.5, 10**5.5, 1e8])
def test_grid_values_do_not_depend_on_units(c):
    # x -> c x keeps A, scales B by c^2 and the initial density's mean by
    # c and covariance by c^2; the density itself scales by c^-n.
    A = np.array([[-0.9, 0.4, 0.1], [-0.5, -1.3, 0.2], [0.1, 0.3, -0.8]])
    B = np.array([[1.0, 0.2, 0.0], [0.2, 0.7, -0.1], [0.0, -0.1, 0.5]])
    unit = ou.build_model(A, B)
    scaled = ou.build_model(A, c * c * B)
    mean, cov = np.array([0.2, -0.1, 0.15]), 0.8 * unit.Sigma
    ex1 = ou.expand_gaussian(unit, ou.GaussianDensity(mean=mean, cov=cov), 5)
    exc = ou.expand_gaussian(scaled, ou.GaussianDensity(mean=c * mean, cov=c * c * cov), 5)
    pts = 1.5 * np.random.default_rng(12).normal(size=(500, 3)) @ np.linalg.cholesky(
        unit.Sigma
    ).T
    for t in (0.0, 0.4):
        v1 = ou.evaluate_grid_complex(ex1, pts, t)
        vc = c**3 * ou.evaluate_grid_complex(exc, c * pts, t)
        assert np.max(np.abs(vc - v1)) <= 1e-13 * np.max(np.abs(v1)), (c, t)


def test_grid_table_rows_are_the_forward_eigenfunctions(four_models):
    # Row K of the forward closed form, summed over the monomials of the
    # canonical coordinates y = z / sqrt(2), z = W^T x, is the ladder's
    # p_K(x) at every point.
    rng = np.random.default_rng(13)
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = cli.load_config(str(path))
        model = four_models[path.stem]
        idx = graded_index(model.dim, cfg.max_order)
        modes, norm = idx.modes, idx.normalizations
        T = hermite_form._hermite_table(model, "forward", cfg.max_order)[0]
        lam = ladder._eigenvalues(model, "forward", idx.exponents)
        pts = 1.5 * rng.normal(size=(40, model.dim)) @ np.linalg.cholesky(model.Sigma).T
        y = pts @ model.f0.whitener / np.sqrt(2.0)
        monomials = np.prod(y[:, None, :] ** np.array(modes)[None, :, :], axis=2)
        for k, K in enumerate(modes):
            want = np.array([complex(ou.forward_eigenfunction(model, K).poly(x)) for x in pts])
            got = monomials @ T[k]
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (path.stem, K)
            assert lam[k] == pytest.approx(ou.eigenvalue(model, K), rel=1e-15, abs=1e-15)
            assert norm[k] == ou.mode_normalization(K)


A_4D = np.diag([-1.0, -1.4, -1.8, -2.2]) + 0.3 * np.array(
    [[0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1], [1, 0, -1, 0]]
)
B_4D = np.eye(4) + 0.2 * np.ones((4, 4))


A_5D = -np.diag([1.0, 1.3, 1.6, 1.9, 2.2]) + 0.3 * (np.eye(5, k=1) - np.eye(5, k=-1))


def _transients(read, grids):
    """Traced peak of ``read`` on each grid beyond what it leaves
    allocated, its output, after a first call on the last grid builds
    the model's tables and fills numpy's caches of small blocks, which
    stay."""
    transient = []
    tracemalloc.start()
    try:
        read(grids[-1])
        for pts in grids:
            tracemalloc.reset_peak()
            out = read(pts)
            current, peak = tracemalloc.get_traced_memory()
            transient.append(peak - current)
            del out
    finally:
        tracemalloc.stop()
    return transient


@pytest.mark.parametrize(
    "n, order", [(3, 5), (4, 4)], ids=["n3-order5-R56", "n4-order4-R70"]
)
def test_grid_evaluation_memory_does_not_grow_with_points(model_3d, n, order):
    model = model_3d if n == 3 else ou.build_model(A_4D, B_4D)
    F0 = ou.GaussianDensity(mean=[0.2, -0.1, 0.3, 0.1][:n], cov=0.7 * model.Sigma)
    ex = ou.expand_gaussian(model, F0, order)
    rng = np.random.default_rng(14)
    grids = [rng.normal(size=(P, n)) for P in (20000, 200000)]
    transient = _transients(lambda pts: ou.evaluate_grid_complex(ex, pts, 0.5), grids)
    # One block of 56 or 70 monomials is 1.8 or 2.3 MB; a whole-grid work
    # array would add at least 450 B per point, 81 MB between the grids.
    assert abs(transient[1] - transient[0]) <= 1024
    assert max(transient) <= 4 * 2**20


@pytest.mark.parametrize("read", ["_points", "pdf_grid", "evaluate_grid_complex"])
@pytest.mark.parametrize("n", [2, 5])
def test_grid_reads_hold_one_block(model_spiral, n, read):
    # Every read of a grid holds one block beyond its output.  At order 0
    # the monomial buffer is one row, so a whole-grid temporary would show
    # above the block buffers: z and x - mean in ``pdf_grid`` (16 n bytes
    # a point, 16 MB at n = 5), or the flags of a scan for values that are
    # not finite, n bytes a point of the points and 2 of the values.
    model = model_spiral if n == 2 else ou.build_model(A_5D, np.eye(5) + 0.2 * np.ones((5, 5)))
    F0 = ou.GaussianDensity(mean=0.2 + 0.1 * np.arange(n), cov=0.7 * model.Sigma)
    ex = ou.expand_gaussian(model, F0, 0)
    calls = {
        "_points": lambda pts: gaussian._points(pts, n),
        "pdf_grid": F0.pdf_grid,
        "evaluate_grid_complex": lambda pts: ou.evaluate_grid_complex(ex, pts, 0.5),
    }
    rng = np.random.default_rng(15)
    grids = [rng.normal(size=(P, n)) for P in (20000, 200000)]
    transient = _transients(calls[read], grids)
    assert abs(transient[1] - transient[0]) <= 1024
    assert max(transient) <= 2**20


def _reference_grid(expansion, pts, t):
    """The block loop of grid evaluation with each block whitened alone,
    into buffers of its own size, y = z / sqrt(2) and a fresh monomial
    array per block: the reference the buffered loop must equal bit for
    bit."""
    model = expansion.model
    idx = graded_index(model.dim, expansion.max_order)
    T = hermite_form._hermite_table(model, "forward", expansion.max_order)[0]
    lam = ladder._eigenvalues(model, "forward", idx.exponents)
    out = np.empty(pts.shape[0], dtype=np.complex128)
    b = (expansion.coeffs / idx.normalizations * np.exp(lam * t)) @ T
    B2 = np.stack([b.real, b.imag])
    for lo in range(0, pts.shape[0], GRID_CHUNK):
        [(_, z, f0)] = model.f0._whitened_blocks(pts[lo : lo + GRID_CHUNK])
        y = z / np.sqrt(2.0)
        X = np.empty((len(idx.modes), len(f0)))
        X[0] = 1.0
        for k, K in enumerate(idx.modes[1:], 1):
            I, P = parent(K)
            np.multiply(y[I], X[idx.row[P]], out=X[k])
        re, im = B2 @ X
        np.multiply(re, f0, out=out.real[lo : lo + len(f0)])
        np.multiply(im, f0, out=out.imag[lo : lo + len(f0)])
    return out


@pytest.mark.parametrize(
    "name, c",
    [(name, 1.0) for name in ("canonical_1d", "diag_2d", "spiral_2d", "random_3d")]
    + [("random_3d", 1e-4), ("random_3d", 1e4)],
)
def test_buffered_grid_evaluation_is_the_reference_loop(name, c):
    # The buffers are reused across blocks and a short block fills their
    # prefix; neither may change a bit of any value.
    cfg = cli.load_config(str(CONFIGS / f"{name}.json"))
    model = ou.build_model(cfg.A, cfg.B * c**2)
    root = np.linalg.cholesky(model.Sigma)
    rng = np.random.default_rng(21)
    F0 = ou.GaussianDensity(mean=0.3 * root @ rng.normal(size=model.dim), cov=0.7 * model.Sigma)
    ex = ou.expand_gaussian(model, F0, cfg.max_order)
    for P in (1, GRID_CHUNK - 1, GRID_CHUNK, GRID_CHUNK + 1, 3 * GRID_CHUNK + 17):
        pts = 1.5 * rng.normal(size=(P, model.dim)) @ root.T
        for t in (0.0, 0.4):
            got = ou.evaluate_grid_complex(ex, pts, t)
            assert np.array_equal(got, _reference_grid(ex, pts, t)), (P, t)


def test_grid_chunks_are_invisible(model_3d):
    F0 = ou.GaussianDensity(mean=[0.2, -0.1, 0.3], cov=0.7 * model_3d.Sigma)
    ex = ou.expand_gaussian(model_3d, F0, 3)
    pts = np.random.default_rng(11).normal(size=(GRID_CHUNK + 1, 3))
    whole = ou.evaluate_grid_complex(ex, pts, 0.5)
    parts = np.concatenate(
        [
            ou.evaluate_grid_complex(ex, pts[:GRID_CHUNK], 0.5),
            ou.evaluate_grid_complex(ex, pts[GRID_CHUNK:], 0.5),
        ]
    )
    assert whole.tobytes() == parts.tobytes()


def test_evaluate_refuses_complex_points(model_spiral):
    # Converting to float would evaluate at the real parts of the points.
    ex = ou.expand_gaussian(model_spiral, model_spiral.f0, 3)
    for call in (ou.evaluate_grid_complex, ou.evaluate_grid):
        with pytest.raises(ValueError, match="^points must have real entries$"):
            call(ex, [[0.5, 0.0], [0.0, 0.5j]], 0.5)
    with pytest.raises(ValueError, match="^x must have real entries$"):
        ou.evaluate(ex, [0.5j, 0.0], 0.5)


def test_empty_grid_gives_empty_values(model_spiral):
    ex = ou.expand_gaussian(model_spiral, model_spiral.f0, 3)
    out = ou.evaluate_grid_complex(ex, np.zeros((0, 2)), 0.5)
    assert out.shape == (0,) and out.dtype == np.complex128
    assert ou.evaluate_grid(ex, np.zeros((0, 2)), 0.5).shape == (0,)


@pytest.mark.parametrize("order", [0, 3])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_evaluate_rejects_non_finite_points(model_spiral, bad, order):
    # The point is at fault, not a mode value or weight: a ValueError
    # naming its row in the whole grid, past the first block.
    F0 = ou.GaussianDensity(mean=[0.3, 0.0], cov=0.5 * np.eye(2))
    ex = ou.expand_gaussian(model_spiral, F0, order)
    pts = np.zeros((GRID_CHUNK + 5, 2))
    pts[GRID_CHUNK + 2, 1] = bad
    with pytest.raises(ValueError, match=f"row {GRID_CHUNK + 2} "):
        ou.evaluate_grid_complex(ex, pts, 0.5)
    with pytest.raises(ValueError, match="finite"):
        ou.evaluate(ex, [bad, 0.0], 0.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_evaluate_checks_points_before_reading_a_table(model_spiral, monkeypatch, bad):
    # Each point is checked once where it enters: a point that is not
    # finite raises before the eigenfunction table is read.
    ex = ou.expand_gaussian(model_spiral, model_spiral.f0, 3)

    def no_table(*args, **kwargs):
        raise AssertionError("a table was read for a grid that is not finite")

    monkeypatch.setattr(spectral, "_eigenfunctions", no_table)
    pts = np.zeros((GRID_CHUNK + 5, 2))
    pts[GRID_CHUNK + 2, 0] = bad
    with pytest.raises(ValueError, match=f"row {GRID_CHUNK + 2} "):
        ou.evaluate_grid_complex(ex, pts, 0.5)


def test_order_zero_is_the_stationary_mode(model_3d):
    F0 = ou.GaussianDensity(mean=[0.2, -0.1, 0.3], cov=0.7 * model_3d.Sigma)
    ex = ou.expand_gaussian(model_3d, F0, 0)
    assert ex.coeffs.tolist() == [1.0]
    pts = np.random.default_rng(2).normal(size=(10, 3))
    npt.assert_allclose(
        ou.evaluate_grid_complex(ex, pts, 0.7), model_3d.f0.pdf_grid(pts), rtol=1e-14
    )


# ---- the degree-by-degree solve ----


def _mode_sum_solve(model, q, order):
    """Reference solve by the eigenmode sum
    P = sum_{K != 0} <g_K, q> / (lambda_K <g_K, f_K>) f_K.

    Exact once ``order`` reaches deg q, but each pairing is a Wick sum over
    ladder-built eigenfunctions, so it loses digits with the conditioning
    of the eigenvectors; use it on well-conditioned models only.
    """
    out = MPoly.zero(model.dim, model.prune_eps)
    for K in ou.enumerate_modes(model.dim, order)[1:]:
        g = ou.adjoint_eigenfunction(model, K)
        f = ou.forward_eigenfunction(model, K)
        norm = ou.inner_product(g, f)
        out = out + (ou.inner_product(g, q) / (ou.eigenvalue(model, K) * norm)) * f.poly
    return out


def _odd_source(rng, model, order, scale=1.0):
    """Every odd-degree monomial up to ``order`` with a complex standard
    normal coefficient, degree d scaled by scale^-d: zero stationary
    component under any centred Gaussian, so L P = q is solvable."""
    terms = {
        K: complex(*rng.standard_normal(2)) * scale ** -sum(K)
        for K in ou.enumerate_modes(model.dim, order)
        if sum(K) % 2 == 1
    }
    return ou.ForwardFunction(MPoly(model.dim, terms, model.prune_eps), model.f0)


def _relative_residual(model, P, q):
    resid = ou.coeff_distance(ou.apply_forward(model, P).poly, q.poly)
    return resid / max(1.0, q.poly.max_coeff())


def _pool_model(rng, n, spectrum):
    """Stable drift with decay rates in [0.5, 2.5] (one conjugate pair for
    a complex spectrum) behind a change of basis of condition below 10,
    and a random SPD diffusion."""
    D = np.diag(-rng.uniform(0.5, 2.5, size=n))
    if spectrum == "complex":
        a, b = rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.5)
        D[:2, :2] = [[-a, -b], [b, -a]]
    while True:
        S = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        if np.linalg.cond(S) < 10.0:
            break
    M = rng.standard_normal((n, n))
    return ou.build_model(S @ D @ np.linalg.inv(S), M @ M.T / n + 0.5 * np.eye(n))


def test_solve_matches_mode_sum_reference():
    # The mode sum is the less accurate side: on the random models its
    # relative residual reaches 9e-9 where the degree solve stays below
    # 7e-12, so agreement is checked to 1e-9 of the largest coefficient.
    rng = np.random.default_rng(31)
    cases = []
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = cli.load_config(str(path))
        model = ou.build_model(cfg.A, cfg.B)
        if cfg.source is not None:
            q = ou.ForwardFunction(MPoly(model.dim, cfg.source, model.prune_eps), model.f0)
        else:
            q = _odd_source(rng, model, cfg.max_order)
        cases.append((path.stem, model, q, cfg.max_order))
    for n, order in [(2, 6), (3, 5), (4, 4), (5, 3)]:
        model = _random_model(100 + n, n)
        cases.append((f"random n={n}", model, _odd_source(rng, model, order), order))
    for name, model, q, order in cases:
        P = ou.solve_inhomogeneous(model, q, order)
        ref = _mode_sum_solve(model, q, order)
        d = ou.coeff_distance(P.poly, ref)
        assert d <= 1e-9 * ref.max_coeff(), (name, d)


@pytest.mark.parametrize("seed", range(9001, 9011))
def test_solve_residual_gate_on_unseen_seeds(seed):
    # The spectral-stream pool shapes (n, order, spectrum), each model
    # with its own odd complex source; exact up to round-off.
    rng = np.random.default_rng(seed)
    for n, order, spectrum in [(2, 6, "complex"), (3, 5, "real"), (4, 4, "complex"), (5, 3, "complex")]:
        model = _pool_model(rng, n, spectrum)
        q = _odd_source(rng, model, order)
        P = ou.solve_inhomogeneous(model, q, order)
        assert P.poly.degree() <= order
        assert _relative_residual(model, P, q) <= 1e-12, (seed, n, order)


def test_solve_memory_stays_below_one_dense_generator_matrix():
    # n = 5 up to degree 7 has R = 792 monomials: a dense R x R generator
    # matrix alone takes 4.79 MiB.  The solve builds the blocks of one
    # degree at a time, from the generator table of that degree.
    rng = np.random.default_rng(2027)
    model = _pool_model(rng, 5, "complex")
    q = _odd_source(rng, model, 7)
    assert len(graded_index(5, 7).modes) == 792
    tracemalloc.start()
    try:
        P = ou.solve_inhomogeneous(model, q, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20, peak
    assert _relative_residual(model, P, q) <= 1e-12


def _generator_matrix_loops(M, B, idx):
    # Reference fill by exponent-tuple arithmetic, in the same (column,
    # i, j) order, so each entry sums the same terms in the same order.
    n = M.shape[0]
    G = np.zeros((len(idx.modes), len(idx.modes)))
    for col, a in enumerate(idx.modes):
        for i in range(n):
            if a[i] == 0:
                continue
            low = a[:i] + (a[i] - 1,) + a[i + 1 :]
            for j in range(n):
                G[idx.row[low[:j] + (low[j] + 1,) + low[j + 1 :]], col] += a[i] * M[i, j]
                if low[j]:
                    b = low[:j] + (low[j] - 1,) + low[j + 1 :]
                    G[idx.row[b], col] += 0.5 * B[i, j] * a[i] * low[j]
    return G


def test_solve_blocks_are_the_forward_operator(four_models):
    # Column a of the generator matrix is f0^-1 L(x^a f0) over the
    # monomials up to degree 4; its degree-k block D_k has the eigenvalues
    # lambda_K, |K| = k.  The matrix of the generator table equals the
    # tuple-arithmetic fill, and each block that the solve reads, D_k and
    # the Hessian block, is bit for bit the same block of that matrix.
    models = list(four_models.values()) + [_random_model(104, 4)]
    generator = (ladder._generator_table, ("forward",), 4)
    for model in models:
        n = model.dim
        idx = graded_index(n, 4)
        M = ladder.forward_drift(model)
        G = ladder._matrix(model, *generator)
        assert np.array_equal(G, _generator_matrix_loops(M, model.B, idx)), n
        for k in range(1, 5):
            s = idx.degree(k)
            for cols in [idx.degree(j) for j in (k, k + 2) if j <= 4]:
                block = ladder._matrix(model, *generator, rows=s, cols=cols)
                npt.assert_array_equal(block, G[s, cols], strict=True)
            lams = [ou.eigenvalue(model, K) for K in idx.modes[s]]
            gap = np.abs(np.subtract.outer(np.linalg.eigvals(G[s, s]), lams))
            worst = max(gap.min(axis=0).max(), gap.min(axis=1).max())
            assert worst <= 1e-9 * max(abs(lam) for lam in lams), (n, k)
        for col, a in enumerate(idx.modes):
            f = ou.ForwardFunction(MPoly(n, {a: 1.0}, model.prune_eps), model.f0)
            img = ou.apply_forward(model, f).poly
            assert set(img.terms) <= set(idx.row), (n, a)
            for r, b in enumerate(idx.modes):
                assert abs(img.terms.get(b, 0.0) - G[r, col]) <= 1e-12, (n, a, b)


def test_solve_closed_form_at_high_diffusion():
    # A = -1, B = 2e6, Sigma = 1e6: L(p f0) = (-x p' + 1e6 p'') f0.  The
    # eigenmode route pruned f_3 and higher away and could not solve this.
    model = ou.build_model([[-1.0]], [[2e6]])
    q = ou.ForwardFunction(MPoly(1, {(1,): 1e-3, (3,): 1e-9}), model.f0)
    P = ou.solve_inhomogeneous(model, q, 5)
    exact = MPoly(1, {(1,): -3e-3, (3,): -1e-9 / 3.0})
    assert set(P.poly.terms) == {(1,), (3,)}
    assert ou.coeff_distance(P.poly, exact) <= 1e-18


A_RESCALE = np.array([[-1.0, -2.0], [2.0, -1.0]])
B_RESCALE = np.array([[1.0, 0.3], [0.3, 0.8]])


def test_solve_rescaled_high_scale_model():
    # x -> c x keeps A and scales B by c^2; a source in scaled units has
    # degree d scaled by c^-d.  The eigenmode route raised
    # SingularSystemError on this model.
    c = 1.3e5
    model = ou.build_model(A_RESCALE, c * c * B_RESCALE)
    q = _odd_source(np.random.default_rng(5), model, 5, scale=c)
    assert _relative_residual(model, ou.solve_inhomogeneous(model, q, 5), q) <= 1e-12


@pytest.mark.parametrize("c", [10**-5.5, 1.3e5])
def test_solve_does_not_depend_on_units(c):
    # With nothing pruned, the source q1(x / c) has the solution P1(x / c):
    # the coefficient of x^a times c^|a| is that of the unit-scale solution.
    unit = ou.build_model(A_RESCALE, B_RESCALE, prune_eps=0.0)
    scaled = ou.build_model(A_RESCALE, c * c * B_RESCALE, prune_eps=0.0)
    q1 = _odd_source(np.random.default_rng(6), unit, 5)
    q = ou.ForwardFunction(q1.poly.affine(np.eye(2) / c, np.zeros(2)), scaled.f0)
    P = ou.solve_inhomogeneous(scaled, q, 5).poly
    want = ou.solve_inhomogeneous(unit, q1, 5).poly
    assert set(P.terms) == set(want.terms)
    for a, w in want.terms.items():
        assert abs(P.terms[a] * c ** sum(a) - w) <= 1e-14 * want.max_coeff(), a
    P = ou.ForwardFunction(P, scaled.f0)
    assert _relative_residual(scaled, P, q) <= 1e-12


def test_solve_real_source_gives_real_solution_of_its_degree(model_spiral):
    q = ou.ForwardFunction(MPoly(2, {(1, 0): 1e8, (2, 1): 0.5e8}), model_spiral.f0)
    P = ou.solve_inhomogeneous(model_spiral, q, 6)
    assert P.poly.terms
    assert all(c.imag == 0.0 for c in P.poly.terms.values())
    assert P.poly.degree() == 3
    assert _relative_residual(model_spiral, P, q) <= 1e-14


def test_solve_defines_its_inputs(model_spiral):
    model = model_spiral
    q = ou.ForwardFunction(MPoly(2, {(1, 0): 1.0, (2, 1): 0.5}), model.f0)
    with pytest.raises(ValueError, match="max_order"):
        ou.solve_inhomogeneous(model, q, 2)
    other = ou.GaussianDensity(mean=np.zeros(2), cov=2.0 * model.Sigma)
    with pytest.raises(errors.DimensionMismatchError, match="stationary density"):
        ou.solve_inhomogeneous(model, ou.ForwardFunction(q.poly, other), 3)
    # A copy of f0 is the same density.
    same = ou.GaussianDensity(mean=model.f0.mean.copy(), cov=model.f0.cov.copy())
    P = ou.solve_inhomogeneous(model, ou.ForwardFunction(q.poly, same), 3)
    assert P.poly == ou.solve_inhomogeneous(model, q, 3).poly


def test_a_source_on_another_base_fails_solve_as_apply_forward(model_spiral):
    # The solve repeated the base check of apply_forward and raised
    # ValueError where apply_forward raises DimensionMismatchError.
    other = ou.GaussianDensity(mean=np.zeros(2), cov=2.0 * model_spiral.Sigma)
    q = ou.ForwardFunction(MPoly(2, {(1, 0): 1.0}), other)
    with pytest.raises(Exception) as solve:
        ou.solve_inhomogeneous(model_spiral, q, 3)
    with pytest.raises(Exception) as apply:
        ou.apply_forward(model_spiral, q)
    assert type(solve.value) is type(apply.value) is errors.DimensionMismatchError


def test_solve_overflow_raises_typed_error(model_spiral):
    # p_5 is about 2e307; the Hessian step to degree 3 multiplies it past
    # the float range.
    for c in (1e308, float("inf")):
        q = ou.ForwardFunction(MPoly(2, {(5, 0): c}), model_spiral.f0)
        with pytest.raises(errors.NonFiniteResultError, match="not finite"):
            ou.solve_inhomogeneous(model_spiral, q, 5)


@pytest.mark.parametrize(
    "terms",
    [
        {(0, 0): float("nan")},
        {(0, 0): float("nan"), (1, 0): 1.0},
        {(0, 0): float("inf"), (1, 0): 1.0},
    ],
    ids=["nan", "nan+x1", "inf+x1"],
)
def test_solve_rejects_a_non_finite_source(model_spiral, terms):
    # The solvability check compares |c0| with a bound that is False for a
    # NaN c0, and infinite with an infinite one, so such a constant term
    # was dropped: the first source gave P = 0, the others a finite P.
    q = ou.ForwardFunction(MPoly(2, terms), model_spiral.f0)
    with pytest.raises(errors.NonFiniteResultError, match="not finite"):
        ou.solve_inhomogeneous(model_spiral, q, 3)


def test_a_warm_solve_builds_no_table(monkeypatch):
    # Every solve reads the rows of the model's one forward generator
    # table, built by the first solve: a second solve, at the same or a
    # lower degree, builds nothing.
    model = _random_model(205, 3)
    rng = np.random.default_rng(5)
    q5, q3 = _odd_source(rng, model, 5), _odd_source(rng, model, 3)
    want5 = ou.solve_inhomogeneous(model, q5, 5).poly
    want3 = ou.solve_inhomogeneous(_random_model(205, 3), q3, 3).poly

    def refuse(*args, **kwargs):
        raise AssertionError("a warm solve built a table")

    for module in (ladder, spectral):
        monkeypatch.setattr(module, "operator_table", refuse, raising=False)
    assert ou.solve_inhomogeneous(model, q5, 5).poly == want5
    assert ou.solve_inhomogeneous(model, q3, 3).poly == want3


def _eigenfunctions_memoized(model):
    """The keys of the eigenfunction tables memoized on ``model``, either
    side."""
    return [key for key in model._op_cache if key[0] is ladder._eigentable]


@pytest.fixture
def no_eigenfunctions(monkeypatch):
    def refuse(model, K):
        raise AssertionError("an eigenfunction was built")

    for name in ("forward_eigenfunction", "adjoint_eigenfunction"):
        monkeypatch.setattr(ladder, name, refuse)
        monkeypatch.setattr(spectral, name, refuse, raising=False)


def test_solve_builds_no_eigenfunction(no_eigenfunctions):
    model = _random_model(203, 3)
    q = _odd_source(np.random.default_rng(2), model, 5)
    P = ou.solve_inhomogeneous(model, q, 5)
    assert _relative_residual(model, P, q) <= 1e-12
    assert not _eigenfunctions_memoized(model)


def test_expand_and_evaluate_build_no_eigenfunction(no_eigenfunctions):
    model = _random_model(203, 3)
    F0 = ou.GaussianDensity(mean=[0.2, -0.1, 0.3], cov=0.7 * model.Sigma)
    ex = ou.expand_gaussian(model, F0, 5)
    pts = np.random.default_rng(3).normal(size=(50, 3))
    assert np.all(np.isfinite(ou.evaluate_grid_complex(ex, pts, 0.5)))
    assert not _eigenfunctions_memoized(model)


def _bits(a):
    """The bits of an array, so that equality also tells signed zeros apart."""
    return np.ascontiguousarray(a).view(np.int64)


def test_grid_tables_read_below_their_top_order_match_a_direct_build(four_models):
    # The model keeps one forward closed form, at the highest order read,
    # and grid evaluation keeps nothing else: a lower order reads its
    # leading block, which must equal the table built at that order bit
    # for bit, and so must grid values read after an evaluation at the top
    # order.
    models = dict(four_models)
    models.update({f"random_n{n}": _random_model(77 + n, n) for n in (2, 3, 4)})
    rng = np.random.default_rng(77)
    for name, model in models.items():
        model = dataclasses.replace(model)
        F0 = ou.GaussianDensity(mean=0.1 * np.ones(model.dim), cov=0.8 * model.Sigma)
        pts = rng.normal(size=(60, model.dim)) @ np.linalg.cholesky(model.Sigma).T
        ou.evaluate_grid_complex(ou.expand_gaussian(model, F0, 6), pts, 0.3)
        key = (hermite_form._hermite_table, "forward")
        assert set(model._op_cache) == {key}
        top, closed = model._op_cache[key]
        assert top == 6
        for k in range(6, -1, -1):
            (built,) = hermite_form._hermite_table(model, "forward", k)
            rows = len(built)
            assert np.array_equal(_bits(closed[:rows, :rows]), _bits(built)), (name, k)
            ex = ou.expand_gaussian(model, F0, k)
            fresh = dataclasses.replace(ex, model=dataclasses.replace(model))
            want = ou.evaluate_grid_complex(fresh, pts, 0.3)
            got = ou.evaluate_grid_complex(ex, pts, 0.3)
            assert np.array_equal(_bits(got), _bits(want)), (name, k)
        assert set(model._op_cache) == {key}


# Two models of the spectral-stream pool (``perfbench/gen.py``,
# ``spectral_pool(11)``, models 2 and 4, at their orders 4 and 5), on which
# ``exponents @ values`` differs in the last bit from the mode-ordered sum
# of ``eigenvalue`` on 3 rows.
POOL_MODELS = {
    "pool-11 model 2": (
        [
            [-1.9098432895524804, -1.1914535395376977, -0.5465876800954218, 0.41517104780458686],
            [2.9511192536915365, -1.8864487521491156, 1.2829845231347716, 0.06745669622395493],
            [1.285094353860095, 0.6909939270204944, -1.4004591058883566, -0.3677233403303597],
            [0.3060182001344269, 0.0438359911655075, 0.07020824121676601, -1.2531230649631098],
        ],
        [
            [1.1921859844073985, -0.010160602238678028, 0.2528196975012214, -0.768094518502346],
            [-0.010160602238678028, 0.5298747312745924, -0.021960151643151744, -0.02977988284874811],
            [0.2528196975012214, -0.021960151643151744, 0.9048377909396372, -0.04936938199970994],
            [-0.768094518502346, -0.02977988284874811, -0.04936938199970994, 1.669766265940957],
        ],
        4,
    ),
    "pool-11 model 4": (
        [[-1.6541872796301391, -0.04916847736677424], [-0.01704708140507369, -1.445937647374212]],
        [[2.794155699118772, -0.4151489853752801], [-0.4151489853752801, 0.9339176333748627]],
        5,
    ),
}


def test_every_route_reads_eigenvalue_bit_for_bit(four_models):
    # lambda_K has one formula, ``eigenvalue``'s sum in mode order, and the
    # adjoint's is its conjugate.  Grid evaluation and the eigen-residual
    # suite read the vector of that sum (``ladder._eigenvalues``), which
    # must equal ``eigenvalue`` bit for bit, signed zeros included, on the
    # configs at c = 1, 1e-4 and 1e4 (B -> c^2 B) and on the pool models.
    cases = {name: (ou.build_model(A, B), order) for name, (A, B, order) in POOL_MODELS.items()}
    for name, model in four_models.items():
        for c in (1.0, 1e-4, 1e4):
            cases[f"{name} c={c:g}"] = (ou.build_model(model.A, c * c * model.B), 6)

    for name, (model, order) in cases.items():
        idx = graded_index(model.dim, order)
        want = np.array([ou.eigenvalue(model, K) for K in idx.modes])
        routes = {
            "forward": ladder._eigenvalues(model, "forward", idx.exponents),
            "adjoint": np.conj(ladder._eigenvalues(model, "adjoint", idx.exponents)),
        }
        for route, lam in routes.items():
            # A real spectrum gives real vectors, read as complex exactly.
            assert np.array_equal(_bits(lam.astype(complex)), _bits(want)), (name, route)
