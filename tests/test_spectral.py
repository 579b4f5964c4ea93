import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import ou_spectral as ou
from ou_spectral import cli, errors, linalg
from ou_spectral.kernels import eval_poly_grid
from ou_spectral.mpoly import MPoly
from ou_spectral.spectral import GRID_CHUNK, battery_polynomials


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


def test_expansion_conjugate_pair_coefficients(four_models, model_spiral):
    # Mode K and its partner, K with each entry moved to the axis of the
    # conjugate eigenvalue, get conjugate coefficients for a real F0.
    rng = np.random.default_rng(9)
    cases = [(model_spiral, ou.GaussianDensity(mean=[0.3, 0.0], cov=model_spiral.Sigma))]
    for model in list(four_models.values()) + [_random_model(100 + n, n) for n in (4, 5)]:
        mean = 0.3 * rng.normal(size=model.dim)
        cases.append((model, ou.GaussianDensity(mean=mean, cov=0.9 * model.Sigma)))
    assert sum(any(m.conj_partner != np.arange(m.dim)) for m, _ in cases) >= 4
    for model, F0 in cases:
        ex = ou.expand_gaussian(model, F0, 4)
        scale = max(abs(c) for c in ex.coeffs.values())
        for K, c in ex.coeffs.items():
            Kc = [0] * model.dim
            for I, k in enumerate(K):
                Kc[model.conj_partner[I]] = k
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
        assert report.passed, f"{name}: {report.residuals}"
        assert set(report.residuals) == {"gradient", "position", "forward", "adjoint"}
        assert report.battery_size == 20


def test_expand_validates_inputs(model_1d):
    with pytest.raises(TypeError):
        ou.expand_gaussian(model_1d, "nope", 3)
    F0 = ou.GaussianDensity(mean=[0.0, 0.0], cov=np.eye(2))
    with pytest.raises(errors.DimensionMismatchError):
        ou.expand_gaussian(model_1d, F0, 3)


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
    digits (see the 1D closed-form test), so the random models start from
    displaced densities.
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
        assert list(ex.coeffs) == list(ref)
        c_ref = np.array(list(ref.values()))
        dc = np.max(np.abs(np.array(list(ex.coeffs.values())) - c_ref))
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


def test_empty_grid_gives_empty_values(model_spiral):
    ex = ou.expand_gaussian(model_spiral, model_spiral.f0, 3)
    out = ou.evaluate_grid_complex(ex, np.zeros((0, 2)), 0.5)
    assert out.shape == (0,) and out.dtype == np.complex128
    assert ou.evaluate_grid(ex, np.zeros((0, 2)), 0.5).shape == (0,)


def test_order_zero_is_the_stationary_mode(model_3d):
    F0 = ou.GaussianDensity(mean=[0.2, -0.1, 0.3], cov=0.7 * model_3d.Sigma)
    ex = ou.expand_gaussian(model_3d, F0, 0)
    assert ex.coeffs == {(0, 0, 0): 1.0}
    pts = np.random.default_rng(2).normal(size=(10, 3))
    npt.assert_allclose(
        ou.evaluate_grid_complex(ex, pts, 0.7), model_3d.f0.pdf_grid(pts), rtol=1e-14
    )


def test_solve_raises_typed_error_on_pruned_pairing():
    # Sigma = 1e6: f_3 and higher are pruned to zero, so <g_K, f_K> = 0.
    model = ou.build_model([[-1.0]], [[2e6]])
    q = ou.ForwardFunction(MPoly(1, {(1,): 1e-3, (3,): 1e-9}), model.f0)
    with pytest.raises(errors.SingularSystemError, match=r"mode \(\d+,\)"):
        ou.solve_inhomogeneous(model, q, 5)
