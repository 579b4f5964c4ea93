import numpy as np
import numpy.testing as npt
import pytest

import ou_spectral as ou
from ou_spectral import errors, linalg
from ou_spectral.mpoly import MPoly
from ou_spectral.spectral import battery_polynomials


def test_expansion_coefficients_1d_closed_form(model_1d):
    # Shifted canonical Gaussian N(m, 1/2): projection on mode n is (2m)^n
    for m in (0.5, 0.3, -0.4):
        F0 = ou.GaussianDensity(mean=[m], cov=[[0.5]])
        ex = ou.expand_gaussian(model_1d, F0, 5)
        for n in range(6):
            npt.assert_allclose(ex.coefficient((n,)), (2 * m) ** n, atol=1e-12)


def test_expansion_stationary_mode_is_one(four_models):
    for model in four_models.values():
        F0 = ou.GaussianDensity(
            mean=0.1 * np.ones(model.dim), cov=0.8 * model.Sigma
        )
        ex = ou.expand_gaussian(model, F0, 2)
        npt.assert_allclose(ex.coefficient((0,) * model.dim), 1.0, atol=1e-12)


def test_expansion_conjugate_pair_coefficients(model_spiral):
    F0 = ou.GaussianDensity(mean=[0.3, 0.0], cov=model_spiral.Sigma)
    ex = ou.expand_gaussian(model_spiral, F0, 4)
    for K in ou.enumerate_modes(2, 4):
        Kc = (K[1], K[0])
        npt.assert_allclose(
            ex.coefficient(Kc), np.conj(ex.coefficient(K)), atol=1e-12
        )


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
