import numpy as np
import numpy.testing as npt
import pytest

from ou_spectral import (
    DimensionMismatchError,
    GaussianDensity,
    MomentReport,
    SimConfig,
    expm,
    simulate,
)
from ou_spectral.kernels import active_backend

from conftest import A_SPIRAL


def test_same_seed_bit_identical(model_1d):
    cfg = SimConfig(paths=500, dt=0.05, t_final=0.5, seed=9)
    F0 = GaussianDensity(np.array([1.0]), np.array([[0.3]]))
    a = simulate(model_1d, F0, cfg)
    b = simulate(model_1d, F0, cfg)
    npt.assert_array_equal(a.mean, b.mean)
    npt.assert_array_equal(a.cov, b.cov)
    npt.assert_array_equal(a.mean_stderr, b.mean_stderr)
    npt.assert_array_equal(a.cov_stderr, b.cov_stderr)

    c = simulate(model_1d, F0, SimConfig(paths=500, dt=0.05, t_final=0.5, seed=10))
    assert np.max(np.abs(c.mean - a.mean)) > 1e-6


def test_report_contents(model_spiral):
    cfg = SimConfig(paths=400, dt=0.05, t_final=0.2, seed=1)
    rep = simulate(model_spiral, model_spiral.f0, cfg)
    assert isinstance(rep, MomentReport)
    assert rep.paths == 400
    assert rep.t_final == 0.2
    assert rep.backend == active_backend()
    assert rep.mean.shape == (2,)
    assert rep.cov.shape == (2, 2)
    npt.assert_allclose(rep.cov, rep.cov.T, atol=1e-15)
    assert np.all(rep.mean_stderr > 0)
    assert np.all(rep.cov_stderr > 0)


def test_stationary_law_is_preserved(model_spiral):
    # Starting from the stationary density, terminal moments must match it
    # to Monte Carlo accuracy.  dt is small enough that the O(dt) weak bias
    # sits well inside the 4-sigma band at this path count.
    cfg = SimConfig(paths=30000, dt=0.005, t_final=1.0, seed=314)
    rep = simulate(model_spiral, model_spiral.f0, cfg)
    assert np.all(np.abs(rep.mean) <= 4.0 * rep.mean_stderr)
    assert np.all(np.abs(rep.cov - model_spiral.Sigma) <= 4.0 * rep.cov_stderr)


def test_mean_matches_exact_propagator(model_spiral):
    m0 = np.array([0.4, -0.2])
    F0 = GaussianDensity(m0, model_spiral.Sigma)
    cfg = SimConfig(paths=40000, dt=0.005, t_final=1.0, seed=2718)
    rep = simulate(model_spiral, F0, cfg)
    target = expm(A_SPIRAL, 1.0) @ m0
    assert np.all(np.abs(rep.mean - target) <= 4.0 * rep.mean_stderr)


def test_weak_bias_shrinks_with_dt(model_1d):
    # Weak order one: the Euler-Maruyama mean for dX = -X dt + dW started
    # at m0 is (1 - dt)^(t/dt) m0, so halving dt should halve the gap to
    # e^(-t) m0.  Averaging over five seeds keeps sampling noise below the
    # bias differences.
    m0 = 3.0
    F0 = GaussianDensity(np.array([m0]), np.array([[0.5]]))
    exact = m0 * np.exp(-1.0)
    errs = []
    for dt in (0.02, 0.01, 0.005):
        means = [
            simulate(
                model_1d, F0, SimConfig(paths=100000, dt=dt, t_final=1.0, seed=s)
            ).mean[0]
            for s in (101, 102, 103, 104, 105)
        ]
        errs.append(abs(np.mean(means) - exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.7 * errs[0]


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(paths=0, dt=0.01, t_final=1.0, seed=1)
    with pytest.raises(ValueError, match="paths must be at least 3"):
        SimConfig(paths=1, dt=0.01, t_final=1.0, seed=1)
    with pytest.raises(ValueError, match="paths must be at least 3"):
        SimConfig(paths=2, dt=0.01, t_final=1.0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(paths=10, dt=0.0, t_final=1.0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(paths=10, dt=-0.1, t_final=1.0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(paths=10, dt=0.5, t_final=0.2, seed=1)


def test_input_checks(model_spiral, model_1d):
    cfg = SimConfig(paths=10, dt=0.1, t_final=0.5, seed=0)
    with pytest.raises(TypeError):
        simulate(model_spiral, "not a density", cfg)
    with pytest.raises(DimensionMismatchError):
        simulate(model_spiral, model_1d.f0, cfg)
