import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from ou_spectral import (
    DimensionMismatchError,
    GaussianDensity,
    MomentReport,
    NonFiniteResultError,
    SimConfig,
    expm,
    simulate,
)
from ou_spectral import kernels

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


@pytest.mark.parametrize("field, value", [("paths", 1000.7), ("paths", 1000.0), ("seed", 1.9)])
def test_simconfig_refuses_non_integer_counts(field, value):
    # paths=1000.7 ran 1000 paths but reported 1000.7 and divided the
    # standard errors by its root; seed=1.9 ran seed 1's stream.
    kwargs = dict(paths=1000, dt=0.01, t_final=1.0, seed=1)
    kwargs[field] = value
    with pytest.raises(TypeError):
        SimConfig(**kwargs)


def test_simconfig_keeps_integer_counts_as_int():
    cfg = SimConfig(paths=np.int64(1000), dt=0.01, t_final=1.0, seed=np.uint64(7))
    assert type(cfg.paths) is int and cfg.paths == 1000
    assert type(cfg.seed) is int and cfg.seed == 7


@pytest.mark.parametrize("t_final", [math.inf, math.nan])
def test_simconfig_refuses_non_finite_t_final(t_final):
    with pytest.raises(ValueError, match="t_final must be finite"):
        SimConfig(paths=10, dt=0.01, t_final=t_final, seed=1)


def test_simconfig_refuses_t_final_off_the_step_grid():
    # round(1.0 / 0.3) = 3 steps stop the paths at t = 0.9, while the
    # exact law would be taken at t = 1.
    with pytest.raises(ValueError, match="integer multiple of dt"):
        SimConfig(paths=10, dt=0.3, t_final=1.0, seed=1)
    with pytest.raises(ValueError, match="integer multiple of dt"):
        SimConfig(paths=10, dt=0.01, t_final=1.0 + 1e-6, seed=1)
    # Multiples up to the rounding of t_final / dt are accepted.
    for dt, t_final, steps in ((0.005, 1.0, 200), (0.1, 0.3, 3), (0.01, 0.03, 3), (0.3, 0.9, 3)):
        assert SimConfig(paths=10, dt=dt, t_final=t_final, seed=1).steps == steps


def test_em_paths_first_selects_rows_of_one_long_call():
    # simulate asks for one block of paths at a time; each block must be
    # the same rows of a single call, bit for bit.
    A = np.array([[-1.0, -2.0], [2.0, -1.0]])
    LB = np.linalg.cholesky(np.array([[1.0, 0.3], [0.3, 0.5]]))
    mean0 = np.array([0.3, -0.1])
    L0 = np.linalg.cholesky(0.5 * np.eye(2))
    whole = kernels.em_paths(A, LB, mean0, L0, 9000, 5, 0.01, 42)
    for first, count in ((0, 50), (17, 4096), (4000, 200), (4095, 2), (4096, 4096), (100, 8900)):
        part = kernels.em_paths(A, LB, mean0, L0, count, 5, 0.01, 42, first=first)
        npt.assert_array_equal(part, whole[first : first + count])


def _two_pass_moments(X):
    """The moments of the rows of X by the two-pass formulas, as one array."""
    N = X.shape[0]
    mean = X.mean(axis=0)
    d = X - mean[None, :]
    cov = (d.T @ d) / (N - 1)
    mean_stderr = d.std(axis=0, ddof=1) / np.sqrt(N)
    prod = d[:, :, None] * d[:, None, :]
    cov_stderr = prod.std(axis=0, ddof=1) / np.sqrt(N)
    return mean, cov, mean_stderr, cov_stderr


@pytest.mark.parametrize("paths", [3, 4095, 4096, 4097, 8197])
def test_simulate_matches_two_pass_reference(four_models, paths):
    # The initial mean sits far from zero, so moments summed about the
    # origin would lose most of their digits.
    for name in ("canonical_1d", "spiral_2d", "random_3d"):
        model = four_models[name]
        n = model.dim
        F0 = GaussianDensity(np.linspace(3.0, -2.0, n), 0.5 * np.eye(n) + 0.1)
        cfg = SimConfig(paths=paths, dt=0.05, t_final=0.1, seed=1234)
        rep = simulate(model, F0, cfg)
        X = kernels.em_paths(
            model.A,
            np.linalg.cholesky(model.B),
            F0.mean,
            np.linalg.cholesky(F0.cov),
            paths,
            cfg.steps,
            cfg.dt,
            cfg.seed,
        )
        got = (rep.mean, rep.cov, rep.mean_stderr, rep.cov_stderr)
        for g, want in zip(got, _two_pass_moments(X)):
            assert g.shape == want.shape
            assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want)), name
        assert rep.paths == paths


def test_simulate_transient_memory_does_not_grow_with_paths(model_spiral):
    cfg = dict(dt=0.01, t_final=0.03, seed=5)
    transient = []
    tracemalloc.start()
    try:
        # A first call fills numpy's caches of small blocks, which stay.
        simulate(model_spiral, model_spiral.f0, SimConfig(paths=200000, **cfg))
        for paths in (20000, 200000):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rep = simulate(model_spiral, model_spiral.f0, SimConfig(paths=paths, **cfg))
            transient.append(tracemalloc.get_traced_memory()[1] - before)
            del rep
    finally:
        tracemalloc.stop()
    # Holding every terminal state and its centred copies took about
    # 48 B per path, 9.6 MB at 2e5 paths.
    assert abs(transient[1] - transient[0]) <= 1024
    assert max(transient) <= 2 * 2**20


def test_input_checks(model_spiral, model_1d):
    cfg = SimConfig(paths=10, dt=0.1, t_final=0.5, seed=0)
    with pytest.raises(TypeError):
        simulate(model_spiral, "not a density", cfg)
    with pytest.raises(DimensionMismatchError):
        simulate(model_spiral, model_1d.f0, cfg)


@pytest.mark.parametrize(
    "t_final, moments_finite", [(1500.0, False), (249.0, True)], ids=["moments", "stderr"]
)
def test_paths_that_overflow_raise_naming_the_step(model_spiral, t_final, moments_finite):
    # dt = 1.5 puts |1 + dt lambda| at 3.04 on the spiral: every step grows
    # the paths.  At t = 1500 they overflow, and every moment read NaN,
    # with a RuntimeWarning; at t = 249 (166 steps, about 1e80) the moments
    # are finite and only the fourth-power sums of the standard errors
    # overflow.
    cfg = SimConfig(paths=1000, dt=1.5, t_final=t_final, seed=1)
    with pytest.raises(NonFiniteResultError, match=r"dt=1\.5 .*3\.04"):
        simulate(model_spiral, model_spiral.f0, cfg)
    with np.errstate(all="ignore"):
        X = kernels.em_paths(
            model_spiral.A, np.eye(2), np.zeros(2), model_spiral.f0.factor, 1000,
            cfg.steps, cfg.dt, cfg.seed,
        )
        assert np.all(np.isfinite(X.mean(axis=0))) == moments_finite
