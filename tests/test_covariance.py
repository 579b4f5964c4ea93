"""Results must not depend on units, axes or rotation.

Each config in ``configs/`` is mapped by x -> T x: A -> T A T^-1,
B -> T B T^T, the initial density N(mean, cov) -> N(T mean, T cov T^T)
and each grid point p -> T p.  T is c I for c in ``SCALES``, one seeded
rotation, or the reversal of the axes; in one dimension the last two are
the identity.  The transformed model must have the unit model's drift
eigenvalues, ``verify.run_all`` must give every suite the unit model's
verdict, and the spectral density at T p times |det T| must be the unit
model's density at p.

The scales are fixed before the run, and none is dropped for failing.
``verify`` fails at every one of them on every config today, except
canonical_1d at c = 1000, so those cases are strict xfails, each naming
the suites that change verdict at tolerances of 1e-8 (bi-orthogonality
and eigen-residuals), 1e-10 (ladder factorials) and 1e-9 (commutators
and reconstruction).  They turn into passes once the numerics run in the
canonical frame.
"""

import functools
import pathlib

import numpy as np
import pytest

import ou_spectral as ou
from ou_spectral import cli, verify

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
CONFIG_NAMES = ("canonical_1d", "diag_2d", "random_3d", "spiral_2d")
SCALES = (1e-8, 1e-3, 1e3, 1e8)
TRANSFORMS = tuple(f"c={c:g}" for c in SCALES) + ("rotation", "reversal")

# Largest relative gap of a drift eigenvalue from the unit model's.
EIGENVALUE_BOUND = 1e-12
# Largest gap of the density times |det T| from the unit model's density,
# relative to the largest unit value over the grid and times; the gaps
# read 1.2e-14 at most.
DENSITY_BOUND = 1e-12

# The suites that change verdict today, each failing on a model that
# passes every suite in unit scale.  A case whose set of suites differs
# fails outright, not as its strict xfail.
VERDICT_FAILURES = {
    ("canonical_1d", "c=1e-08"): ("biorthogonality",),
    ("canonical_1d", "c=0.001"): ("biorthogonality",),
    ("canonical_1d", "c=1e+08"): ("biorthogonality",),
    ("diag_2d", "c=1e-08"): ("biorthogonality",),
    ("diag_2d", "c=0.001"): ("biorthogonality",),
    ("diag_2d", "c=1000"): ("biorthogonality",),
    ("diag_2d", "c=1e+08"): ("biorthogonality",),
    ("random_3d", "c=1e-08"): ("biorthogonality",),
    ("random_3d", "c=0.001"): ("biorthogonality",),
    ("random_3d", "c=1000"): ("biorthogonality", "commutators"),
    ("random_3d", "c=1e+08"): ("biorthogonality", "commutators", "operator-reconstruction"),
    ("spiral_2d", "c=1e-08"): ("biorthogonality",),
    ("spiral_2d", "c=0.001"): ("biorthogonality",),
    ("spiral_2d", "c=1000"): (
        "biorthogonality", "eigen-residuals", "ladder-factorials", "commutators"
    ),
    ("spiral_2d", "c=1e+08"): (
        "biorthogonality",
        "eigen-residuals",
        "ladder-factorials",
        "commutators",
        "operator-reconstruction",
    ),
}


def _transform(n, name):
    if name == "rotation":
        rng = np.random.default_rng(29)
        Q, R = np.linalg.qr(rng.standard_normal((n, n)))
        Q *= np.sign(np.diag(R))
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        return Q
    if name == "reversal":
        return np.eye(n)[::-1]
    return float(name[2:]) * np.eye(n)


@functools.cache
def _run(config, name):
    """(eigenvalues, verify report, density times |det T| at each time and
    grid point) of ``config`` mapped by the transform ``name``; "unit" is
    the identity."""
    cfg = cli.load_config(CONFIGS / f"{config}.json")
    n = cfg.dimension
    T = np.eye(n) if name == "unit" else _transform(n, name)
    B = T @ cfg.B @ T.T
    model = ou.build_model(
        T @ cfg.A @ np.linalg.inv(T),
        0.5 * (B + B.T),
        tol=cfg.tolerances["defect_tol"],
        prune_eps=cfg.tolerances["prune_eps"],
    )
    report = verify.run_all(model, cfg.max_order, residual_tol=cfg.tolerances["residual_tol"])
    F0 = model.f0
    if cfg.initial is not None:
        mean, cov = cfg.initial
        cov = T @ cov @ T.T
        F0 = ou.GaussianDensity(T @ mean, 0.5 * (cov + cov.T))
    expansion = ou.expand_gaussian(model, F0, cfg.max_order)
    points = cli._grid_points(cfg) @ T.T
    jac = abs(np.linalg.det(T))
    density = np.array([ou.evaluate_grid(expansion, points, t) * jac for t in cfg.times])
    return model.eig.values, report, density


def _cases(failures=None):
    for config in CONFIG_NAMES:
        for name in TRANSFORMS:
            suites = (failures or {}).get((config, name))
            marks = ()
            if suites is not None:
                reason = f"verify at {name} fails {', '.join(suites)}"
                marks = pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)
            yield pytest.param(config, name, marks=marks, id=f"{config}-{name}")


@pytest.mark.parametrize("config, name", _cases())
def test_drift_eigenvalues_do_not_depend_on_the_frame(config, name):
    unit, got = _run(config, "unit")[0], _run(config, name)[0]
    assert np.max(np.abs(got - unit) / np.abs(unit)) <= EIGENVALUE_BOUND


@pytest.mark.parametrize("config, name", _cases())
def test_propagated_density_does_not_depend_on_the_frame(config, name):
    unit, got = _run(config, "unit")[2], _run(config, name)[2]
    assert np.max(np.abs(got - unit)) <= DENSITY_BOUND * np.max(np.abs(unit))


@pytest.mark.parametrize("config, name", _cases(VERDICT_FAILURES))
def test_verify_verdicts_do_not_depend_on_the_frame(config, name):
    unit, got = _run(config, "unit")[1], _run(config, name)[1]
    assert unit.passed
    changed = {
        s.name: s.worst for s, s0 in zip(got.suites, unit.suites) if s.passed != s0.passed
    }
    expected = set(VERDICT_FAILURES.get((config, name), ()))
    if set(changed) != expected:
        pytest.fail(f"suites that change verdict: {changed}, expected {sorted(expected)}")
    assert changed == {}
