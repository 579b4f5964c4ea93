"""Results must not depend on units, axes or rotation.

Each config in ``configs/`` is mapped by x -> T x: A -> T A T^-1,
B -> T B T^T, the initial density N(mean, cov) -> N(T mean, T cov T^T)
and each grid point p -> T p.  T is c I for c in ``SCALES``, one seeded
rotation, the reversal of the axes, the per-axis units
diag(1e-4, ..., 1e4) or the shear I + 100 e_1 e_2^T; in one dimension
the last four are the identity.  The transformed model must have the
unit model's drift eigenvalues, ``verify.run_all`` must give every suite
the unit model's verdict, and the spectral density at T p times |det T|
must be the unit model's density at p.  So must each term c_K f_K of the
expansion, whose c_K alone depend on the eigenvector scale, and the
solution P of L P = q for a fixed odd source q, mapped as a density.

The transforms are fixed before the run, and none is dropped for failing.
``verify`` fails at every scale on every config today, except
canonical_1d at c = 1000, and under the per-axis units and the shear on
every config of more than one dimension.  Those cases are strict xfails,
each naming the suites that change verdict at tolerances of 1e-8
(bi-orthogonality and eigen-residuals), 1e-9 (hermite-form) and 1e-10
(ladder factorials).  The scale and unit cases turn into passes once
each suite reads its residual in f0's units.  The commutators and
reconstruction read the operators' weights, each identity relative to
the products that form it, and keep their verdicts under every
transform.  The expansion terms and the solution hold at every scale and
under the per-axis units: no numeric step prunes, so no coefficient is
lost for being small in the units of x.  Under the shear the tables
themselves are off, and the density, the expansion terms and the
solution miss ``DENSITY_BOUND`` on each config of more than one
dimension, strict xfails naming their gap.
"""

import functools
import pathlib

import numpy as np
import pytest

import ou_spectral as ou
from ou_spectral import cli, verify
from ou_spectral.monomials import graded_index

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
CONFIG_NAMES = ("canonical_1d", "diag_2d", "random_3d", "spiral_2d")
SCALES = (1e-8, 1e-3, 1e3, 1e8)
# The shear T = I + SHEAR e_1 e_2^T.
SHEAR = 1e2
TRANSFORMS = tuple(f"c={c:g}" for c in SCALES) + ("rotation", "reversal", "units", "shear")

# Largest relative gap of a drift eigenvalue from the unit model's.
EIGENVALUE_BOUND = 1e-12
# Largest gap of the density times |det T| from the unit model's density,
# relative to the largest unit value over the grid and times; the gaps
# read 1.2e-14 at most.  The expansion terms and the solution are held to
# the same bound, relative to their largest unit value over the grid.
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
    ("random_3d", "c=1000"): ("biorthogonality",),
    ("random_3d", "c=1e+08"): ("biorthogonality",),
    ("spiral_2d", "c=1e-08"): ("biorthogonality",),
    ("spiral_2d", "c=0.001"): ("biorthogonality",),
    ("spiral_2d", "c=1000"): ("biorthogonality", "eigen-residuals", "ladder-factorials"),
    ("spiral_2d", "c=1e+08"): ("biorthogonality", "eigen-residuals", "ladder-factorials"),
    ("diag_2d", "units"): ("biorthogonality",),
    ("random_3d", "units"): ("biorthogonality",),
    ("spiral_2d", "units"): ("biorthogonality",),
    ("diag_2d", "shear"): ("biorthogonality", "hermite-form"),
    ("random_3d", "shear"): ("biorthogonality", "ladder-factorials", "hermite-form"),
    ("spiral_2d", "shear"): ("biorthogonality", "ladder-factorials", "hermite-form"),
}

# The gaps above DENSITY_BOUND, read as the bound reads them, of each
# check of the density, the expansion terms and the solution that fails
# under the shear: the tables themselves are off there, not the checks.
SHEAR_GAPS = {
    "density": {"diag_2d": 1.7e-12, "random_3d": 1.1e-11, "spiral_2d": 1.5e-10},
    "terms": {"diag_2d": 6.3e-2, "random_3d": 1.0e-7, "spiral_2d": 5.3e-4},
    "solution": {"diag_2d": 2.7e-9, "random_3d": 2.7e-10, "spiral_2d": 4.5e-8},
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
    if name == "units":
        return np.diag(np.logspace(-4, 4, n)) if n > 1 else np.eye(1)
    if name == "shear":
        T = np.eye(n)
        if n > 1:
            T[0, 1] = SHEAR
        return T
    return float(name[2:]) * np.eye(n)


@functools.cache
def _frame(config, name):
    """(config, model, T, initial density, grid points) of ``config``
    mapped by the transform ``name``; "unit" is the identity."""
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
    F0 = model.f0
    if cfg.initial is not None:
        mean, cov = cfg.initial
        cov = T @ cov @ T.T
        F0 = ou.GaussianDensity(T @ mean, 0.5 * (cov + cov.T))
    return cfg, model, T, F0, cli._grid_points(cfg) @ T.T


@functools.cache
def _run(config, name):
    """(eigenvalues, verify report, density times |det T| at each time and
    grid point) of ``config`` mapped by the transform ``name``."""
    cfg, model, T, F0, points = _frame(config, name)
    report = verify.run_all(model, cfg.max_order, residual_tol=cfg.tolerances["residual_tol"])
    expansion = ou.expand_gaussian(model, F0, cfg.max_order)
    jac = abs(np.linalg.det(T))
    density = np.array([ou.evaluate_grid(expansion, points, t) * jac for t in cfg.times])
    return model.eig.values, report, density


def _densities(config, name, polys):
    """Each polynomial times the model's f0 at each grid point, times
    |det T|, one row per polynomial of degree up to the config's order."""
    cfg, model, T, _, points = _frame(config, name)
    exps = graded_index(model.dim, cfg.max_order).exponents
    monomials = np.prod(points[:, None, :] ** exps, axis=2)
    weight = model.f0.pdf_grid(points) * abs(np.linalg.det(T))
    return np.array([monomials[:, : p.coeffs.size] @ p.coeffs * weight for p in polys])


@functools.cache
def _terms(config, name):
    """c_K f_K at each grid point times |det T|, one row per mode K up to
    the config's order: ``expand_gaussian``'s coefficient times the public
    forward eigenfunction."""
    cfg, model, _, F0, _ = _frame(config, name)
    expansion = ou.expand_gaussian(model, F0, cfg.max_order)
    modes = graded_index(model.dim, cfg.max_order).modes
    values = _densities(config, name, [ou.forward_eigenfunction(model, K).poly for K in modes])
    return values * expansion.coeffs[:, None]


@functools.cache
def _solution(config, name):
    """P at each grid point times |det T|, for L P = q with q the fixed
    odd source of the unit model mapped as a density: its polynomial
    factor composed with T^-1, times the mapped f0."""
    cfg, model, T, _, _ = _frame(config, name)
    n = model.dim
    rng = np.random.default_rng(34)
    terms = {K: rng.standard_normal() for K in graded_index(n, 3).modes if sum(K) % 2}
    poly = ou.MPoly(n, terms, model.prune_eps)
    if name != "unit":
        poly = poly.affine(np.linalg.inv(T), np.zeros(n))
    P = ou.solve_inhomogeneous(model, ou.ForwardFunction(poly, model.f0), cfg.max_order)
    return _densities(config, name, [P.poly])[0]


def _cases(failures=None, reason=None):
    """Every (config, transform); those in ``failures`` are strict xfails,
    ``reason(transform, value)`` naming the value they read."""
    for config in CONFIG_NAMES:
        for name in TRANSFORMS:
            value = (failures or {}).get((config, name))
            marks = ()
            if value is not None:
                marks = pytest.mark.xfail(
                    strict=True, raises=AssertionError, reason=reason(name, value)
                )
            yield pytest.param(config, name, marks=marks, id=f"{config}-{name}")


@pytest.mark.parametrize("config, name", _cases())
def test_drift_eigenvalues_do_not_depend_on_the_frame(config, name):
    unit, got = _run(config, "unit")[0], _run(config, name)[0]
    assert np.max(np.abs(got - unit) / np.abs(unit)) <= EIGENVALUE_BOUND


def _shear_cases(check):
    """``_cases`` with the shear cases of ``check`` in ``SHEAR_GAPS`` as
    strict xfails naming their gap."""
    return _cases(
        {(config, "shear"): gap for config, gap in SHEAR_GAPS[check].items()},
        lambda name, gap: f"at {name}, the {check} check reads {gap:.2g}",
    )


@pytest.mark.parametrize("config, name", _shear_cases("density"))
def test_propagated_density_does_not_depend_on_the_frame(config, name):
    unit, got = _run(config, "unit")[2], _run(config, name)[2]
    assert np.max(np.abs(got - unit)) <= DENSITY_BOUND * np.max(np.abs(unit))


@pytest.mark.parametrize(
    "config, name",
    _cases(VERDICT_FAILURES, lambda name, suites: f"verify at {name} fails {', '.join(suites)}"),
)
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


@pytest.mark.parametrize("config, name", _shear_cases("terms"))
def test_expansion_terms_do_not_depend_on_the_frame(config, name):
    unit, got = _terms(config, "unit"), _terms(config, name)
    assert np.max(np.abs(got - unit)) <= DENSITY_BOUND * np.max(np.abs(unit))


@pytest.mark.parametrize("config, name", _shear_cases("solution"))
def test_solution_does_not_depend_on_the_frame(config, name):
    unit, got = _solution(config, "unit"), _solution(config, name)
    assert np.max(np.abs(got - unit)) <= DENSITY_BOUND * np.max(np.abs(unit))
