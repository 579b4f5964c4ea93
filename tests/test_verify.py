"""The verify suites against a direct evaluation.

The commutator and reconstruction suites check their identities on the
n x n weights of the operators, and each gather table once against the
weights it is built from: its matrix on the check degree must equal the
matrix pushed from the weights.  Each such matrix times a polynomial's
coefficient vector must be the polynomial's own gather.  A perturbed
table weight, or a formula bug in the table builder, must fail the suite
that reads the table, and under a perturbed weight the references below,
which apply every public operator to one battery polynomial at a time,
must read no more than the suite.  The other suites read the
eigenfunction tables, one per side; each table row must be its
parent's row raised by the public per-polynomial operator, bit for bit,
and ``run_all`` must call none of those operators.  The bi-orthogonality
suite takes every pairing from one Gram matrix; each entry must match
its own ``inner_product``, and a perturbed pair above order 4 must fail
it.  A model whose Sigma misses the Lyapunov equation must fail
``run_all``.  The eigen-residual and ladder-factorial suites read each
operator from the ladder's one table of it, at the highest degree read;
a test-local copy of them that reads one table per input degree must
give the same worst residuals.
"""

import dataclasses
import functools
import importlib
import inspect
import json
import pathlib
import pkgutil

import numpy as np
import numpy.testing as npt
import pytest

import ou_spectral
from ou_spectral import cli, hermite_form, ladder, monomials, mpoly, spectral, verify
from ou_spectral.gaussian import ForwardFunction, inner_product
from ou_spectral.ladder import (
    adjoint_eigenfunction,
    apply_adjoint,
    apply_forward,
    build_model,
    forward_eigenfunction,
    lower_adjoint,
    lower_forward,
    raise_adjoint,
    raise_forward,
)
from ou_spectral.monomials import enumerate_modes, graded_index, mode_normalization
from ou_spectral.mpoly import MPoly, coeff_distance
from ou_spectral.verify import battery_polynomials

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
CONFIG_NAMES = ("canonical_1d", "diag_2d", "random_3d", "spiral_2d")


def _config_model(name):
    cfg = cli.load_config(str(CONFIGS / f"{name}.json"))
    return cli._build(cfg), cfg.max_order


def _random_model(seed=20261018, n=3):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) - 2.5 * np.eye(n)
    L = rng.standard_normal((n, n))
    B = L @ L.T + 0.2 * np.eye(n)
    return build_model(A, B)


def _reference_commutators(model):
    n = model.dim
    worst = 0.0
    for p in battery_polynomials(n):
        fwd = ForwardFunction(p, model.f0)
        for I in range(n):
            lam = model.eig.values[I]

            a = apply_forward(model, raise_forward(model, I, fwd)).poly
            b = raise_forward(model, I, apply_forward(model, fwd)).poly
            c = raise_forward(model, I, fwd).poly
            d = coeff_distance(a - b, lam * c)
            worst = max(worst, d / max(1.0, c.max_coeff()))

            a = apply_adjoint(model, raise_adjoint(model, I, p))
            b = raise_adjoint(model, I, apply_adjoint(model, p))
            c = raise_adjoint(model, I, p)
            d = coeff_distance(a - b, np.conj(lam) * c)
            worst = max(worst, d / max(1.0, c.max_coeff()))

            for J in range(n):
                a = lower_adjoint(model, J, raise_adjoint(model, I, p))
                b = raise_adjoint(model, I, lower_adjoint(model, J, p))
                target = (2.0 if I == J else 0.0) * p
                d = coeff_distance(a - b, target)
                worst = max(worst, d / max(1.0, p.max_coeff()))

                a = lower_forward(model, J, raise_forward(model, I, fwd)).poly
                b = raise_forward(model, I, lower_forward(model, J, fwd)).poly
                d = coeff_distance(a - b, target)
                worst = max(worst, d / max(1.0, p.max_coeff()))
    return worst


def _reference_reconstruction(model):
    n = model.dim
    Wc = np.conj(model.eig.left)
    Ec = np.conj(model.eig.right)
    lams = model.eig.values
    G = Wc @ model.Sigma @ Wc.T
    worst = {"gradient": 0.0, "position": 0.0, "forward": 0.0, "adjoint": 0.0}

    def rel(d, *scales):
        return d / max(1.0, *scales)

    for p in battery_polynomials(n):
        lows = [lower_adjoint(model, I, p) for I in range(n)]
        raises_ = [raise_adjoint(model, I, p) for I in range(n)]
        for i in range(n):
            lhs = p.diff(i)
            rhs = MPoly.zero(n, p.prune_eps)
            for I in range(n):
                rhs = rhs + Wc[I, i] * lows[I]
            d = rel(coeff_distance(lhs, rhs), lhs.max_coeff(), rhs.max_coeff())
            worst["gradient"] = max(worst["gradient"], d)

            lhs = MPoly.variable(n, i, p.prune_eps) * p
            rhs = MPoly.zero(n, p.prune_eps)
            for I in range(n):
                corr = MPoly.zero(n, p.prune_eps)
                for J in range(n):
                    corr = corr + (2.0 * G[I, J]) * lows[J]
                rhs = rhs + 0.5 * Ec[i, I] * (raises_[I] + corr)
            d = rel(coeff_distance(lhs, rhs), lhs.max_coeff(), rhs.max_coeff())
            worst["position"] = max(worst["position"], d)

        lhs = apply_adjoint(model, p)
        rhs = MPoly.zero(n, p.prune_eps)
        for I in range(n):
            rhs = rhs + (0.5 * np.conj(lams[I])) * raise_adjoint(model, I, lows[I])
        d = rel(coeff_distance(lhs, rhs), lhs.max_coeff(), rhs.max_coeff(), p.max_coeff())
        worst["adjoint"] = max(worst["adjoint"], d)

        fwd = ForwardFunction(p, model.f0)
        lhs = apply_forward(model, fwd).poly
        rhs = MPoly.zero(n, p.prune_eps)
        for I in range(n):
            rhs = rhs + (0.5 * lams[I]) * raise_forward(
                model, I, lower_forward(model, I, fwd)
            ).poly
        d = rel(coeff_distance(lhs, rhs), lhs.max_coeff(), rhs.max_coeff(), p.max_coeff())
        worst["forward"] = max(worst["forward"], d)
    return worst


def _rescaled_config_model(name, c):
    """The config's model under x -> c x: A kept, B times c^2."""
    model, _ = _config_model(name)
    return build_model(model.A, model.B * c**2)


# Inputs whose coefficients span many orders of magnitude, where an
# absolute threshold would decide which coefficients of a gather survive:
# rescaled units and a stiff drift.
IMAGE_MODELS = {
    "random_3d_seeded": _random_model,
    "random_3d_c1e-4": lambda: _rescaled_config_model("random_3d", 1e-4),
    "random_3d_c1e4": lambda: _rescaled_config_model("random_3d", 1e4),
    "stiff_2d": lambda: build_model(np.diag([-(10**3.5), -0.3]), np.eye(2)),
}


def _rows(n, degree):
    return len(graded_index(n, degree).modes)


def _tables(model):
    """(build, args) of every gather table the two operator suites read."""
    out = [(ladder._generator_table, (side,)) for side in ("forward", "adjoint")]
    out += [
        (ladder._ladder_table, (op, I))
        for op in ("raise_forward", "raise_adjoint", "lower_forward", "lower_adjoint")
        for I in range(model.dim)
    ]
    return out


@pytest.mark.parametrize("name", CONFIG_NAMES + tuple(IMAGE_MODELS))
def test_shared_images_match_direct_evaluation(name):
    # The matrix of each table at the check degree, times the coefficient
    # vector of a battery polynomial of that degree or less, is the
    # polynomial's own gather, which reads the table of its own degree:
    # the suites read against their weights the operators that the public
    # per-polynomial API applies.
    if name in IMAGE_MODELS:
        model = IMAGE_MODELS[name]()
    else:
        model, _ = _config_model(name)
    n, d = model.dim, verify.CHECK_DEGREE
    polys = battery_polynomials(n)
    vectors = np.zeros((_rows(n, d), len(polys)), dtype=complex)
    for j, p in enumerate(polys):
        vectors[: p.coeffs.size, j] = p.coeffs
    for build, args in _tables(model):
        images = ladder._matrix(model, build, args, d) @ vectors
        for image, p in zip(images.T, polys):
            want = ladder._apply_table(model, build, args, p).coeffs
            gap = np.abs(image[: want.size] - want).max(initial=0.0)
            assert gap <= 1e-15 * np.abs(image).max(), (build.__name__, args, p.degree())
            assert np.abs(image[want.size :]).max(initial=0.0) < p.prune_eps


def _perturb_largest(model, build, args, factor):
    """Scale by ``factor`` the largest weight of the operator on degree
    ``CHECK_DEGREE`` in the model's one table of it, grown first to the
    degree above, so that no read up to that degree rebuilds it; the
    suites and the per-polynomial references both read that table."""
    _, src, weight = build(model, *args, verify.CHECK_DEGREE)
    s, r = np.unravel_index(np.argmax(np.abs(weight)), weight.shape)
    ladder._table(model, build, args, verify.CHECK_DEGREE + 1)
    src_top, weight_top, _ = ladder._table(model, build, args, verify.CHECK_DEGREE)
    assert src_top[s, r] == src[s, r]
    weight_top[s, r] *= factor


@pytest.mark.parametrize("name", ["spiral_2d", "random_3d"])
def test_perturbed_raising_weight_fails_the_commutators(name):
    # The one weight is perturbed in the table the suite reads against its
    # weights and in each table the battery's gathers read; the suite
    # reads at least what the battery reads.
    model, _ = _config_model(name)
    _perturb_largest(model, ladder._ladder_table, ("raise_forward", 0), 1.0 + 1e-9)
    result = verify.commutator_suite(model)
    assert not result.passed
    assert result.worst >= _reference_commutators(model)


@pytest.mark.parametrize("name", ["spiral_2d", "random_3d"])
def test_perturbed_generator_weight_fails_the_reconstruction(name):
    # At 1 + 1e-9 the forward residual reads the tolerance itself.
    model, _ = _config_model(name)
    _perturb_largest(model, ladder._generator_table, ("forward",), 1.0 + 1e-8)
    result = verify.reconstruction_suite(model)
    assert not result.passed
    assert result.worst >= max(_reference_reconstruction(model).values())


@pytest.mark.parametrize("name", ["canonical_1d", "spiral_2d", "random_3d"])
def test_ladder_identities_pass_in_small_units(name):
    # Under x -> 1e-8 x the lowering weights are about 1e-16.  No
    # intermediate image is pruned, so none of them is lost as dust.
    model = _rescaled_config_model(name, 1e-8)
    assert verify.commutator_suite(model).passed
    assert verify.reconstruction_suite(model).passed


@pytest.mark.parametrize("suite", ["commutator_suite", "reconstruction_suite"])
@pytest.mark.parametrize("name", ["spiral_2d", "random_3d"])
def test_ladder_identities_pass_in_large_units(name, suite):
    # At c = 1e4 the lowering weights grow as c^2 and the raising weights
    # shrink as c^-2.  Each weight identity is relative to its largest
    # product, so none is read against a floor of 1.
    assert getattr(verify, suite)(_rescaled_config_model(name, 1e4)).passed


# The same perturbations in other units: each fails its suite and run_all.
PERTURBATIONS = {
    "raising": (ladder._ladder_table, ("raise_forward", 0), 1.0 + 1e-9, "commutator_suite"),
    "generator": (ladder._generator_table, ("forward",), 1.0 + 1e-8, "reconstruction_suite"),
}


@pytest.mark.parametrize("perturbation", sorted(PERTURBATIONS))
@pytest.mark.parametrize("c", [1e-3, 1e3])
@pytest.mark.parametrize("name", ["spiral_2d", "random_3d"])
def test_perturbed_weight_fails_its_suite_in_other_units(name, c, perturbation):
    build, args, factor, suite = PERTURBATIONS[perturbation]
    model, max_order = _rescaled_config_model(name, c), _config_model(name)[1]
    _perturb_largest(model, build, args, factor)
    assert not getattr(verify, suite)(model).passed
    assert not verify.run_all(model, max_order).passed


def _mutant(old, new):
    """``ladder.operator_table`` with the text ``old`` of its source read
    as ``new``: a bug in a formula, not in a weight."""
    source = inspect.getsource(ladder.operator_table)
    assert source.count(old) == 1
    scope = dict(vars(ladder))
    exec(source.replace(old, new), scope)
    return scope["operator_table"]


# (suite, old, new): w's factor r_i + 1 read as r_i, in the ladder tables;
# slot (i, j) of D reading row r - e_i + e_j, the source of slot (j, i),
# in the generator tables.  A diagonal D hides the second, so both run on
# models with off-diagonal drift.
FORMULA_BUGS = {
    "w_factor": (
        "commutator_suite",
        "w[:, None] * (E[:, :size] + 1)",
        "w[:, None] * E[:, :size]",
    ),
    "reversed_D_sources": (
        "reconstruction_suite",
        "idx.up[:, idx.down], -1)",
        "idx.up[:, idx.down], -1).swapaxes(0, 1)",
    ),
}


@pytest.mark.parametrize("bug", sorted(FORMULA_BUGS))
@pytest.mark.parametrize("name", ["spiral_2d", "random_3d"])
def test_formula_bug_in_the_table_builder_fails_its_suite(monkeypatch, name, bug):
    suite, old, new = FORMULA_BUGS[bug]
    monkeypatch.setattr(ladder, "operator_table", _mutant(old, new))
    model, max_order = _config_model(name)
    assert not getattr(verify, suite)(model).passed
    assert not verify.run_all(model, max_order).passed


@pytest.mark.xfail(strict=True, reason="pairing sums cancel at close drift eigenvalues")
def test_close_drift_eigenvalues_pass_verify_at_order_six():
    # Eigenvalues -2.87 and -2.12: the pairing sums cancel terms up to 1.3e10
    # times the normalization, and bi-orthogonality reads 1.1e-7 against 1e-8.
    assert verify.run_all(_random_model(4, 2), 6).passed


# Known failures at high order (ROADMAP item 2): only bi-orthogonality
# fails, because the monomial moment matrix E[x^(a+b)] loses the digits;
# every other suite passes.  Order 14 passes.
@pytest.mark.parametrize(
    "order",
    [
        pytest.param(order, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=f"bi-orthogonality reads {worst}"
        ))
        for order, worst in ((15, "4.87e-8"), (16, "1.71e-7"), (22, "2.25e-2"))
    ],
)
def test_spiral_passes_verify_at_high_order(order):
    model, _ = _config_model("spiral_2d")
    failing = {s.name: s.worst for s in verify.run_all(model, order).suites if not s.passed}
    if set(failing) - {"biorthogonality"}:
        pytest.fail(f"suites other than bi-orthogonality fail: {failing}")
    assert not failing, failing


@pytest.mark.parametrize("name, order", [("spiral_2d", 14), ("random_3d", 7)])
def test_run_all_reads_every_suite_at_max_order(name, order):
    # One order rule: each suite that takes an order reads run_all's
    # max_order, the same read as the suite called alone on a fresh model.
    alone = {
        "biorthogonality": verify.biorthogonality_suite,
        "eigen-residuals": verify.eigen_residual_suite,
        "ladder-factorials": verify.ladder_suite,
        "hermite-form": verify.hermite_suite,
    }
    report = verify.run_all(_config_model(name)[0], order)
    got = {s.name: s for s in report.suites if s.name in alone}
    assert set(got) == set(alone)
    for suite, run in alone.items():
        assert got[suite] == run(_config_model(name)[0], order), suite


# Hermite-form on clean tables at orders above those of the configs.  Read
# absolute in the monomials of y, where Hermite coefficients grow with the
# order, it read 2.98e-8, 4.47e-8 and 3.75e-8 here; each row read against
# its own closed form is unit-free.  A = [[-1, 5], [0, -2]] is non-normal.
@pytest.mark.parametrize(
    "name, order", [("canonical_1d", 12), ("spiral_2d", 14), ("non_normal", 8)]
)
def test_hermite_form_passes_at_full_order(name, order):
    if name == "non_normal":
        model = build_model(np.array([[-1.0, 5.0], [0.0, -2.0]]), np.eye(2))
    else:
        model, _ = _config_model(name)
    suite = verify.hermite_suite(model, order)
    assert suite.tol == verify.IDENTITY_TOL
    assert suite.passed, suite.worst


def test_verify_json_reports_the_named_tolerances(tmp_path):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", str(CONFIGS / "spiral_2d.json"), "--json", str(out)]) == 0
    suites = json.loads(out.read_text())["suites"]
    assert {name: suite["tol"] for name, suite in suites.items()} == {
        "biorthogonality": verify.DEFAULT_RESIDUAL_TOL,
        "eigen-residuals": verify.DEFAULT_RESIDUAL_TOL,
        "ladder-factorials": verify.LADDER_TOL,
        "commutators": verify.IDENTITY_TOL,
        "hermite-form": verify.IDENTITY_TOL,
        "operator-reconstruction": verify.IDENTITY_TOL,
    }
    assert (verify.LADDER_TOL, verify.IDENTITY_TOL, hermite_form.CANONICAL_TOL) == (
        1e-10,
        1e-9,
        1e-9,
    )


def test_run_all_checks_at_the_model_prune_eps():
    unit, max_order = _config_model("spiral_2d")
    model = build_model(unit.A, unit.B, prune_eps=1e-10)
    # prune_eps is only the printer's threshold: the suites give the
    # residuals they give at the default, both eigenfunction tables hold
    # entries below 1e-10, and each public eigenfunction is its table row,
    # those entries included.  The operator tables hold exact weights, one
    # per operator.
    assert verify.run_all(model, max_order) == verify.run_all(unit, max_order)
    read = {
        "forward": lambda K: forward_eigenfunction(model, K).poly,
        "adjoint": lambda K: adjoint_eigenfunction(model, K),
    }
    idx = graded_index(model.dim, max_order)
    for side in ("forward", "adjoint"):
        table = ladder._eigenfunctions(model, side, max_order)
        assert np.abs(table[table != 0]).min() < 1e-10
        for K in enumerate_modes(model.dim, max_order):
            c, row = read[side](K).coeffs, table[idx.row[K]]
            npt.assert_array_equal(c, row[: c.size])
            assert not row[c.size :].any(), (side, K)
    ladders = {key[1:] for key in model._op_cache if key[0] is ladder._ladder_table}
    ops = [f"{step}_{s}" for step in ("raise", "lower") for s in ("forward", "adjoint")]
    assert ladders == {(op, I) for op in ops for I in range(model.dim)}


# The per-degree suites that read one gather table per input degree, each
# built for the read and not kept, the reference for the suites that read
# every degree from the one table of an operator: the eigen-residuals and
# ladder factorials, with their worst residuals and lines.


def _degree_image(model, build, args, degree, c):
    """The gathers of the table ``build(model, *args, degree)`` on the
    coefficient vectors along the last axis of c, each of ``degree``."""
    _, src, weight = build(model, *args, degree)
    c = np.concatenate([c, np.zeros(c.shape[:-1] + (1,))], axis=-1)
    out = weight[0] * c[..., src[0]]
    for s in range(1, len(src)):
        out += weight[s] * c[..., src[s]]
    return out


def _sides(model):
    return (("forward", model.eig.values), ("adjoint", np.conj(model.eig.values)))


def _degree_eigen_residuals(model, max_order):
    idx = graded_index(model.dim, max_order)
    worst = 0.0
    with np.errstate(invalid="ignore"):
        for side, lams in _sides(model):
            table = ladder._eigenfunctions(model, side, max_order)
            for k in range(max_order + 1):
                block = table[idx.degree(k), : idx.degree(k).stop]
                lam = (idx.exponents[idx.degree(k)] * lams).sum(axis=1)
                image = _degree_image(model, ladder._generator_table, (side,), k, block)
                resid = np.abs(image - block * lam[:, None])
                scale = np.fmax(np.abs(block).max(axis=1), 1.0)
                worst = np.maximum(worst, float(np.max(resid.max(axis=1) / scale)))
    return worst, []


def _degree_ladder_factorials(model, n_max):
    exps = graded_index(model.dim, n_max).exponents
    norms = np.array([mode_normalization((m,)) for m in range(n_max + 1)])
    worst = 0.0
    with np.errstate(invalid="ignore"):
        for side, _ in _sides(model):
            stacked = ladder._eigenfunctions(model, side, n_max)
            for I in range(model.dim):
                rows = single = stacked[exps[:, I] == exps.sum(axis=1)]
                args = (f"lower_{side}", I)
                for k in range(1, n_max + 2):
                    rows = _degree_image(model, ladder._ladder_table, args, n_max + 1 - k, rows)
                    factor = norms[k:] / norms[: n_max + 1 - k]
                    ref = single[: n_max + 1 - k, : rows.shape[1]]
                    target = ref * factor[:, None]
                    scale = factor * np.fmax(np.abs(ref).max(axis=1, initial=0.0), 1.0)
                    d = np.abs(rows[k:] - target).max(axis=1, initial=0.0) / scale
                    bottom = np.abs(rows[:k]).max(axis=1, initial=0.0) / norms[:k]
                    worst = np.maximum(worst, float(np.max(np.concatenate([d, bottom]))))
    return worst, []


PER_DEGREE_SUITES = {
    "eigen-residuals": _degree_eigen_residuals,
    "ladder-factorials": _degree_ladder_factorials,
}

REFERENCE_MODELS = dict(IMAGE_MODELS)
for _name in CONFIG_NAMES:
    REFERENCE_MODELS[_name] = functools.partial(_config_model, _name)
    for _c in (1e-8, 1e4):
        REFERENCE_MODELS[f"{_name}_c{_c:g}"] = functools.partial(_rescaled_config_model, _name, _c)
# At c = 1e8 every linear weight of the forward raising is below
# prune_eps, where a prune of the weights once dropped them; the table
# keeps them exact.
REFERENCE_MODELS["random_3d_c1e8"] = functools.partial(_rescaled_config_model, "random_3d", 1e8)
# Drift eigenvalues -40 and -0.5: moderately stiff.
REFERENCE_MODELS["stiff_moderate_2d"] = lambda: build_model(
    [[-40.0, 3.0], [0.0, -0.5]], [[1.0, 0.2], [0.2, 0.5]]
)


@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_one_table_suites_equal_the_per_degree_suites(name):
    got = REFERENCE_MODELS[name]()
    model, max_order = got if isinstance(got, tuple) else (got, 6)
    report = verify.run_all(model, max_order)
    # One table per operator, side and mode, each at the highest degree
    # the suites read: the check degree, or above it max_order for the
    # generators and the lowering operators, which the eigen-residuals and
    # ladder factorials read there, and max_order - 1 for the raising
    # operators, which the eigenfunction tables read there.
    sides, d = ("forward", "adjoint"), verify.CHECK_DEGREE
    low = max(d, max_order)
    gens = {key for key in model._op_cache if key[0] is ladder._generator_table}
    assert gens == {(ladder._generator_table, s) for s in sides}
    ladders = {key for key in model._op_cache if key[0] is ladder._ladder_table}
    ops = [f"{step}_{s}" for step in ("raise", "lower") for s in sides]
    assert ladders == {(ladder._ladder_table, op, I) for op in ops for I in range(model.dim)}
    for key in gens | ladders:
        top = max(d, max_order - 1) if key[1].startswith("raise") else low
        assert ladder._table(model, key[0], key[1:], 0)[2] == _rows(model.dim, top), key
    for suite in report.suites:
        if suite.name in PER_DEGREE_SUITES:
            worst, lines = PER_DEGREE_SUITES[suite.name](model, max_order)
            assert suite.worst == worst, suite.name
            assert suite.lines == lines, suite.name


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_suites_at_order_seven_equal_the_per_degree_suites(name):
    # Above the configs' orders the tables grow past degree 6.
    model, _ = _config_model(name)
    got = verify.eigen_residual_suite(model, 7)
    assert got.passed
    assert got.worst == _degree_eigen_residuals(model, 7)[0]
    got = verify.ladder_suite(model, 7)
    assert got.passed
    assert got.worst == _degree_ladder_factorials(model, 7)[0]


def _any_model(name):
    """(model, max_order) of a config, or of an image model at order 6."""
    if name in IMAGE_MODELS:
        return IMAGE_MODELS[name](), 6
    return _config_model(name)


@pytest.mark.parametrize("name", CONFIG_NAMES + tuple(IMAGE_MODELS))
def test_eigenblock_rows_are_their_parents_raised(name):
    # Row K of a side's eigenfunction table is bit for bit
    # raise_<side>(model, I, parent row), the gather that the public
    # operator applies to one polynomial.
    model, _ = _any_model(name)
    n = model.dim
    idx = graded_index(n, 6)
    raise_ = {
        "forward": lambda I, p: raise_forward(model, I, ForwardFunction(p, model.f0)).poly,
        "adjoint": lambda I, p: raise_adjoint(model, I, p),
    }
    for side in ("forward", "adjoint"):
        table = ladder._eigenfunctions(model, side, 6)
        npt.assert_array_equal(table[0], np.eye(len(idx.modes))[0])
        for r, K in enumerate(idx.modes[1:], 1):
            I, P = monomials.parent(K)
            parent = MPoly.from_coeffs(n, table[idx.row[P]])
            want = raise_[side](I, parent).coeffs
            npt.assert_array_equal(table[r, : want.size], want)
            assert not table[r, want.size :].any()


# The per-polynomial API, the reference the acceptance criteria run on.
PER_POLYNOMIAL = (
    "forward_eigenfunction",
    "adjoint_eigenfunction",
    "apply_forward",
    "apply_adjoint",
    "raise_forward",
    "raise_adjoint",
    "lower_forward",
    "lower_adjoint",
    "forward_hermite",
    "adjoint_hermite",
    "coeff_distance",
)


@pytest.mark.parametrize("name", CONFIG_NAMES + tuple(IMAGE_MODELS))
def test_run_all_calls_no_per_polynomial_operator(monkeypatch, name):
    model, max_order = _any_model(name)

    def refuse(*args):
        raise AssertionError("verify called a per-polynomial operator")

    for op in PER_POLYNOMIAL:
        for module in (ou_spectral, ladder, hermite_form, spectral, verify):
            monkeypatch.setattr(module, op, refuse, raising=False)
    report = verify.run_all(model, max_order)
    assert len(report.suites) == 6
    # The cache holds one eigenfunction table per side, at max_order, and
    # nothing per mode.
    tables = {key for key in model._op_cache if key[0] is ladder._eigentable}
    assert tables == {(ladder._eigentable, s) for s in ("forward", "adjoint")}
    assert {model._op_cache[key][0] for key in tables} == {max_order}


def _reference_pairings(model, modes):
    """<g_M, f_K> for every M, K in ``modes``, one ``inner_product`` each,
    and the sum of the magnitudes of the terms each of them adds up."""
    gs = [adjoint_eigenfunction(model, M) for M in modes]
    fs = [forward_eigenfunction(model, K) for K in modes]
    pairs = np.array([[inner_product(g, f) for f in fs] for g in gs])
    moments = np.abs(model.f0.moments(2 * max(map(sum, modes))))

    def size(p):
        return MPoly(p.nvars, {e: abs(c) for e, c in p.terms.items()})

    def magnitude(g, f):
        prod = size(g) * size(f.poly)
        return prod.coeffs.real @ moments[: prod.coeffs.size]

    return pairs, np.array([[magnitude(g, f) for f in fs] for g in gs])


GRAM_CASES = [(name, None) for name in CONFIG_NAMES]
GRAM_CASES += [("random", (seed, 2, 6)) for seed in (0, 1, 2, 3, 4)]
GRAM_CASES += [("random", (seed, 3, 4)) for seed in (0, 1)]
GRAM_IDS = [name if r is None else "seed{}-n{}-order{}".format(*r) for name, r in GRAM_CASES]


@pytest.mark.parametrize("name, random", GRAM_CASES, ids=GRAM_IDS)
def test_pairing_matrix_matches_per_pair_inner_products(name, random):
    if random is None:
        model, order = _config_model(name)
    else:
        seed, n, order = random
        model = _random_model(seed, n)
    modes = enumerate_modes(model.dim, order)
    F = ladder._eigenfunctions(model, "forward", order)
    G = ladder._eigenfunctions(model, "adjoint", order)
    # H[a, b] = E_f0[x^(a + b)], gathered from f0's moments.
    pairs = graded_index(model.dim, 2 * order).sum_table(len(F), len(F))
    got = np.conj(G) @ model.f0.moments(2 * order)[pairs] @ F.T
    want, magnitude = _reference_pairings(model, modes)
    norms = np.array([mode_normalization(K) for K in modes])
    assert got.shape == (len(modes), len(modes))
    # The suite reads these pairings.
    resid = np.abs(got - np.diag(norms)) / norms
    assert verify.biorthogonality_suite(model, order).worst == resid.max()
    # Both routes round sums whose terms can be far larger than the
    # pairing: on seed 4, n=2 the terms reach 1e10 times the normalization
    # and the two routes differ by 1.6e-7 of it, each about as far from
    # delta times the normalization.  Relative to the terms they agree to
    # 2e-16; on the configs, also relative to the normalization.
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(norms, magnitude))
    if random is None:
        assert np.all(np.abs(got - want) <= 1e-12 * norms)


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_biorthogonality_worst_on_configs(name):
    model, max_order = _config_model(name)
    result = verify.biorthogonality_suite(model, max_order)
    assert result.worst <= 1e-13
    assert len(result.lines) == len(enumerate_modes(model.dim, max_order))


def test_order_five_adjoint_perturbation_fails_the_suite():
    # g_(4,1) has terms of degree 5 and 3, and dust of about 1e-14 at
    # degree 1.  Scale the largest of degree 3 by 1 + 1e-6: f_(4,1) is
    # orthogonal to every polynomial of lower degree, so the diagonal
    # pairing does not move, but the pairings of g_(4,1) with the order-3
    # forward eigenfunctions do.  The pairs up to order 4 and the diagonal
    # beyond, which the suite checked before it took every pair up to
    # max_order, do not see it.  The entry is written into the adjoint
    # table after every row is raised, so g_(4,1) alone carries it.
    model, max_order = _config_model("spiral_2d")
    assert verify.biorthogonality_suite(model, max_order).passed
    M = (4, 1)
    key = (ladder._eigentable, "adjoint")
    top, table = model._op_cache[key]
    assert top == max_order
    table = table.copy()
    idx = graded_index(model.dim, max_order)
    row = table[idx.row[M]]
    cubic = idx.degree(3)
    row[cubic.start + np.argmax(np.abs(row[cubic]))] *= 1.0 + 1e-6
    model._op_cache[key] = (top, table)
    result = verify.biorthogonality_suite(model, max_order)
    assert not result.passed

    low = enumerate_modes(model.dim, 4)
    worst = 0.0
    for K in enumerate_modes(model.dim, max_order):
        f = forward_eigenfunction(model, K)
        norm = mode_normalization(K)
        g = adjoint_eigenfunction(model, K)
        worst = max(worst, abs(inner_product(g, f) - norm) / norm)
        if K in low:
            for L in low:
                if L != K:
                    g = adjoint_eigenfunction(model, L)
                    worst = max(worst, abs(inner_product(g, f)) / norm)
    assert worst <= result.tol


def test_perturbed_forward_table_fails_the_hermite_suite():
    # The Hermite suite compares the model's own eigenfunction tables, the
    # ones every other suite and the public eigenfunctions read, with the
    # closed form.  Scale the largest top-degree coefficient of random_3d's
    # forward row (2, 1, 1) by 1 + 1e-6, after every row is raised: the
    # suite must see it.  A suite that rebuilt the model in canonical
    # coordinates and compared that model's tables would pass.  The suite
    # reads the defect itself: delta c x^a in y, max |delta c (T y)^a|,
    # over the row's largest closed-form coefficient.
    model, max_order = _config_model("random_3d")
    ladder._eigenfunctions(model, "forward", max_order)
    assert verify.hermite_suite(model, max_order).passed
    key = (ladder._eigentable, "forward")
    top, table = model._op_cache[key]
    assert top == max_order == 4
    table = table.copy()
    idx = graded_index(model.dim, max_order)
    K, quartic, delta = (2, 1, 1), idx.degree(4), 1e-6
    row = table[idx.row[K]]
    a = quartic.start + np.argmax(np.abs(row[quartic]))
    defect = delta * row[a]
    row[a] *= 1.0 + delta
    model._op_cache[key] = (top, table)
    result = verify.hermite_suite(model, max_order)
    to_y = mpoly.power_table(hermite_form.canonical_transform(model).T, np.zeros(3), max_order)
    closed = ladder._eigenfunctions(model, "forward", max_order, hermite_form._hermite_table)
    want = np.abs(defect * to_y[a]).max() / np.abs(closed[idx.row[K]]).max()
    assert result.worst == pytest.approx(want, rel=1e-6, abs=0.0)
    assert not result.passed


def _poison_entry(build, side, degree):
    """Replace the model's one table ``build(model, side, degree)`` (an
    eigenfunction table or a Hermite table), read first at ``degree``, by
    a copy with a NaN in place of its last nonzero entry, which lies in
    the rows of that degree."""

    def poison(monkeypatch, model):
        top, out = ladder._grown(model, build, (side,), degree)
        assert top == degree
        out = out.copy()
        out.flat[np.flatnonzero(out)[-1]] = np.nan
        model._op_cache[(build, side)] = (top, out)

    return poison


def _poison_table(build, *args):
    """Write a NaN into the model's one table of the operator
    ``build(model, *args)``, grown first to the degree above
    ``CHECK_DEGREE``, the highest any suite reads, at the last live
    weight of the operator on degree ``CHECK_DEGREE``."""

    def poison(monkeypatch, model):
        _, src, _ = build(model, *args, verify.CHECK_DEGREE)
        ladder._table(model, build, args, verify.CHECK_DEGREE + 1)
        _, weight, _ = ladder._table(model, build, args, verify.CHECK_DEGREE)
        weight[tuple(np.argwhere(src >= 0)[-1])] = np.nan

    return poison


# Each suite reads its NaN after a finite residual.  The eigenfunction
# suites read it from the order-1 forward rows, in the row of (0, 1): after
# the pairings of (0, 0) and (1, 0), after the order-0 residual, after the
# rows of axis 0.  The Hermite suite reads it from the adjoint closed form,
# after the forward side.  The operator suites read theirs from one weight
# of a table that they read against its weights after a finite residual:
# the mode-1 raising table, after the weight identities and mode 0's
# table, and the forward generator, after the gradient and position
# identities.
NAN_CASES = {
    "biorthogonality": (
        _poison_entry(ladder._eigentable, "forward", 1),
        lambda m: verify.biorthogonality_suite(m, 2),
    ),
    "eigen-residuals": (
        _poison_entry(ladder._eigentable, "forward", 1),
        lambda m: verify.eigen_residual_suite(m, 2),
    ),
    "ladder-factorials": (
        _poison_entry(ladder._eigentable, "forward", 1),
        lambda m: verify.ladder_suite(m, 2),
    ),
    "commutators": (
        _poison_table(ladder._ladder_table, "raise_forward", 1),
        verify.commutator_suite,
    ),
    "hermite-form": (
        _poison_entry(hermite_form._hermite_table, "adjoint", 2),
        lambda m: verify.hermite_suite(m, 2),
    ),
    "operator-reconstruction": (
        _poison_table(ladder._generator_table, "forward"),
        verify.reconstruction_suite,
    ),
}


@pytest.mark.parametrize("suite", sorted(NAN_CASES))
def test_nan_residual_after_a_finite_one_fails_the_suite(monkeypatch, suite):
    # max(worst, nan) keeps worst: a NaN residual that does not come first
    # must still reach the suite's verdict.
    model, _ = _config_model("spiral_2d")
    poison, run = NAN_CASES[suite]
    poison(monkeypatch, model)
    result = run(model)
    assert result.name == suite
    assert np.isnan(result.worst)
    assert not result.passed


def test_nan_residual_reaches_the_cli_as_non_finite(monkeypatch, tmp_path, capsys):
    build = cli._build

    def poisoned(cfg):
        model = build(cfg)
        _poison_entry(ladder._eigentable, "forward", 1)(monkeypatch, model)
        return model

    monkeypatch.setattr(cli, "_build", poisoned)
    out = tmp_path / "verify.json"
    rc = cli.main(["verify", str(CONFIGS / "canonical_1d.json"), "--json", str(out)])
    assert rc == 2
    assert "NonFiniteResultError" in capsys.readouterr().err
    assert not out.exists()


def _with_sigma(model, Sigma):
    """``model`` with ``Sigma`` in place of its stationary covariance, and
    the inverse and f0 derived from it; the caches start empty."""
    return dataclasses.replace(model, Sigma=Sigma)


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_inexact_sigma_fails_verify(name):
    # A covariance off by a relative 1e-9 no longer solves the Lyapunov
    # equation.  L is applied in the frame of f0, so the eigen-residual
    # suite reads only 4e-9 to 8e-9 here, under its 1e-8 tolerance; the
    # Hermite suite maps the tables to the frame of the Lyapunov solution
    # of A and B, and compares them with the closed form in the frame of
    # f0, each row relative to its closed form, which reads 1.5e-9 to
    # 3.0e-9 at 1e-9 and 1.5e-6 to 3.0e-6 at 1e-6.
    model, max_order = _config_model(name)
    for eps in (1e-9, 1e-6):
        report = verify.run_all(_with_sigma(model, model.Sigma * (1.0 + eps)), max_order)
        assert not report.passed
        hermite = next(s for s in report.suites if s.name == "hermite-form")
        assert not hermite.passed, eps


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8], ids=["nan", "inf", "0", "-1e-8"])
@pytest.mark.parametrize("suite", ["run_all", "biorthogonality_suite", "eigen_residual_suite"])
def test_suites_refuse_a_residual_tol_that_is_not_finite_and_positive(suite, tol):
    # inf switched both suites off: spiral_2d with Sigma (1 + 1e-3) passed
    # the eigen-residuals, which read 2.0e-3; NaN or 0 failed every model.
    model, max_order = _config_model("spiral_2d")
    model = _with_sigma(model, model.Sigma * (1.0 + 1e-3))
    kwargs = {"residual_tol" if suite == "run_all" else "tol": tol}
    with pytest.raises(ValueError, match="residual tolerance must be finite and positive"):
        getattr(verify, suite)(model, max_order, **kwargs)


ORDER_READERS = {
    "run_all": verify.run_all,
    "biorthogonality_suite": verify.biorthogonality_suite,
    "eigen_residual_suite": verify.eigen_residual_suite,
    "ladder_suite": verify.ladder_suite,
    "hermite_suite": verify.hermite_suite,
    "expand_gaussian": lambda model, k: spectral.expand_gaussian(model, model.f0, k),
    "solve_inhomogeneous": lambda model, k: spectral.solve_inhomogeneous(
        model, ForwardFunction(MPoly(2, {(1, 1): 1.0}), model.f0), k
    ),
}


@pytest.mark.parametrize("call", sorted(ORDER_READERS))
def test_every_order_argument_is_read_alike(call):
    # run_all(m, -1) said "degree must be nonnegative", and run_all(m, 3.0)
    # raised a bare TypeError from inside math.comb or range.
    model = _config_model("spiral_2d")[0]
    with pytest.raises(ValueError, match="^max_order must be nonnegative$"):
        ORDER_READERS[call](model, -1)
    for bad in (3.0, 2.5, "3"):
        with pytest.raises(TypeError, match="^max_order must be an integer, got "):
            ORDER_READERS[call](model, bad)
    ORDER_READERS[call](model, np.int64(3))


# Ordinary models: A = 0.3 randn(n, n) - 2.5 I, then
# B = L L^T + 0.2 I with L = randn(n, n), drawn from default_rng(seed).
# Seeds 5101 and 5102 at each shape up to the CLI's mode limit, fixed
# before any was run; the two largest shapes take seed 5101 alone, as
# ``run_all`` costs about 1 and 2 s there.  Each case maps every suite that
# fails to its worst residual when the battery was written: a case that
# fails is a strict xfail naming them, and one whose set of failing
# suites changes fails outright.  Eigenvector bases this far from
# orthogonal defeat the monomial tables' pairings (ROADMAP item 2).
ORDINARY_FAILURES = {
    (3, 10, 5101): {"biorthogonality": 9.0e-4},
    (3, 10, 5102): {"biorthogonality": 5.8e-7},
    (4, 8, 5101): {"biorthogonality": 2.5e-3},
    (4, 8, 5102): {"biorthogonality": 3.8e-2, "ladder-factorials": 4.1e-9},
    (5, 6, 5101): {"biorthogonality": 4.7e-7},
    (5, 6, 5102): {"biorthogonality": 6.3e-7},
    (5, 7, 5101): {"biorthogonality": 3.8e-5},
    (6, 6, 5101): {"biorthogonality": 3.0e-6},
}


def _ordinary_cases():
    for (n, order, seed), reads in ORDINARY_FAILURES.items():
        named = ", ".join(f"{name} at {read:.1e}" for name, read in reads.items())
        marks = ()
        if reads:
            marks = pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"verify fails {named}")
        yield pytest.param(n, order, seed, marks=marks, id=f"n{n}-order{order}-seed{seed}")


@pytest.mark.parametrize("n, order, seed", _ordinary_cases())
def test_verify_on_ordinary_models(n, order, seed):
    rng = np.random.default_rng(seed)
    A = 0.3 * rng.standard_normal((n, n)) - 2.5 * np.eye(n)
    L = rng.standard_normal((n, n))
    report = verify.run_all(build_model(A, L @ L.T + 0.2 * np.eye(n)), order)
    failing = {s.name: s.worst for s in report.suites if not s.passed}
    expected = set(ORDINARY_FAILURES[n, order, seed])
    if set(failing) != expected:
        pytest.fail(f"suites that fail: {failing}, expected {sorted(expected)}")
    assert failing == {}


def _module_state():
    """(type, length) of every module-level dict, list and set of the
    package and each of its modules, by (module, name)."""
    modules = [ou_spectral] + [
        importlib.import_module(f"ou_spectral.{info.name}")
        for info in pkgutil.iter_modules(ou_spectral.__path__)
    ]
    return {
        (mod.__name__, name): (type(value), len(value))
        for mod in modules
        for name, value in vars(mod).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_module_level_state_stays_bounded_over_many_models():
    # Memos live on the model, so a process that verifies many models,
    # each with its own prune_eps, grows no module-level container.
    before = _module_state()
    rng = np.random.default_rng(20261018)
    for n in (1, 2, 3):
        for eps in (1e-13, 3e-14, 1e-14, 3e-15):
            A = 0.3 * rng.standard_normal((n, n)) - 2.5 * np.eye(n)
            L = rng.standard_normal((n, n))
            model = build_model(A, L @ L.T + 0.2 * np.eye(n), prune_eps=eps)
            verify.run_all(model, max_order=3)
    assert _module_state() == before
    info = monomials._graded_index.cache_info()
    assert info.currsize <= info.maxsize


def _grid_and_closed_reads(model, max_order):
    """An expansion evaluated on a grid, and the closed forms of the
    Hermite route on each side, each read at several orders."""
    pts = np.random.default_rng(5).normal(size=(30, model.dim))
    for k in (max_order, 2, max_order - 1):
        ex = spectral.expand_gaussian(model, model.f0, k)
        spectral.evaluate_grid_complex(ex, pts, 0.5)
    for k in (3, 2, 0):
        for side in ("forward", "adjoint"):
            ladder._grown(model, hermite_form._hermite_table, (side,), k)


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_every_cache_key_is_a_builder_and_its_arguments(name):
    # One rule for everything the model caches: one entry per builder and
    # arguments, with no degree in the key, kept at the highest degree
    # read.  run_all, then the grid and closed-form reads.  The Hermite
    # suite reads the closed forms of the model itself: there is no
    # second model.
    model, max_order = _config_model(name)
    verify.run_all(model, max_order)
    n, sides = model.dim, ("forward", "adjoint")
    gens = {(ladder._generator_table, s) for s in sides}
    eigen = {(ladder._eigentable, s) for s in sides}
    closed = {(hermite_form._hermite_table, s) for s in sides}
    ops = [f"{step}_{s}" for step in ("raise", "lower") for s in sides]
    ladders = {(ladder._ladder_table, op, I) for op in ops for I in range(n)}
    raising = {key for key in ladders if key[1].startswith("raise")}
    # 14 entries on spiral_2d, 18 on random_3d.
    want = gens | ladders | eigen | closed
    assert set(model._op_cache) == want
    assert {model._op_cache[key][0] for key in closed} == {max_order}

    _grid_and_closed_reads(model, max_order)
    # Grid evaluation keeps no table of its own.
    assert set(model._op_cache) == want
    tops = {key: entry[0] for key, entry in model._op_cache.items()}
    assert {tops[key] for key in eigen} == {max_order}
    # Each suite reads an operator at the degree it needs: the operator
    # suites read every table at the check degree, the eigen-residuals
    # and ladder factorials read L and the lowering operators at
    # max_order, and the eigen tables read the raising operators at
    # max_order - 1.
    low = max(verify.CHECK_DEGREE, max_order)
    assert {tops[key] for key in gens | ladders - raising} == {low}
    assert {tops[key] for key in raising} == {max(verify.CHECK_DEGREE, max_order - 1)}
    # The Hermite suite reads both closed forms at max_order.
    assert tops[(hermite_form._hermite_table, "forward")] == max_order
    assert tops[(hermite_form._hermite_table, "adjoint")] == max_order


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_no_cache_key_holds_a_float(name):
    # A key names a builder and its side, operator or mode: no prune_eps,
    # or any other threshold, selects a table.
    model, max_order = _config_model(name)
    verify.run_all(model, max_order)
    _grid_and_closed_reads(model, max_order)
    for key in model._op_cache:
        assert not any(isinstance(part, float) for part in key), key
