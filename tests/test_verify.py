"""The verify suites against a direct evaluation.

The commutator and reconstruction suites share one set of ladder images
per battery polynomial.  The reference below applies every operator in
place, with no reuse, so the two must agree bit for bit; a call-count
guard checks the reuse itself.  The bi-orthogonality suite takes every
pairing from one Gram matrix; each entry must match its own
``inner_product``, and a perturbed pair above order 4 must fail it.
A model whose Sigma misses the Lyapunov equation must fail ``run_all``.
"""

import dataclasses
import importlib
import pathlib
import pkgutil

import numpy as np
import pytest

import ou_spectral
from ou_spectral import cli, errors, ladder, linalg, spectral, verify
from ou_spectral.gaussian import ForwardFunction, inner_product, stationary_density
from ou_spectral.ladder import (
    adjoint_eigenfunction,
    apply_adjoint,
    apply_forward,
    build_model,
    forward_eigenfunction,
    lower_adjoint,
    lower_forward,
    mode_normalization,
    raise_adjoint,
    raise_forward,
)
from ou_spectral.monomials import enumerate_modes, graded_index
from ou_spectral.mpoly import MPoly, coeff_distance
from ou_spectral.spectral import battery_polynomials

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


@pytest.mark.parametrize("name", CONFIG_NAMES + ("random_3d_seeded",))
def test_shared_images_match_direct_evaluation(name):
    if name == "random_3d_seeded":
        model = _random_model()
    else:
        model, _ = _config_model(name)
    want_comm = _reference_commutators(model)
    want_rec = _reference_reconstruction(model)

    images = spectral.BatteryImages(model)
    comm = verify.commutator_suite(model, images=images)
    report = verify.reconstruction_suite(model, images=images)
    assert comm.worst == want_comm
    assert report.worst == max(want_rec.values())
    rec = spectral.reconstruct_operators_check(model)
    assert rec.residuals == want_rec
    assert rec.worst == max(want_rec.values())
    assert rec.battery_size == len(battery_polynomials(model.dim))
    # Without shared images each suite builds its own, with equal results.
    assert verify.commutator_suite(model).worst == want_comm
    assert spectral.reconstruct_operators_check(model, images=images).residuals == want_rec


LADDER_OPS = (
    "raise_adjoint",
    "raise_forward",
    "lower_adjoint",
    "lower_forward",
    "apply_adjoint",
    "apply_forward",
)


def test_run_all_applies_each_ladder_operator_once_per_input(monkeypatch):
    model, max_order = _config_model("spiral_2d")
    # (op, id of input, mode) -> [input, calls]; holding the input keeps
    # its id from being reused by a later object.
    seen = {}

    def counted(name, original):
        def op(model, *args):
            *mode, target = args
            entry = seen.setdefault((name, id(target), tuple(mode)), [target, 0])
            entry[1] += 1
            return original(model, *args)

        return op

    for name in LADDER_OPS:
        original = getattr(ladder, name)
        wrapped = counted(name, original)
        for module in (ladder, spectral, verify):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapped)

    report = verify.run_all(model, max_order)
    assert report.passed
    repeats = {key: calls for key, (_, calls) in seen.items() if calls > 1}
    assert not repeats
    # The battery went through the shared images: every battery polynomial
    # was raised by every mode, once.
    battery = battery_polynomials(model.dim)
    raised = [
        target
        for (name, _, mode), (target, _) in seen.items()
        if name == "raise_adjoint" and mode == (0,)
    ]
    for p in battery:
        assert sum(1 for g in raised if g == p) == 1


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
    got = verify._pairing_matrix(model, order)
    want, magnitude = _reference_pairings(model, modes)
    norms = np.array([mode_normalization(K) for K in modes])
    assert got.shape == (len(modes), len(modes))
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


def test_order_five_adjoint_perturbation_fails_the_suite(monkeypatch):
    # g_(4,1) has terms of degree 5 and 3.  Scale one of degree 3 by
    # 1 + 1e-6: f_(4,1) is orthogonal to every polynomial of lower degree,
    # so the diagonal pairing does not move, but the pairings of g_(4,1)
    # with the order-3 forward eigenfunctions do.  The pairs up to order 4
    # and the diagonal beyond, which the suite checked before it took
    # every pair up to max_order, do not see it.
    model, max_order = _config_model("spiral_2d")
    M = (4, 1)
    g = adjoint_eigenfunction(model, M)
    key = min(g.terms, key=sum)
    bad = MPoly(model.dim, {**g.terms, key: g.terms[key] * (1.0 + 1e-6)}, g.prune_eps)
    original = verify.adjoint_eigenfunction

    def adjoint(model, K):
        return bad if tuple(K) == M else original(model, K)

    monkeypatch.setattr(verify, "adjoint_eigenfunction", adjoint)
    result = verify.biorthogonality_suite(model, max_order)
    assert not result.passed

    low = enumerate_modes(model.dim, 4)
    worst = 0.0
    for K in enumerate_modes(model.dim, max_order):
        f = forward_eigenfunction(model, K)
        norm = mode_normalization(K)
        worst = max(worst, abs(inner_product(adjoint(model, K), f) - norm) / norm)
        if K in low:
            for L in low:
                if L != K:
                    worst = max(worst, abs(inner_product(adjoint(model, L), f)) / norm)
    assert worst <= result.tol


def _nan_on_call(original, k, poison):
    """``original`` with its ``k``-th result replaced by ``poison(result)``."""
    calls = [0]

    def wrapped(*args):
        calls[0] += 1
        out = original(*args)
        return poison(out) if calls[0] == k else out

    return wrapped


def _nan(_):
    return float("nan")


def _with_nan_constant(f):
    """The forward function ``f`` with a NaN added to its constant term."""
    nan = MPoly.constant(f.dim, float("nan"), f.poly.prune_eps)
    return ForwardFunction(f.poly + nan, f.base)


POISONS = {"coeff_distance": _nan, "forward_eigenfunction": _with_nan_constant}

NAN_CASES = {
    "biorthogonality": (
        "forward_eigenfunction",
        lambda m: verify.biorthogonality_suite(m, 2),
    ),
    "eigen-residuals": ("coeff_distance", lambda m: verify.eigen_residual_suite(m, 2)),
    "ladder-factorials": ("coeff_distance", lambda m: verify.ladder_suite(m, n_max=2)),
    "commutators": ("coeff_distance", verify.commutator_suite),
    "hermite-form": ("coeff_distance", lambda m: verify.hermite_suite(m, max_order=2)),
    "operator-reconstruction": ("coeff_distance", verify.reconstruction_suite),
}


@pytest.mark.parametrize("suite", sorted(NAN_CASES))
def test_nan_residual_after_a_finite_one_fails_the_suite(monkeypatch, suite):
    # max(worst, nan) keeps worst: a NaN residual that does not come first
    # must still reach the suite's verdict.  The biorthogonality suite gets
    # its NaN as a coefficient of the second forward eigenfunction it builds.
    model, _ = _config_model("spiral_2d")
    name, run = NAN_CASES[suite]
    for module in (verify, spectral):
        if hasattr(module, name):
            monkeypatch.setattr(
                module, name, _nan_on_call(getattr(module, name), 2, POISONS[name])
            )
    result = run(model)
    assert result.name == suite
    assert np.isnan(result.worst)
    assert not result.passed


def test_nan_residual_reaches_the_cli_as_non_finite(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(verify, "coeff_distance", _nan_on_call(coeff_distance, 2, _nan))
    out = tmp_path / "verify.json"
    rc = cli.main(["verify", str(CONFIGS / "canonical_1d.json"), "--json", str(out)])
    assert rc == 2
    assert "NonFiniteResultError" in capsys.readouterr().err
    assert not out.exists()


def _with_sigma(model, Sigma):
    """``model`` with ``Sigma`` in place of its stationary covariance, and
    the inverse and f0 rebuilt from it; the caches start empty."""
    return dataclasses.replace(
        model,
        Sigma=Sigma,
        Sigma_inv=linalg.inverse(Sigma),
        f0=stationary_density(Sigma),
    )


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_inexact_sigma_fails_verify(name):
    # A covariance off by a relative 1e-9 no longer solves the Lyapunov
    # equation.  L is applied in the frame of f0, so the eigen-residual
    # suite reads only 4e-9 to 8e-9 here, under its 1e-8 tolerance; the
    # Hermite closed form reads above 1e-7.  At 1e-6 the model is too far
    # from canonical for the Hermite suite to run at all.
    model, max_order = _config_model(name)
    report = verify.run_all(_with_sigma(model, model.Sigma * (1.0 + 1e-9)), max_order)
    assert not report.passed
    hermite = next(s for s in report.suites if s.name == "hermite-form")
    assert not hermite.passed
    with pytest.raises(errors.NotCanonicalError):
        verify.run_all(_with_sigma(model, model.Sigma * (1.0 + 1e-6)), max_order)


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
    info = graded_index.cache_info()
    assert info.currsize <= info.maxsize
