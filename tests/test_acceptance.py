"""Acceptance gate.

One test per acceptance criterion, each at its stated tolerance,
each printing a single scorecard line that bypasses output capture so a
plain pytest run shows the full tally.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ou_spectral as ou
from ou_spectral import (
    ForwardFunction,
    GaussianDensity,
    MPoly,
    NotSolvableError,
    SimConfig,
    adjoint_eigenfunction,
    adjoint_hermite,
    apply_adjoint,
    apply_forward,
    battery_polynomials,
    coeff_distance,
    eigenvalue,
    enumerate_modes,
    evaluate_grid_complex,
    exact_gaussian_propagate,
    expand_gaussian,
    expectation,
    forward_eigenfunction,
    forward_hermite,
    inner_product,
    is_canonical,
    lower_adjoint,
    lower_forward,
    mode_normalization,
    raise_adjoint,
    raise_forward,
    reconstruct_operators_check,
    simulate,
    solve_inhomogeneous,
    to_canonical,
)


def scorecard(capsys, num, name, ok, detail):
    line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


def test_criterion_01_biorthogonality(four_models, capsys):
    # <g_M, f_K> = delta_MK prod 2^n n! for all |K|, |M| <= 4, relative
    # tolerance 1e-8, runtime under 60 s across the four models.
    t0 = time.perf_counter()
    worst = 0.0
    n_pairs = 0
    for model in four_models.values():
        modes = enumerate_modes(model.dim, 4)
        fs = {K: forward_eigenfunction(model, K) for K in modes}
        gs = {M: adjoint_eigenfunction(model, M) for M in modes}
        for K in modes:
            norm = mode_normalization(K)
            for M in modes:
                val = inner_product(gs[M], fs[K])
                target = norm if M == K else 0.0
                worst = max(worst, abs(val - target) / norm)
                n_pairs += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    scorecard(
        capsys,
        1,
        "bi-orthogonality",
        ok,
        f"{n_pairs} pairings, worst rel {worst:.2e} <= 1e-8, {elapsed:.1f}s < 60s",
    )


def test_criterion_02_eigen_residuals(four_models, capsys):
    # L f_K = lambda_K f_K and the conjugate adjoint equation for all
    # |K| <= 6, relative coefficient residual 1e-8.
    worst = 0.0
    n_modes = 0
    for model in four_models.values():
        for K in enumerate_modes(model.dim, 6):
            lam = eigenvalue(model, K)
            f = forward_eigenfunction(model, K)
            r = coeff_distance(apply_forward(model, f).poly, lam * f.poly)
            worst = max(worst, r / max(1.0, f.poly.max_coeff()))
            g = adjoint_eigenfunction(model, K)
            r = coeff_distance(apply_adjoint(model, g), np.conj(lam) * g)
            worst = max(worst, r / max(1.0, g.max_coeff()))
            n_modes += 1
    ok = worst <= 1e-8
    scorecard(
        capsys,
        2,
        "eigen-residuals",
        ok,
        f"{n_modes} modes, worst rel {worst:.2e} <= 1e-8",
    )


def test_criterion_03_ladder_factorials(four_models, capsys):
    # k-fold lowering of the single-axis order-n eigenfunction equals
    # 2^k n!/(n-k)! times the order-(n-k) one (rel 1e-10) and one step
    # past the bottom annihilates (max coeff 1e-10), n <= 6.
    worst = 0.0
    for model in four_models.values():
        for I in range(model.dim):
            for n in range(1, 7):
                K = tuple(n if i == I else 0 for i in range(model.dim))
                f = forward_eigenfunction(model, K)
                g = adjoint_eigenfunction(model, K)
                for k in range(1, n + 1):
                    factor = float(2**k) * math.factorial(n) / math.factorial(n - k)
                    Kref = tuple(n - k if i == I else 0 for i in range(model.dim))
                    fref = forward_eigenfunction(model, Kref)
                    gref = adjoint_eigenfunction(model, Kref)
                    f = lower_forward(model, I, f)
                    g = lower_adjoint(model, I, g)
                    d = coeff_distance(f.poly, factor * fref.poly)
                    worst = max(worst, d / (factor * max(1.0, fref.poly.max_coeff())))
                    d = coeff_distance(g, factor * gref)
                    worst = max(worst, d / (factor * max(1.0, gref.max_coeff())))
                f = lower_forward(model, I, f)
                g = lower_adjoint(model, I, g)
                scale = float(2**n) * math.factorial(n)
                worst = max(worst, f.poly.max_coeff() / scale)
                worst = max(worst, g.max_coeff() / scale)
    ok = worst <= 1e-10
    scorecard(
        capsys,
        3,
        "ladder-factorials",
        ok,
        f"n <= 6 on every axis, worst rel {worst:.2e} <= 1e-10",
    )


def test_criterion_04_commutators(four_models, capsys):
    # [L, V_I] = lambda_I V_I, the conjugate adjoint relation, and the
    # cross relations = 2 delta_IJ on the 20-polynomial battery.
    worst = 0.0
    for model in four_models.values():
        n = model.dim
        for p in battery_polynomials(n):
            fwd = ForwardFunction(p, model.f0)
            for I in range(n):
                lam = model.eig.values[I]
                a = apply_forward(model, raise_forward(model, I, fwd)).poly
                b = raise_forward(model, I, apply_forward(model, fwd)).poly
                c = raise_forward(model, I, fwd).poly
                worst = max(
                    worst, coeff_distance(a - b, lam * c) / max(1.0, c.max_coeff())
                )
                a = apply_adjoint(model, raise_adjoint(model, I, p))
                b = raise_adjoint(model, I, apply_adjoint(model, p))
                c = raise_adjoint(model, I, p)
                worst = max(
                    worst,
                    coeff_distance(a - b, np.conj(lam) * c) / max(1.0, c.max_coeff()),
                )
                for J in range(n):
                    target = (2.0 if I == J else 0.0) * p
                    a = lower_adjoint(model, J, raise_adjoint(model, I, p))
                    b = raise_adjoint(model, I, lower_adjoint(model, J, p))
                    worst = max(
                        worst, coeff_distance(a - b, target) / max(1.0, p.max_coeff())
                    )
                    a = lower_forward(model, J, raise_forward(model, I, fwd)).poly
                    b = raise_forward(model, I, lower_forward(model, J, fwd)).poly
                    worst = max(
                        worst, coeff_distance(a - b, target) / max(1.0, p.max_coeff())
                    )
    ok = worst <= 1e-9
    scorecard(
        capsys,
        4,
        "commutators",
        ok,
        f"20-polynomial battery on 4 models, worst rel {worst:.2e} <= 1e-9",
    )


def test_criterion_05_hermite_form(four_models, capsys):
    # In canonical coordinates the multinomial Hermite closed form must
    # match the ladder construction coefficient-wise for |K| <= 5.  The
    # spiral model is already canonical; the others are transformed.
    worst = 0.0
    n_modes = 0
    already = 0
    for model in four_models.values():
        if is_canonical(model):
            model_c = model
            already += 1
        else:
            model_c, _ = to_canonical(model)
        for K in enumerate_modes(model_c.dim, 5):
            d = coeff_distance(
                forward_eigenfunction(model_c, K).poly, forward_hermite(model_c, K)
            )
            worst = max(worst, d)
            d = coeff_distance(
                adjoint_eigenfunction(model_c, K), adjoint_hermite(model_c, K)
            )
            worst = max(worst, d)
            n_modes += 1
    ok = worst <= 1e-9 and already >= 1
    scorecard(
        capsys,
        5,
        "hermite-form",
        ok,
        f"{n_modes} modes ({already} model already canonical), worst {worst:.2e} <= 1e-9",
    )


def test_criterion_06_operator_reconstruction(four_models, capsys):
    # Gradient, position, forward and adjoint generators rebuilt from
    # ladder operators alone, residual 1e-9 on every model.
    worst = 0.0
    all_passed = True
    for model in four_models.values():
        report = reconstruct_operators_check(model, tol=1e-9)
        worst = max(worst, report.worst)
        all_passed = all_passed and report.passed
    ok = all_passed and worst <= 1e-9
    scorecard(
        capsys,
        6,
        "operator-reconstruction",
        ok,
        f"4 identities x 4 models, worst {worst:.2e} <= 1e-9",
    )


def _propagation_errors(model, F0, orders, points, times):
    errs = []
    worst_imag = 0.0
    for order in orders:
        expn = expand_gaussian(model, F0, order)
        err = 0.0
        for t in times:
            vals = evaluate_grid_complex(expn, points, t)
            exact = exact_gaussian_propagate(model, F0, t).pdf_grid(points)
            err = max(err, float(np.max(np.abs(vals.real - exact))))
            worst_imag = max(worst_imag, float(np.max(np.abs(vals.imag))))
        errs.append(err)
    return errs, worst_imag


def test_criterion_07_propagation(model_1d, model_spiral, capsys):
    # Truncated expansions of a displaced Gaussian converge to the exact
    # propagator: monotone error decrease in the truncation order, 1e-4
    # at order 8 in 1D, imaginary residue 1e-9 in the complex-spectrum
    # 2D case.
    times = [0.1, 0.5, 1.0]
    pts_1d = np.linspace(-3.0, 3.0, 61)[:, None]
    F0 = GaussianDensity(np.array([0.5]), np.array([[0.5]]))
    errs_1d, _ = _propagation_errors(model_1d, F0, [2, 4, 6, 8], pts_1d, times)

    axis = np.linspace(-2.5, 2.5, 21)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    pts_2d = np.stack([X.ravel(), Y.ravel()], axis=1)
    F0_2d = GaussianDensity(np.array([0.3, 0.0]), model_spiral.Sigma)
    errs_2d, imag_2d = _propagation_errors(
        model_spiral, F0_2d, [2, 4, 6], pts_2d, times
    )

    ok = (
        all(a > b for a, b in zip(errs_1d, errs_1d[1:]))
        and errs_1d[-1] <= 1e-4
        and all(a > b for a, b in zip(errs_2d, errs_2d[1:]))
        and imag_2d <= 1e-9
    )
    detail = (
        "1D errs "
        + " > ".join(f"{e:.1e}" for e in errs_1d)
        + f" (last <= 1e-4), 2D errs "
        + " > ".join(f"{e:.1e}" for e in errs_2d)
        + f", imag {imag_2d:.1e} <= 1e-9"
    )
    scorecard(capsys, 7, "propagation", ok, detail)


def test_criterion_08_inhomogeneous_solve(model_spiral, capsys):
    # L P = q for a degree-4 polynomial source with the stationary
    # component projected out; coefficient residual 1e-9.  The
    # unprojected q = f0 must be rejected as unsolvable.
    model = model_spiral
    rng = np.random.default_rng(5)
    terms = {}
    for exps in [(i, j) for i in range(5) for j in range(5 - i)]:
        terms[exps] = complex(rng.normal(), 0.0)
    p = MPoly(2, terms)
    mass = expectation(p, model.f0)
    p = p - MPoly.constant(2, mass)
    q = ForwardFunction(p, model.f0)

    P = solve_inhomogeneous(model, q, 4)
    resid = coeff_distance(apply_forward(model, P).poly, q.poly)

    raised = False
    try:
        solve_inhomogeneous(model, ForwardFunction(MPoly.constant(2, 1.0), model.f0), 4)
    except NotSolvableError:
        raised = True

    ok = resid <= 1e-9 and raised
    scorecard(
        capsys,
        8,
        "inhomogeneous-solve",
        ok,
        f"degree-4 source residual {resid:.2e} <= 1e-9, "
        f"unsolvable source {'raised' if raised else 'MISSED'}",
    )


def test_criterion_09_stochastic_cross_check(model_spiral, capsys):
    # Euler-Maruyama terminal moments against the exact propagator:
    # 1e5 paths, dt = 0.005, t = 1 within 4 standard errors, under 30 s.
    t0 = time.perf_counter()
    F0 = GaussianDensity(np.array([0.3, 0.0]), model_spiral.Sigma)
    cfg = SimConfig(paths=100000, dt=0.005, t_final=1.0, seed=20250822)
    rep = simulate(model_spiral, F0, cfg)
    exact = exact_gaussian_propagate(model_spiral, F0, 1.0)
    mean_sig = np.abs(rep.mean - exact.mean) / rep.mean_stderr
    cov_sig = np.abs(rep.cov - exact.cov) / rep.cov_stderr
    worst = float(max(mean_sig.max(), cov_sig.max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 4.0 and elapsed < 30.0
    scorecard(
        capsys,
        9,
        "stochastic-cross-check",
        ok,
        f"1e5 paths, worst {worst:.2f} sigma <= 4, {elapsed:.1f}s < 30s",
    )


def test_criterion_10_deterministic_verify(tmp_path, capsys):
    # Two fresh processes running verify --json on the same config must
    # write byte-identical reports.
    root = Path(__file__).resolve().parents[1]
    config = root / "configs" / "spiral_2d.json"
    # The processes import this checkout's package, as the tests do.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "ou_spectral.cli", "verify", str(config), "--json", str(out)],
            capture_output=True,
            text=True,
            timeout=600,
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    scorecard(
        capsys,
        10,
        "deterministic-verify",
        ok,
        f"two verify --json runs, {len(outs[0])} bytes, byte-identical",
    )
