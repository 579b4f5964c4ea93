"""Command-line interface.

Each subcommand (``cmd_*``) takes a validated JSON model config alone and
returns its exit code, its human-readable report as stdout lines, its JSON
record and, for ``propagate``, its CSV rows, header first.  ``main`` alone
emits them, in this order: it runs the command, encodes the record, writes
--json and then --csv (row by row), and only then prints the report.  So a
typed error, a record with NaN or infinity, or an output path that cannot
be written leaves stdout empty and one ``error[...]`` line on stderr; a
file written before a failing one may remain.
Exit codes: 0 success, 1 verification failure, 2 usage or config error,
typed error or unwritable output path.
All machine-readable output is deterministically ordered, so identical
inputs give byte-identical files.
"""

import argparse
import functools
import itertools
import json
import math
import pathlib
import sys

import numpy as np

from . import kernels, verify as verify_mod
from .errors import ConfigError, NonFiniteResultError, OUSpectralError
from .gaussian import ForwardFunction, GaussianDensity
from .ladder import (
    adjoint_eigenfunction,
    apply_forward,
    build_model,
    eigenvalue,
    forward_eigenfunction,
)
from .linalg import DEFAULT_DEFECT_TOL
from .monomials import enumerate_modes, index_size, mode_normalization
from .mpoly import DEFAULT_PRUNE_EPS, MPoly, coeff_distance, render
from .sde_oracle import SimConfig, simulate
from .spectral import (
    DEFAULT_SOLVABILITY_TOL,
    evaluate_grid_complex,
    exact_gaussian_propagate,
    expand_gaussian,
    solve_inhomogeneous,
)

# The library's defaults: a config without tolerances runs as a call without.
_TOL_DEFAULTS = {
    "defect_tol": DEFAULT_DEFECT_TOL,
    "residual_tol": verify_mod.DEFAULT_RESIDUAL_TOL,
    "prune_eps": DEFAULT_PRUNE_EPS,
    "solvability_tol": DEFAULT_SOLVABILITY_TOL,
}

_TOP_KEYS = {
    "dimension",
    "A",
    "B",
    "max_order",
    "tolerances",
    "initial",
    "sim",
    "propagate",
    "source",
}


def _fail(field, msg):
    raise ConfigError(f"config field '{field}': {msg}")


def _number(x, field):
    # json.loads reads the bare tokens NaN and Infinity as floats.
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        _fail(field, f"expected a number, got {type(x).__name__}")
    if not math.isfinite(x):
        _fail(field, f"must be finite, got {x}")
    return float(x)


def _block(raw, field, what="an object"):
    """The object at the last key of ``field`` in ``raw``, or None where
    that key is absent or null."""
    block = raw.get(field.rpartition(".")[2])
    if block is not None and not isinstance(block, dict):
        _fail(field, f"expected {what}")
    return block


def _integer(x, field, minimum=None):
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(field, f"expected an integer, got {type(x).__name__}")
    if minimum is not None and x < minimum:
        _fail(field, f"must be at least {minimum}, got {x}")
    return x


def _vector(x, field, n):
    if not isinstance(x, list) or len(x) != n:
        _fail(field, f"expected a list of {n} numbers")
    return np.array([_number(v, field) for v in x], dtype=float)


# Most modes C(dimension + max_order, dimension) of eigensystem, verify and
# propagate, which build square complex tables of as many rows: 16 MB each.
# verify holds four at full order, each side's eigenfunctions and their
# Hermite closed forms.
# The solve, whose blocks grow with its source's degree, holds the source
# to as many coefficients, C(dimension + degree, dimension).
MAX_MODES = 1000


def _check_order(cfg):
    modes = index_size(cfg.dimension, cfg.max_order)
    if modes > MAX_MODES:
        _fail("max_order", f"{cfg.max_order} gives {modes} modes, more than {MAX_MODES}")


def _check_grid(points, n):
    if points**n > 200_000:
        _fail("propagate.grid.points", f"{points}^{n} grid points is too many")


def _matrix(x, field, n):
    if not isinstance(x, list) or len(x) != n:
        _fail(field, f"expected a {n}x{n} matrix as {n} row arrays")
    rows = []
    for i, row in enumerate(x):
        if not isinstance(row, list) or len(row) != n:
            _fail(field, f"row {i} is not a list of {n} numbers")
        rows.append([_number(v, f"{field}[{i}]") for v in row])
    return np.array(rows, dtype=float)


class ModelConfig:
    """Validated contents of a config file."""

    def __init__(self, raw, path):
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        unknown = sorted(set(raw) - _TOP_KEYS)
        if unknown:
            raise ConfigError(f"{path}: unknown config field '{unknown[0]}'")
        if "dimension" not in raw:
            _fail("dimension", "missing (required)")
        n = _integer(raw["dimension"], "dimension", minimum=1)
        self.dimension = n
        if "A" not in raw:
            _fail("A", "missing (required)")
        if "B" not in raw:
            _fail("B", "missing (required)")
        self.A = _matrix(raw["A"], "A", n)
        self.B = _matrix(raw["B"], "B", n)
        self.max_order = _integer(raw.get("max_order", 6), "max_order", minimum=0)

        tols = dict(_TOL_DEFAULTS)
        for key, val in (_block(raw, "tolerances") or {}).items():
            if key not in _TOL_DEFAULTS:
                _fail(f"tolerances.{key}", "unknown tolerance name")
            v = _number(val, f"tolerances.{key}")
            if v <= 0:
                _fail(f"tolerances.{key}", "must be positive")
            tols[key] = v
        self.tolerances = tols

        self.initial = None
        block = _block(raw, "initial", "an object with 'mean' and 'cov'")
        if block is not None:
            if "mean" not in block or "cov" not in block:
                _fail("initial", "needs both 'mean' and 'cov'")
            self.initial = (
                _vector(block["mean"], "initial.mean", n),
                _matrix(block["cov"], "initial.cov", n),
            )

        self.sim = None
        block = _block(raw, "sim")
        if block is not None:
            for key in ("paths", "dt", "t_final", "seed"):
                if key not in block:
                    _fail(f"sim.{key}", "missing (required for sim)")
            try:
                self.sim = SimConfig(
                    paths=_integer(block["paths"], "sim.paths", minimum=3),
                    dt=_number(block["dt"], "sim.dt"),
                    t_final=_number(block["t_final"], "sim.t_final"),
                    seed=_integer(block["seed"], "sim.seed"),
                )
            except ValueError as e:
                _fail("sim", str(e))

        self.times = [0.1, 0.5, 1.0]
        self.grid_lo, self.grid_hi = -3.0, 3.0
        self.grid_points = 61 if n == 1 else 21
        block = _block(raw, "propagate")
        if block is not None:
            if "times" in block:
                if not isinstance(block["times"], list) or not block["times"]:
                    _fail("propagate.times", "expected a nonempty list of times")
                self.times = [_number(t, "propagate.times") for t in block["times"]]
                if any(t < 0 for t in self.times):
                    _fail("propagate.times", "times must be nonnegative")
            grid = _block(block, "propagate.grid") or {}
            self.grid_lo = _number(grid.get("lo", self.grid_lo), "propagate.grid.lo")
            self.grid_hi = _number(grid.get("hi", self.grid_hi), "propagate.grid.hi")
            self.grid_points = _integer(
                grid.get("points", self.grid_points), "propagate.grid.points", minimum=2
            )
            if self.grid_lo >= self.grid_hi:
                _fail("propagate.grid", "lo must be below hi")
            _check_grid(self.grid_points, n)

        self.source = None
        what = "an object with a 'terms' list"
        block = _block(raw, "source", what)
        if block is not None:
            if not isinstance(block.get("terms"), list):
                _fail("source", f"expected {what}")
            terms = {}
            for idx, item in enumerate(block["terms"]):
                ok = (
                    isinstance(item, list)
                    and len(item) == 2
                    and isinstance(item[0], list)
                    and len(item[0]) == n
                    and isinstance(item[1], list)
                    and len(item[1]) == 2
                )
                if not ok:
                    _fail(
                        f"source.terms[{idx}]",
                        f"expected [[{n} exponents], [real, imag]]",
                    )
                exps = tuple(_integer(e, f"source.terms[{idx}]", minimum=0) for e in item[0])
                re = _number(item[1][0], f"source.terms[{idx}]")
                im = _number(item[1][1], f"source.terms[{idx}]")
                terms[exps] = terms.get(exps, 0.0) + complex(re, im)
            self.source = terms


def load_config(path):
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: parse error at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    return ModelConfig(raw, path)


def _build(cfg):
    return build_model(
        cfg.A,
        cfg.B,
        tol=cfg.tolerances["defect_tol"],
        prune_eps=cfg.tolerances["prune_eps"],
    )


def _initial_density(cfg, model):
    if cfg.initial is None:
        return model.f0
    mean, cov = cfg.initial
    return GaussianDensity(mean=mean, cov=cov)


def _json_default(x):
    """A complex number as [real, imag], an array as nested lists and a
    numpy scalar as its Python value: what ``json`` cannot encode."""
    if isinstance(x, (complex, np.complexfloating)):
        return [float(x.real), float(x.imag)]
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _encode_json(obj, path):
    """The text of ``obj`` for the file ``path``, which names it in the error."""
    # Bare NaN and Infinity are not JSON: refuse them.
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=_json_default)
    except ValueError as e:
        raise NonFiniteResultError(f"cannot write {path}: {e}") from None
    return text + "\n"


def _csv_line(row):
    return ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) + "\n"


def _grid_points(cfg):
    # The default grid is checked here, as the grid of a propagate block is
    # at load: other commands never build it.
    _check_grid(cfg.grid_points, cfg.dimension)
    axes = [np.linspace(cfg.grid_lo, cfg.grid_hi, cfg.grid_points)] * cfg.dimension
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _fmt_c(z):
    if z.imag == 0.0:
        return f"{z.real:.9g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.9g}{sign}{abs(z.imag):.9g}i"


def _f0_scale(model):
    """sqrt(Sigma_ii): the units in which ``render`` measures a term."""
    return np.sqrt(np.diag(model.Sigma))


def cmd_eigensystem(cfg):
    _check_order(cfg)
    model = _build(cfg)
    modes = enumerate_modes(model.dim, cfg.max_order)
    scale = _f0_scale(model)
    records = []
    lines = [
        f"dimension {model.dim}, {len(modes)} modes up to order {cfg.max_order}",
        "drift eigenvalues: " + ", ".join(_fmt_c(v) for v in model.eig.values),
    ]
    for K in modes:
        lam = eigenvalue(model, K)
        # A coefficient that overflows is reported below, not as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            polys = forward_eigenfunction(model, K).poly, adjoint_eigenfunction(model, K)
        for side, p in zip(("forward", "adjoint"), polys):
            if not np.all(np.isfinite(p.coeffs)):
                raise NonFiniteResultError(f"the {side} eigenfunction of K={K} is not finite")
        f, g = (render(p, scale) for p in polys)
        records.append(
            {
                "index": list(K),
                "eigenvalue": lam,
                "normalization": mode_normalization(K),
                "forward": f,
                "adjoint": g,
            }
        )
        lines += [f"K={K}  lambda={_fmt_c(lam)}", f"  f: {f}", f"  g: {g}"]
    record = {
        "dimension": model.dim,
        "max_order": cfg.max_order,
        "drift_eigenvalues": list(model.eig.values),
        "stationary_cov": model.Sigma,
        "modes": records,
    }
    return 0, lines, record, None


def cmd_verify(cfg):
    _check_order(cfg)
    model = _build(cfg)
    report = verify_mod.run_all(
        model, cfg.max_order, residual_tol=cfg.tolerances["residual_tol"]
    )
    bad = [s.name for s in report.suites if not math.isfinite(s.worst)]
    if bad:
        raise NonFiniteResultError(f"the worst residual of {', '.join(bad)} is not finite")
    lines = []
    for suite in report.suites:
        status = "PASS" if suite.passed else "FAIL"
        lines.append(f"suite {suite.name}: {status} (worst {suite.worst:.3e}, tol {suite.tol:.1e})")
        lines += [f"  {line}" for line in suite.lines]
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    record = {
        "dimension": model.dim,
        "max_order": cfg.max_order,
        "drift_eigenvalues": list(model.eig.values),
        "suites": {
            s.name: {"worst": s.worst, "tol": s.tol, "passed": s.passed, "lines": s.lines}
            for s in report.suites
        },
        "passed": report.passed,
    }
    return (0 if report.passed else 1), lines, record, None


def cmd_propagate(cfg):
    _check_order(cfg)
    points = _grid_points(cfg)
    model = _build(cfg)
    F0 = _initial_density(cfg, model)
    expansion = expand_gaussian(model, F0, cfg.max_order)
    results = []
    for t in cfg.times:
        vals = evaluate_grid_complex(expansion, points, t)
        exact_density = exact_gaussian_propagate(model, F0, t)
        exact = exact_density.pdf_grid(points)
        err = np.abs(vals.real - exact)
        results.append(
            {
                "t": t,
                "max_abs_error": float(err.max()),
                "mean_abs_error": float(err.mean()),
                "max_imag": float(np.max(np.abs(vals.imag))),
                "expansion": vals.real,
                "exact": exact,
            }
        )
    lines = [
        f"t={r['t']:g}: max |expansion - exact| = {r['max_abs_error']:.6e}, "
        f"max imaginary residue = {r['max_imag']:.3e}"
        for r in results
    ]
    record = {
        "max_order": cfg.max_order,
        "times": cfg.times,
        "grid": {"lo": cfg.grid_lo, "hi": cfg.grid_hi, "points_per_axis": cfg.grid_points},
        "results": results,
    }
    header = ["t", *(f"x{i + 1}" for i in range(cfg.dimension)), "expansion", "exact", "abs_error"]
    # The rows are made as they are written, so no table is held.
    rows = (
        [float(r["t"])] + [float(c) for c in p] + [float(v), float(e), float(abs(v - e))]
        for r in results
        for p, v, e in zip(points, r["expansion"], r["exact"])
    )
    return 0, lines, record, itertools.chain([header], rows)


def cmd_solve(cfg):
    if cfg.source is None:
        _fail("source", "missing (required for solve)")
    degree = max(map(sum, cfg.source), default=0)
    if index_size(cfg.dimension, degree) > MAX_MODES:
        _fail("source", f"degree {degree} has more than {MAX_MODES} coefficients")
    model = _build(cfg)
    q = ForwardFunction(
        MPoly(model.dim, cfg.source, model.prune_eps), model.f0
    )
    if q.poly.degree() > cfg.max_order:
        _fail("source", f"degree {q.poly.degree()} exceeds max_order {cfg.max_order}")
    P = solve_inhomogeneous(
        model,
        q,
        cfg.max_order,
        solvability_tol=cfg.tolerances["solvability_tol"],
    )
    resid_poly = apply_forward(model, P).poly
    # Relative to the source scale, as in verify: a source in other units
    # must not change the verdict.
    resid = coeff_distance(resid_poly, q.poly) / max(1.0, q.poly.max_coeff())
    tol = cfg.tolerances["residual_tol"]
    solution = render(P.poly, _f0_scale(model))
    ok = resid <= tol
    lines = [
        f"P: {solution}",
        f"relative residual max|coeff(L P - q)| = {resid:.6e} (tol {tol:.1e})",
        f"solve: {'PASS' if ok else 'FAIL'}",
    ]
    record = {
        "max_order": cfg.max_order,
        "solution": solution,
        "residual": resid,
        "tol": tol,
        "passed": ok,
    }
    return (0 if ok else 1), lines, record, None


def cmd_mc_check(cfg):
    if cfg.sim is None:
        _fail("sim", "missing (required for mc-check)")
    model = _build(cfg)
    F0 = _initial_density(cfg, model)
    # The oracle first: a flow that is not finite fails before any path runs.
    exact = exact_gaussian_propagate(model, F0, cfg.sim.t_final)
    report = simulate(model, F0, cfg.sim)
    # Paths that all end at one value leave no unit to measure a deviation in.
    for name, stderr in (("mean", report.mean_stderr), ("cov", report.cov_stderr)):
        zero = np.argwhere(stderr == 0)
        if len(zero):
            at = ",".join(map(str, zero[0]))
            raise NonFiniteResultError(
                f"the standard error of {name}[{at}] is 0, so its deviation has no finite sigma"
            )
    mean_sig = np.abs(report.mean - exact.mean) / report.mean_stderr
    cov_sig = np.abs(report.cov - exact.cov) / report.cov_stderr
    worst = float(max(mean_sig.max(), cov_sig.max()))
    ok = worst <= 4.0
    backend = kernels.active_backend()
    lines = [f"paths={report.paths}, t_final={report.t_final:g}, backend={backend}"]
    lines += [
        f"mean[{i}] = {report.mean[i]:+.6f}  exact {exact.mean[i]:+.6f}  "
        f"({mean_sig[i]:.2f} sigma)"
        for i in range(model.dim)
    ]
    lines += [
        f"cov[{i},{j}] = {report.cov[i, j]:+.6f}  exact {exact.cov[i, j]:+.6f}  "
        f"({cov_sig[i, j]:.2f} sigma)"
        for i in range(model.dim)
        for j in range(i, model.dim)
    ]
    lines.append(f"worst deviation {worst:.2f} sigma (limit 4)")
    lines.append(f"mc-check: {'PASS' if ok else 'FAIL'}")
    record = {
        "paths": report.paths,
        "dt": cfg.sim.dt,
        "t_final": report.t_final,
        "seed": cfg.sim.seed,
        "backend": backend,
        "mean": report.mean,
        "mean_exact": exact.mean,
        "mean_stderr": report.mean_stderr,
        "cov": report.cov,
        "cov_exact": exact.cov,
        "cov_stderr": report.cov_stderr,
        "worst_sigma": worst,
        "passed": ok,
    }
    return (0 if ok else 1), lines, record, None


_COMMANDS = {
    "eigensystem": cmd_eigensystem,
    "verify": cmd_verify,
    "propagate": cmd_propagate,
    "solve": cmd_solve,
    "mc-check": cmd_mc_check,
}


@functools.cache
def _parser():
    """The argument parser, built on first use and kept: each
    ``parse_args`` returns a new namespace, so calls share nothing."""
    ap = argparse.ArgumentParser(
        prog="ou-spectral",
        description="Eigensystem, verification, and propagation tools for "
        "Ornstein-Uhlenbeck Fokker-Planck operators.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("eigensystem", "print eigenvalues and eigenfunctions up to max_order"),
        ("verify", "run all verification suites"),
        ("propagate", "spectral propagation vs the exact Gaussian oracle"),
        ("solve", "solve the inhomogeneous stationary equation L P = q"),
        ("mc-check", "Monte Carlo cross-check of the exact propagator"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to JSON config")
        p.add_argument("--json", metavar="PATH", help="write machine-readable report")
        if name == "propagate":
            p.add_argument("--csv", metavar="PATH", help="write grid table as CSV")
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        code, lines, record, table = _COMMANDS[args.command](load_config(args.config))
        outputs = [(args.json, [_encode_json(record, args.json)])] if args.json else []
    except OUSpectralError as e:
        tag = "config" if isinstance(e, ConfigError) else type(e).__name__
        print(f"error[{tag}]: {e}", file=sys.stderr)
        return 2
    if getattr(args, "csv", None):
        outputs.append((args.csv, map(_csv_line, table)))
    for path, chunks in outputs:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as e:
            print(f"error[{type(e).__name__}]: cannot write {path}: {e.strerror}", file=sys.stderr)
            return 2
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
