"""Workload tasks: run one call into the package, time it, check it.

Only the call into the package is timed.  Input generation and every
correctness check run outside the timed region, with the tracer paused.

A task's time is the CPU time the worker process spent in the call.  The
worker runs one thread of Python with BLAS and OpenMP pinned to one
thread, so on an idle machine CPU time and wall time agree; on a shared
machine the wall time also holds the time other processes held the CPU,
which swings by 10-20 % from minute to minute.  Wall time is recorded
too, and printed, but not used for the metrics.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import time

import numpy as np
import scipy.linalg

import gen

EXPAND_TOL = 1e-4  # max |expansion - exact| / max |exact| on the grid
SOLVE_TOL = 1e-8  # max |coeff(L P - q)| / max(1, max |coeff q|)
MC_EXACT_TOL = 1e-8  # reported exact moments against scipy's closed form
_CLI_ERROR = re.compile(r"error\[(\w+)\]")


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _exact_moments(A, B, mean0, cov0, t):
    """Gaussian law at time t, from scipy alone (independent of the package)."""
    Sigma = scipy.linalg.solve_continuous_lyapunov(A, -B)
    E = scipy.linalg.expm(t * A)
    return E @ mean0, Sigma + E @ (cov0 - Sigma) @ E.T


@dataclasses.dataclass
class Record:
    """Outcome of one task: time, pass or failure reason, output digest."""

    id: str
    kind: str
    seconds: float  # CPU seconds
    wall_seconds: float = 0.0
    ok: bool = False
    reason: str = None
    detail: str = None
    digest: str = None
    consistent: bool = True

    def fail(self, reason, detail=None):
        self.ok = False
        self.reason = reason
        self.detail = detail


class Timer:
    """CPU and wall clock of one timed call, started on creation."""

    def __init__(self):
        self.cpu = time.process_time()
        self.wall = time.perf_counter()

    def record(self, task):
        """A Record for ``task`` holding the seconds since creation."""
        cpu = time.process_time() - self.cpu
        wall = time.perf_counter() - self.wall
        return Record(task["id"], task["kind"], cpu, wall_seconds=wall)


class CliWorkload:
    """verify-cold and mc-oracle: ``cli.main`` in-process on config files."""

    def __init__(self, name, ou, root, seed, workdir):
        self.name = name
        self.cli = ou.cli
        self.root = root
        self.seed = seed
        self.inputs = os.path.join(workdir, "inputs")
        self.outputs = os.path.join(workdir, "outputs")
        os.makedirs(self.outputs)
        self.command = "verify" if name == "verify-cold" else "mc-check"

    def cycle(self, k):
        return gen.write_cycle(self.name, self.seed, k, self.inputs,
                               os.path.join(self.root, "configs"))

    def run(self, task):
        out = os.path.join(self.outputs, task["id"] + ".json")
        sink = io.StringIO()
        err = io.StringIO()
        reason = None
        timer = Timer()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                rc = self.cli.main([self.command, task["path"], "--json", out])
        except Exception as exc:  # a raise is a failed task, with its type
            rc = None
            reason = type(exc).__name__
        rec = timer.record(task)
        if rc is None:
            rec.fail(reason)
            return rec
        if rc != 0:
            match = _CLI_ERROR.search(err.getvalue())
            rec.fail(f"exit {rc}" + (f": {match.group(1)}" if match else ""), err.getvalue())
        if rc in (0, 1):
            rec.digest = _digest(out)
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
            if self.command == "verify":
                self._check_verify(rec, rc, report)
            else:
                self._check_mc(rec, rc, report, task)
        return rec

    def _check_verify(self, rec, rc, report):
        suites = report.get("suites", {})
        failing = sorted(n for n, s in suites.items() if not s["worst"] <= s["tol"])
        rec.consistent = (
            len(suites) == 6
            and all(s["passed"] == (s["worst"] <= s["tol"]) for s in suites.values())
            and report["passed"] == (not failing)
            and (rc == 0) == report["passed"]
        )
        if rc == 0 and rec.consistent:
            rec.ok = True
        elif failing:
            rec.fail("exit 1: verify failed", ",".join(failing))
        elif not rec.consistent:
            rec.fail("inconsistent verify report")

    def _check_mc(self, rec, rc, report, task):
        with open(task["path"], encoding="utf-8") as fh:
            cfg = json.load(fh)
        A = np.array(cfg["A"], dtype=float)
        B = np.array(cfg["B"], dtype=float)
        mean0 = np.array(cfg["initial"]["mean"], dtype=float)
        cov0 = np.array(cfg["initial"]["cov"], dtype=float)
        mean_t, cov_t = _exact_moments(A, B, mean0, cov0, report["t_final"])
        mean_x = np.array(report["mean_exact"])
        cov_x = np.array(report["cov_exact"])
        exact_ok = (
            np.max(np.abs(mean_x - mean_t)) <= MC_EXACT_TOL * max(1.0, np.max(np.abs(mean_t)))
            and np.max(np.abs(cov_x - cov_t)) <= MC_EXACT_TOL * max(1.0, np.max(np.abs(cov_t)))
        )
        mean_sig = np.abs(np.array(report["mean"]) - mean_x) / np.array(report["mean_stderr"])
        cov_sig = np.abs(np.array(report["cov"]) - cov_x) / np.array(report["cov_stderr"])
        worst = float(max(mean_sig.max(), cov_sig.max()))
        rec.consistent = bool(
            exact_ok
            and abs(worst - report["worst_sigma"]) <= 1e-9 * max(1.0, worst)
            and report["passed"] == (worst <= 4.0)
            and (rc == 0) == report["passed"]
        )
        if rc == 0 and rec.consistent:
            rec.ok = True
        elif not rec.consistent:
            rec.fail("inconsistent mc-check report")
        else:
            rec.fail("exit 1: 4-sigma check missed", f"{worst:.2f} sigma")


class SpectralWorkload:
    """spectral-stream: library calls on a pool of pre-built models."""

    tracer = None

    def __init__(self, name, ou, root, seed, workdir):
        self.ou = ou
        self.seed = seed
        self.inputs = os.path.join(workdir, "inputs")
        self.pool_spec = gen.spectral_pool(seed)
        self.sigma = [
            gen.stationary_cov(np.array(s["A"]), np.array(s["B"])) for s in self.pool_spec
        ]
        self.models = []
        self.build_errors = []
        for spec in self.pool_spec:
            try:
                model = ou.build_model(np.array(spec["A"]), np.array(spec["B"]))
                error = None
            except Exception as exc:  # the model's requests fail with this reason
                model, error = None, type(exc).__name__
            if model is not None:
                # Users of a model pool build each model's eigenfunctions
                # once; do that here so every timed cycle sees warm models.
                for K in ou.enumerate_modes(model.dim, spec["max_order"]):
                    ou.forward_eigenfunction(model, K)
                    ou.adjoint_eigenfunction(model, K)
            self.models.append(model)
            self.build_errors.append(error)

    def cycle(self, k):
        return gen.write_cycle("spectral-stream", self.seed, k, self.inputs, None,
                               self.pool_spec)

    def run(self, req):
        ou = self.ou
        m = req["model"]
        model, spec = self.models[m], self.pool_spec[m]
        if model is None:
            rec = Record(req["id"], req["kind"], 0.0)
            rec.fail("build_model: " + self.build_errors[m])
            return rec
        order = spec["max_order"]
        if req["op"] == "expand":
            points = gen.grid_points(req, self.sigma[m])
            timer = Timer()
            try:
                F0 = ou.GaussianDensity(np.array(req["mean"]), np.array(req["cov"]))
                expn = ou.expand_gaussian(model, F0, order)
                values = [ou.evaluate_grid_complex(expn, points, t) for t in req["times"]]
                error = None
            except Exception as exc:
                error = type(exc).__name__
            rec = timer.record(req)
            if error is not None:
                rec.fail(error)
                return rec
            with self._untraced():
                worst = 0.0
                for t, vals in zip(req["times"], values):
                    exact = ou.exact_gaussian_propagate(model, F0, t).pdf_grid(points)
                    err = np.max(np.abs(vals.real - exact)) / np.max(exact)
                    worst = max(worst, float(err)) if np.isfinite(err) else np.inf
            if worst <= EXPAND_TOL:
                rec.ok = True
            else:
                rec.fail("check: expansion off exact propagation", f"relative error {worst:.2e}")
            return rec
        terms = {}
        for exps, (re_, im) in req["source"]:
            terms[tuple(exps)] = terms.get(tuple(exps), 0.0) + complex(re_, im)
        timer = Timer()
        try:
            q = ou.ForwardFunction(ou.MPoly(model.dim, terms, model.prune_eps), model.f0)
            P = ou.solve_inhomogeneous(model, q, order)
            error = None
        except Exception as exc:
            error = type(exc).__name__
        rec = timer.record(req)
        if error is not None:
            rec.fail(error)
            return rec
        with self._untraced():
            resid = ou.coeff_distance(ou.apply_forward(model, P).poly, q.poly)
            resid /= max(1.0, q.poly.max_coeff())
        if resid <= SOLVE_TOL:
            rec.ok = True
        else:
            rec.fail("check: solve residual", f"relative residual {resid:.2e}")
        return rec

    @contextlib.contextmanager
    def _untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False


WORKLOADS = {
    "verify-cold": CliWorkload,
    "mc-oracle": CliWorkload,
    "spectral-stream": SpectralWorkload,
}


def correct(records):
    """No report contradicts itself or the benchmark's own oracle.

    A task whose output misses its check is a failed task: it is counted
    in ``failed`` and ``passed_frac`` and listed by reason, on plain inputs
    as on rescaled or stiff ones.  ``correct`` is false only when the
    measurement itself cannot be trusted: a verify report whose verdict
    disagrees with its own suite residuals, or an mc-check report whose
    exact moments or sigma count disagree with the benchmark's.
    """
    return all(r.consistent for r in records)
