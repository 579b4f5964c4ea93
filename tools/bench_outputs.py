"""Run the benchmark's tasks on seeded inputs and keep what they emit.

Usage: python3 tools/bench_outputs.py OUTDIR SEED...

For each SEED, ``perfbench/gen.py``'s ``write_cycle`` writes the configs
of verify-cold cycles 0 and 1 and of mc-oracle cycle 0 under
``OUTDIR/inputs``, and each task runs in this process as
``ou_spectral.cli.main([command, config, "--json", out])``, with this
checkout's ``src/`` first on the import path and ``OPENBLAS_NUM_THREADS=1``.
For a task named ``<workload>-<seed>-<task id>``, OUTDIR receives
``.stdout``, ``.stderr``, ``.code`` (the exit code) and the ``.json`` file
that the run wrote.

spectral-stream's requests of cycles 0 and 1 run as library calls on the
seed's model pool, built once and warmed as the benchmark warms it.  For
a request named ``spectral-stream-<seed>-<request id>``, OUTDIR receives
``.sha256``, one line per array: ``<what> <dtype> <shape> <SHA-256 of its
bytes>``.  An expand request keeps its expansion coefficients and, at each
time, the values on ``gen.grid_points`` and the exact density there; a
solve request keeps the solution's coefficients.  A request that raises
writes ``.stderr`` instead, as ``error[<type>]: <message>``.

The tool works in OUTDIR and names every file relative to it, so two
checkouts give byte-identical trees exactly when they emit the same
bytes, which ``diff -r`` shows.  No bytecode is written, so the
checkout's ``perfbench/`` stays as it is.
"""

import contextlib
import hashlib
import io
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
# (workload, cycle, CLI command) of each batch of tasks, per seed.
BATCHES = (("verify-cold", 0, "verify"), ("verify-cold", 1, "verify"), ("mc-oracle", 0, "mc-check"))


def main(argv):
    if len(argv) < 2 or not all(seed.isdigit() for seed in argv[1:]):
        sys.exit(__doc__.split("\n\n")[1])
    out = pathlib.Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import gen
    from ou_spectral import cli

    os.chdir(out)
    for seed in map(int, argv[1:]):
        for workload, k, command in BATCHES:
            inputs = f"inputs/{workload}-{seed}"
            for task in gen.write_cycle(workload, seed, k, inputs, str(ROOT / "configs")):
                name = f"{workload}-{seed}-{task['id']}"
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main([command, task["path"], "--json", f"{name}.json"])
                pathlib.Path(f"{name}.stdout").write_text(stdout.getvalue())
                pathlib.Path(f"{name}.stderr").write_text(stderr.getvalue())
                pathlib.Path(f"{name}.code").write_text(f"{code}\n")
                print(f"{name}: exit {code}")
        _spectral_stream(seed)


def _spectral_stream(seed):
    """Write the digests of spectral-stream's cycles 0 and 1 on ``seed``."""
    import gen
    import numpy as np

    import ou_spectral as ou

    pool = gen.spectral_pool(seed)
    models = []
    for spec in pool:
        try:
            model = ou.build_model(np.array(spec["A"]), np.array(spec["B"]))
        except Exception as exc:  # each request of the model raises it
            models.append(exc)
            continue
        for K in ou.enumerate_modes(model.dim, spec["max_order"]):
            ou.forward_eigenfunction(model, K)
            ou.adjoint_eigenfunction(model, K)
        models.append(model)
    for k in (0, 1):
        for req in gen.write_cycle("spectral-stream", seed, k, f"inputs/spectral-stream-{seed}", None, pool):
            name = f"spectral-stream-{seed}-{req['id']}"
            try:
                lines = _digests(models[req["model"]], pool[req["model"]], req)
            except Exception as exc:
                pathlib.Path(f"{name}.stderr").write_text(f"error[{type(exc).__name__}]: {exc}\n")
                print(f"{name}: error")
            else:
                pathlib.Path(f"{name}.sha256").write_text("".join(f"{line}\n" for line in lines))
                print(f"{name}: ok")


def _digests(model, spec, req):
    """One line per array that the request ``req`` computes on ``model``."""
    import gen
    import numpy as np

    import ou_spectral as ou

    if isinstance(model, Exception):
        raise model

    def line(what, a):
        shape = "x".join(map(str, a.shape))
        return f"{what} {a.dtype} {shape} {hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()}"

    order = spec["max_order"]
    if req["op"] == "solve":
        terms = {tuple(exps): complex(re_, im) for exps, (re_, im) in req["source"]}
        q = ou.ForwardFunction(ou.MPoly(model.dim, terms, model.prune_eps), model.f0)
        return [line("solution", ou.solve_inhomogeneous(model, q, order).poly.coeffs)]
    points = gen.grid_points(req, gen.stationary_cov(np.array(spec["A"]), np.array(spec["B"])))
    F0 = ou.GaussianDensity(np.array(req["mean"]), np.array(req["cov"]))
    expansion = ou.expand_gaussian(model, F0, order)
    lines = [line("coeffs", expansion.coeffs)]
    for t in req["times"]:
        lines.append(line(f"values@{t!r}", ou.evaluate_grid_complex(expansion, points, t)))
        lines.append(line(f"exact@{t!r}", ou.exact_gaussian_propagate(model, F0, t).pdf_grid(points)))
    return lines


if __name__ == "__main__":
    main(sys.argv[1:])
