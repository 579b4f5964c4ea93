"""Run the benchmark's CLI tasks on seeded inputs and keep what they emit.

Usage: python3 tools/bench_outputs.py OUTDIR SEED...

For each SEED, ``perfbench/gen.py``'s ``write_cycle`` writes the configs
of verify-cold cycles 0 and 1 and of mc-oracle cycle 0 under
``OUTDIR/inputs``, and each task runs in this process as
``ou_spectral.cli.main([command, config, "--json", out])``, with this
checkout's ``src/`` first on the import path and ``OPENBLAS_NUM_THREADS=1``.
For a task named ``<workload>-<seed>-<task id>``, OUTDIR receives
``.stdout``, ``.stderr``, ``.code`` (the exit code) and the ``.json`` file
that the run wrote.  The tool works in OUTDIR and names every file
relative to it, so two checkouts give byte-identical trees exactly when
they emit the same bytes, which ``diff -r`` shows.  No bytecode is
written, so the checkout's ``perfbench/`` stays as it is.
"""

import contextlib
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


if __name__ == "__main__":
    main(sys.argv[1:])
