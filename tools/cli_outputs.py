"""Run every CLI subcommand on every shipped config and keep what it emits.

Usage: python3 tools/cli_outputs.py OUTDIR

Each subcommand runs on each ``configs/*.json`` of this checkout in a
fresh process, with this checkout's ``src/`` first on the import path and
``OPENBLAS_NUM_THREADS=1``, and with ``--json`` (and ``--csv`` for
``propagate``).  For a run named ``<command>-<config>``, OUTDIR receives
``.stdout``, ``.stderr`` and ``.code`` (the exit code), and the ``.json``
and ``.csv`` files that the run wrote.  Processes run in OUTDIR and name
their output files relative to it, so two checkouts give byte-identical
trees exactly when they emit the same bytes, which ``diff -r`` shows.
Stdlib only.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
COMMANDS = ("eigensystem", "verify", "propagate", "solve", "mc-check")


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__.split("\n\n")[1])
    out = pathlib.Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    for config in sorted((ROOT / "configs").glob("*.json")):
        for command in COMMANDS:
            name = f"{command}-{config.stem}"
            argv = [sys.executable, "-m", "ou_spectral.cli", command, str(config)]
            argv += ["--json", f"{name}.json"]
            if command == "propagate":
                argv += ["--csv", f"{name}.csv"]
            run = subprocess.run(argv, cwd=out, env=env, capture_output=True)
            (out / f"{name}.stdout").write_bytes(run.stdout)
            (out / f"{name}.stderr").write_bytes(run.stderr)
            (out / f"{name}.code").write_text(f"{run.returncode}\n")
            print(f"{name}: exit {run.returncode}")


if __name__ == "__main__":
    main(sys.argv[1:])
