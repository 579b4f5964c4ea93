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

What each run cost goes to this tool's stdout only, one line per run:
``<name>: exit <code>, <wall> s, <peak RSS> MB``, the wall time from just
before the process is started to its exit, and the peak resident set of
the process, as ``os.wait4`` reports it (``ru_maxrss``, KiB on Linux).
Run the tool several times and take the best to compare two checkouts.
Stdlib only; ``os.wait4`` is POSIX.
"""

import os
import pathlib
import subprocess
import sys
import time

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
            with open(out / f"{name}.stdout", "wb") as so, open(out / f"{name}.stderr", "wb") as se:
                start = time.perf_counter()
                proc = subprocess.Popen(argv, cwd=out, env=env, stdout=so, stderr=se)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            # wait4 reaped the child; tell Popen, which did not see it.
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            (out / f"{name}.code").write_text(f"{code}\n")
            print(f"{name}: exit {code}, {wall:.3f} s, {usage.ru_maxrss / 1024:.1f} MB")


if __name__ == "__main__":
    main(sys.argv[1:])
