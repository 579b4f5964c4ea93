"""One workload in one fresh process.

Run from the root of a checkout by ``run.py``; it imports ``ou_spectral``
from that checkout's ``src`` directory and nowhere else.  It sets up
(imports the package, generates the first cycle of inputs, builds the
model pool), then runs ``gen.cycle_count(workload, seconds)`` whole
cycles of tasks in a closed loop with one client, and writes
``result.json`` into ``--workdir``.
"""

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time


WORKLOADS = ("verify-cold", "spectral-stream", "mc-oracle")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="wall time the parent spawned us")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import ou_spectral
    import ou_spectral.cli

    import_s = time.perf_counter() - start
    if not os.path.abspath(ou_spectral.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"ou_spectral imported from {ou_spectral.__file__}, not {src}")

    import numpy as np
    import scipy

    import gen
    import tasks

    shutil.rmtree(args.workdir, ignore_errors=True)
    os.makedirs(args.workdir)
    work = tasks.WORKLOADS[args.workload](args.workload, ou_spectral, root, args.seed,
                                          args.workdir)
    todo = work.cycle(0)
    # Set-up time is the CPU time of this process since it started, for the
    # reason task times are (see tasks.py); the wall time since the parent
    # spawned it is kept alongside.
    result = {"setup_s": time.process_time(), "setup_wall_s": time.time() - args.t0,
              "import_s": import_s}

    tracer = layers = None
    if args.trace:
        from layers import Layers
        from spans import Tracer

        tracer = work.tracer = Tracer()
        layers = Layers(tracer, ou_spectral)
    if not args.setup_only:
        records = []
        cycles = gen.cycle_count(args.workload, args.seconds)
        begin = time.perf_counter()
        for k in range(cycles):
            if k:
                todo = work.cycle(k)
            for task in todo:
                if tracer is not None:
                    tracer.task = task["id"]
                # Collect the garbage of the previous task and its check
                # here, so that it is not collected inside the next timed call.
                gc.collect()
                records.append(work.run(task))
        result["wall_s"] = time.perf_counter() - begin
        if tracer is not None:
            tracer.uninstall()
        result["cycles"] = cycles
        result["correct"] = tasks.correct(records)
        result["records"] = [dataclasses.asdict(r) for r in records]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["meta"] = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "backend": ou_spectral.kernels.active_backend(),
            "threads": os.environ.get("OMP_NUM_THREADS"),
            "nproc": os.cpu_count(),
        }
        if layers is not None:
            result["layers"] = layers.metrics(import_s, len(records))
            result["spans"] = tracer.spans
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
