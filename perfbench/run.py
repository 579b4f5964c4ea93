"""ou-spectral benchmark: one command, one workload, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 30 --trace 0

Workloads: verify-cold, spectral-stream, mc-oracle (see perfbench/README.md).

Every workload runs in fresh worker processes (perfbench/worker.py) with
BLAS and OpenMP pinned to one thread.  A run is a fixed number of whole
cycles of tasks, as many as take about ``--seconds`` on the reference
machine (``gen.cycle_count``), so a seed always gives the same tasks.
With ``--trace 0`` the command runs set-up alone a few times, then one
measured run, and reports the end-to-end metrics.  With ``--trace 1`` it
runs the workload untraced and then traced with the same seed, each for
half of ``--seconds``, reports the per-layer metrics and
``trace.overhead_frac``, and checks that tracing left every CLI output
byte-identical.  The last line of standard output is the JSON result.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import stats
from gen import WORKLOADS
from layers import metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 2  # extra set-up-only processes; setup_s is the median
DEADLINE_S = 175.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "OU_SPECTRAL_THREADS",
)
END_TO_END = (
    ("tasks_per_s", "1/s"),
    ("task_s_p50", "s"),
    ("task_s_tail", "s"),
    ("passed_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
OUT_DIR = ".bench_out"


def git_commit(root):
    """Commit hash from .git, read without running git; None outside a repo."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def worker_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Runner:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.start = time.monotonic()
        self.env = worker_env()

    def worker(self, role, trace=0, setup_only=False, seconds=None):
        """Run one worker process to completion and return its result."""
        workdir = os.path.join(
            self.root, OUT_DIR, f"{self.args.workload}-seed{self.args.seed}-{role}"
        )
        cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds if seconds is None else seconds),
            "--trace", str(trace),
            "--workdir", workdir,
            "--t0", repr(time.time()),
        ]
        if setup_only:
            cmd.append("--setup-only")
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        if remaining <= 0:
            raise RuntimeError("out of time before starting " + role)
        # subprocess.run kills and reaps the worker if it overruns.
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=sys.stderr,
                              timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {role} exited with code {proc.returncode}")
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        if not setup_only:
            result.update(stats.summarize(result["records"]))
        return result


def digests(result):
    return {r["id"]: r["digest"] for r in result["records"] if r["digest"] is not None}


def describe(res, meta):
    """Human-readable lines: failures, tail rung, digest, run metadata."""
    lines = [
        f"# tasks attempted {res['attempted']}, passed {res['passed']}, "
        f"failed {res['failed']} (failed_frac {res['failed_frac']:.4f}), "
        f"{res['cycles']} cycles, {res['wall_s']:.1f} s wall",
        f"# task_s_tail is p{res['tail_percentile']:g} of {res['tail_samples']} samples",
        f"# task times are CPU seconds; by wall clock, tasks_per_s "
        f"{res['wall_tasks_per_s']!r}, task_s_p50 {res['wall_task_s_p50']!r}",
    ]
    for reason, count in res["failure_reasons"].items():
        lines.append(f"# failure reason: {count} x {reason}")
    for kind, count in res["failed_by_kind"].items():
        lines.append(f"# failed {kind} tasks: {count}")
    first = sorted(d for i, d in digests(res).items() if i.startswith("c0"))
    if first:
        lines.append(f"# first-cycle output digest {combined(first)}")
    lines.append("# meta " + json.dumps(meta, sort_keys=True))
    return lines


def combined(digest_list):
    return hashlib.sha256("".join(digest_list).encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    for need in (os.path.join("src", "ou_spectral", "__init__.py"), "configs"):
        if not os.path.exists(os.path.join(root, need)):
            print(f"error: {need} not found; run from the root of an ou-spectral checkout",
                  file=sys.stderr)
            return 2

    runner = Runner(args, root)
    try:
        if args.trace:
            # The two runs share the time of one run between them.
            half = args.seconds / 2.0
            plain = runner.worker("untraced", seconds=half)
            traced = runner.worker("traced", trace=1, seconds=half)
            res = traced
            before = digests(plain)
            same = all(before[i] == d for i, d in digests(traced).items() if i in before)
            overhead = 1.0 - traced["tasks_per_s"] / plain["tasks_per_s"]
            units = metric_units()
            values = dict(traced["layers"])
            units["trace.overhead_frac"] = "frac"
            values["trace.overhead_frac"] = overhead
            correct = plain["correct"] and traced["correct"] and same
            # Layer times stay out of the JSON result: a bypassed layer
            # reads exactly 0 s on every run.  They are printed below.
            metrics = {name: {"value": values[name], "unit": units[name]}
                       for name in units if not name.endswith(("self_s", "total_s"))}
            extra = [f"# {name} = {values[name]!r} {units[name]}"
                     for name in units if name not in metrics]
            extra.append(f"# traced output digests match untraced: {same}")
            with open(os.path.join(root, OUT_DIR,
                                   f"trace-{args.workload}-seed{args.seed}.json"),
                      "w", encoding="utf-8") as fh:
                json.dump({"layers": values, "spans": traced["spans"],
                           "span_fields": ["name", "start", "end", "parent", "task", "self_s"]},
                          fh)
        else:
            probes = [runner.worker(f"setup{i}", setup_only=True)
                      for i in range(SETUP_PROBES)]
            res = runner.worker("measured")
            probes.append(res)
            setups = [p["setup_s"] for p in probes]
            values = {name: res[name] for name, _ in END_TO_END if name != "setup_s"}
            values["setup_s"] = statistics.median(setups)
            correct = res["correct"]
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            extra = [f"# setup_s samples {setups} (CPU seconds)",
                     f"# set-up wall seconds {[p['setup_wall_s'] for p in probes]}"]
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    meta = dict(res["meta"], commit=git_commit(root), workload=args.workload,
                seed=args.seed, seconds=args.seconds, trace=args.trace)
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for line in describe(res, meta) + extra:
        print(line)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
