"""Run summary from per-task records: goodput, quantiles, failures.

Computed by ``run.py`` after the worker has exited, so that nothing here
adds to the worker's set-up time or memory.
"""

import numpy as np
import scipy.special

# Highest percentile with at least TAIL_MIN samples beyond it, from a
# coarse ladder so that small changes in the task count keep the rung.
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN = 10


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile, 0 < p < 1.

    A weighted mean of all order statistics with Beta(p(n+1), (1-p)(n+1))
    weights.  A task mix gives sorted times in blocks with gaps between
    them; a single order statistic jumps across a gap when noise reorders
    two blocks, while this estimate moves smoothly.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    cdf = scipy.special.betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ x)


def tail(seconds):
    """(percentile, value): highest ladder rung with TAIL_MIN samples beyond,
    or the median when fewer than 2 * TAIL_MIN tasks ran."""
    n = len(seconds)
    p = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= TAIL_MIN), 50.0)
    return p, quantile(seconds, p / 100.0)


def summarize(records):
    """Metrics of one run from its records (dicts, as the worker wrote them)."""
    seconds = [r["seconds"] for r in records]
    passed = sum(r["ok"] for r in records)
    timed = sum(seconds)
    reasons = {}
    by_kind = {}
    for r in records:
        if not r["ok"]:
            reasons[r["reason"]] = reasons.get(r["reason"], 0) + 1
            by_kind[r["kind"]] = by_kind.get(r["kind"], 0) + 1
    p, value = tail(seconds)
    wall = [r["wall_seconds"] for r in records]
    return {
        "attempted": len(records),
        "passed": passed,
        "failed": len(records) - passed,
        "timed_s": timed,
        "tasks_per_s": passed / timed if timed > 0 else 0.0,
        "task_s_p50": quantile(seconds, 0.5),
        "task_s_tail": value,
        "tail_percentile": p,
        "tail_samples": len(seconds),
        "passed_frac": passed / len(records),
        "failed_frac": (len(records) - passed) / len(records),
        "failure_reasons": dict(sorted(reasons.items())),
        "failed_by_kind": dict(sorted(by_kind.items())),
        "wall_tasks_per_s": passed / sum(wall),
        "wall_task_s_p50": quantile(wall, 0.5),
    }
