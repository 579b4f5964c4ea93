"""Compare the verify verdicts of two ``tools/bench_outputs.py`` trees.

Usage: python3 tools/verdicts.py BEFORE AFTER

A task is a ``verify-cold-*`` name with a ``.code`` or ``.json`` file in
either tree.  For each task whose exit code or any suite's ``passed``
differs between the trees, one line names the task, its exit codes when
they differ, and each suite whose verdict moved, with its ``worst`` before
and after.  Then one line per suite gives the largest ``worst`` over the
tasks that pass it, in BEFORE and in AFTER.  Exits 1, naming the tasks
held by one tree only, when the trees hold different task names.
Stdlib only.
"""

import json
import pathlib
import sys


def _tree(root):
    """{task: (exit code or None, {suite: (passed, worst)})} of ``root``."""
    paths = root.glob("verify-cold-*")
    names = {p.with_suffix("").name for p in paths if p.suffix in (".code", ".json")}
    tasks = {}
    for task in sorted(names):
        code, report = root / f"{task}.code", root / f"{task}.json"
        suites = json.loads(report.read_text())["suites"] if report.exists() else {}
        verdicts = {name: (suite["passed"], suite["worst"]) for name, suite in suites.items()}
        tasks[task] = (code.read_text().strip() if code.exists() else None, verdicts)
    return tasks


def _verdict(suite):
    return "-" if suite is None else "PASS" if suite[0] else "FAIL"


def _worst(suite):
    return "-" if suite is None else f"{suite[1]:.3e}"


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    before, after = (_tree(pathlib.Path(root)) for root in argv)
    if set(before) != set(after):
        sides = (("BEFORE", before, after), ("AFTER", after, before))
        only = [f"{side} only: {' '.join(sorted(a.keys() - b))}"
                for side, a, b in sides if a.keys() - b]
        sys.exit("task names differ; " + "; ".join(only))
    for task in before:
        (code0, suites0), (code1, suites1) = before[task], after[task]
        parts = [f"exit {code0} -> {code1}"] if code0 != code1 else []
        for name in sorted(set(suites0) | set(suites1)):
            s0, s1 = suites0.get(name), suites1.get(name)
            if _verdict(s0) != _verdict(s1):
                moved = f"{_verdict(s0)} -> {_verdict(s1)}, worst {_worst(s0)} -> {_worst(s1)}"
                parts.append(f"{name} {moved}")
        if parts:
            print(f"{task}: " + "; ".join(parts))
    names = {name for tree in (before, after) for _, suites in tree.values() for name in suites}
    for name in sorted(names):
        largest = []
        for tree in (before, after):
            passing = [s[name][1] for _, s in tree.values() if name in s and s[name][0]]
            largest.append(f"{max(passing):.3e}" if passing else "-")
        print(f"{name}: largest passing worst {largest[0]} -> {largest[1]}")


if __name__ == "__main__":
    main(sys.argv[1:])
