"""The tools: ``cli_outputs.py`` run on a tree that holds one config,
``bench_outputs.py`` on one seed and ``verdicts.py`` on synthetic trees."""

import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("eigensystem", "verify", "propagate", "solve", "mc-check")


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A copy of the tool beside ``configs/canonical_1d.json`` and a link to
    this checkout's ``src/``, so the tool runs five processes, not twenty."""
    root = tmp_path_factory.mktemp("checkout")
    (root / "tools").mkdir()
    (root / "configs").mkdir()
    shutil.copy(ROOT / "tools" / "cli_outputs.py", root / "tools")
    shutil.copy(ROOT / "configs" / "canonical_1d.json", root / "configs")
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return root


def _run(tree, *args):
    tool = [sys.executable, str(tree / "tools" / "cli_outputs.py"), *map(str, args)]
    return subprocess.run(tool, capture_output=True, text=True)


def test_cli_outputs_keeps_every_file_of_each_run_and_repeats_bit_for_bit(tree):
    outs = [tree / "first", tree / "second"]
    for out in outs:
        run = _run(tree, out)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "".join(f"{c}-canonical_1d: exit 0\n" for c in COMMANDS)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(
        f"{command}-canonical_1d{suffix}"
        for command in COMMANDS
        for suffix in (".stdout", ".stderr", ".code", ".json")
        + ((".csv",) if command == "propagate" else ())
    )
    assert all((outs[0] / name).read_text() == "0\n" for name in names if name.endswith(".code"))
    assert sorted(p.name for p in outs[1].iterdir()) == names
    match, mismatch, errors = filecmp.cmpfiles(*outs, names, shallow=False)
    assert (mismatch, errors) == ([], [])


@pytest.mark.parametrize("args", [(), ("a", "b")], ids=["none", "two"])
def test_cli_outputs_with_a_wrong_argument_count_exits_with_its_usage(tree, args):
    run = _run(tree, *args)
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr == "Usage: python3 tools/cli_outputs.py OUTDIR\n"


def _files(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def test_bench_outputs_keeps_every_file_of_each_task_and_repeats_bit_for_bit(tmp_path):
    # Two runs on one seed, side by side: 24 verify and 15 mc-check tasks
    # and 66 spectral-stream requests each, with their inputs.
    outs = [tmp_path / "first", tmp_path / "second"]
    tool = [sys.executable, str(ROOT / "tools" / "bench_outputs.py")]
    runs = [
        subprocess.Popen([*tool, out, "45"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for out in outs
    ]
    for run in runs:
        _, stderr = run.communicate()
        assert run.returncode == 0, stderr
    names = _files(outs[0])
    codes = {n[: -len(".code")]: (outs[0] / n).read_text() for n in names if n.endswith(".code")}
    assert len(codes) == 39 and set(codes.values()) <= {"0\n", "1\n", "2\n"}
    assert sum(n.startswith("inputs/") for n in names) == 39 + 3  # + pool.json, cycle0.json, cycle1.json
    requests = [n for n in names if n.startswith("spectral-stream-")]
    assert len(requests) == 66 and all(n.endswith((".sha256", ".stderr")) for n in requests)
    assert len({n.rpartition(".")[0] for n in requests}) == 66
    for n in requests:
        lines = (outs[0] / n).read_text().splitlines()
        if n.endswith(".stderr"):
            assert len(lines) == 1 and lines[0].startswith("error["), lines
        else:
            assert len(lines) in (1, 7) and all(len(line.split()[-1]) == 64 for line in lines)
    for task, code in codes.items():
        wrote = {".code", ".stdout", ".stderr"} | ({".json"} if code != "2\n" else set())
        assert {s for s in (".code", ".json", ".stderr", ".stdout") if task + s in names} == wrote
    assert _files(outs[1]) == names
    match, mismatch, errors = filecmp.cmpfiles(*outs, names, shallow=False)
    assert (mismatch, errors) == ([], [])


@pytest.mark.parametrize("args", [(), ("out",), ("out", "4x")], ids=["none", "no-seed", "bad-seed"])
def test_bench_outputs_with_wrong_arguments_exits_with_its_usage(args):
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_outputs.py"), *args],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr == "Usage: python3 tools/bench_outputs.py OUTDIR SEED...\n"


def _verify_task(root, task, code, suites=None):
    """Write ``task``'s ``.code`` and, given its suites as {name: (passed,
    worst)}, a ``.json`` in the shape of ``verify --json``."""
    root.mkdir(exist_ok=True)
    (root / f"{task}.code").write_text(f"{code}\n")
    if suites is not None:
        body = {n: {"lines": [], "passed": p, "tol": 1e-9, "worst": w} for n, (p, w) in suites.items()}
        passed = all(p for p, _ in suites.values())
        (root / f"{task}.json").write_text(json.dumps({"passed": passed, "suites": body}))


def _verdicts(*args):
    tool = [sys.executable, str(ROOT / "tools" / "verdicts.py"), *map(str, args)]
    return subprocess.run(tool, capture_output=True, text=True)


def test_verdicts_prints_each_moved_verdict_and_the_largest_passing_worst(tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    for root, hermite, code in ((before, (False, 3e-8), 1), (after, (True, 2e-15), 1)):
        _verify_task(root, "verify-cold-7-a", code, {"hermite-form": hermite, "biorthogonality": (False, 1e-6)})
    _verify_task(before, "verify-cold-7-b", 0, {"hermite-form": (True, 4e-13), "biorthogonality": (True, 0.0)})
    _verify_task(after, "verify-cold-7-b", 0, {"hermite-form": (True, 1e-15), "biorthogonality": (True, 0.0)})
    _verify_task(before, "verify-cold-7-c", 1, {"hermite-form": (False, 1.0), "biorthogonality": (True, 0.0)})
    _verify_task(after, "verify-cold-7-c", 2)
    # Neither a spectral-stream file nor a .stdout names a task.
    (before / "spectral-stream-7-0.sha256").write_text("")
    (after / "verify-cold-7-a.stdout").write_text("")
    run = _verdicts(before, after)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "verify-cold-7-a: hermite-form FAIL -> PASS, worst 3.000e-08 -> 2.000e-15",
        "verify-cold-7-c: exit 1 -> 2; biorthogonality PASS -> -, worst 0.000e+00 -> -; "
        "hermite-form FAIL -> -, worst 1.000e+00 -> -",
        "biorthogonality: largest passing worst 0.000e+00 -> 0.000e+00",
        "hermite-form: largest passing worst 4.000e-13 -> 2.000e-15",
    ]


def test_verdicts_of_trees_with_different_tasks_exits_1(tmp_path):
    _verify_task(tmp_path / "before", "verify-cold-7-a", 0, {})
    _verify_task(tmp_path / "after", "verify-cold-7-b", 0, {})
    run = _verdicts(tmp_path / "before", tmp_path / "after")
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr == "task names differ; BEFORE only: verify-cold-7-a; AFTER only: verify-cold-7-b\n"


@pytest.mark.parametrize("args", [(), ("a",), ("a", "b", "c")], ids=["none", "one", "three"])
def test_verdicts_with_a_wrong_argument_count_exits_with_its_usage(args):
    run = _verdicts(*args)
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr == "Usage: python3 tools/verdicts.py BEFORE AFTER\n"
