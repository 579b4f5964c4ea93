"""``tools/cli_outputs.py``, run on a tree that holds one config."""

import filecmp
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
