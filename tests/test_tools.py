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
