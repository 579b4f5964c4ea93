"""The generator: same seed, same bytes; another seed, other bytes."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402

CONFIGS = os.path.join(ROOT, "configs")


def _write_all(seed, outdir):
    for workload in gen.WORKLOADS:
        for k in range(2):
            gen.write_cycle(workload, seed, k, os.path.join(outdir, workload), CONFIGS)


def _tree(top):
    out = {}
    for dirpath, _, files in os.walk(top):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, top)] = fh.read()
    return out


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    _write_all(7, tmp_path / "a")
    _write_all(7, tmp_path / "b")
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert len(a) > 50
    assert a == b


def test_other_seed_gives_other_inputs(tmp_path):
    _write_all(7, tmp_path / "a")
    _write_all(8, tmp_path / "b")
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert a.keys() == b.keys()
    fixed = {os.path.join("verify-cold", "c0s1.json"), os.path.join("verify-cold", "c0s2.json")}
    fixed |= {os.path.join("mc-oracle", f"c{k}s{s}.json") for k in range(2) for s in range(2)}
    for name in a:
        if name in fixed:
            assert a[name] == b[name], name
        else:
            assert a[name] != b[name], name


def test_fixed_configs_are_copied_verbatim(tmp_path):
    tasks = gen.write_cycle("verify-cold", 3, 0, str(tmp_path), CONFIGS)
    by_id = {t["id"]: t for t in tasks}
    for slot, name in gen.VERIFY_FIXED.items():
        with open(by_id[f"c0s{slot}"]["path"], "rb") as fh:
            copied = fh.read()
        with open(os.path.join(CONFIGS, name), "rb") as fh:
            assert copied == fh.read()
    later = gen.verify_cycle(3, 1)
    assert not any("fixed" in t for t in later)


def test_run_length_is_a_fixed_number_of_cycles():
    # A run's tasks depend on the seed and --seconds only, never on timing.
    assert gen.cycle_count("verify-cold", 30) == 2
    assert gen.cycle_count("spectral-stream", 30) == 2
    assert gen.cycle_count("mc-oracle", 30) == 3
    assert all(gen.cycle_count(w, 1) == 1 for w in gen.WORKLOADS)
