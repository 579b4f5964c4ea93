"""Tracer arithmetic on a synthetic span tree, and tracing side effects."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import ou_spectral  # noqa: E402
import ou_spectral.cli  # noqa: E402
from layers import FUNCTIONS, Layers  # noqa: E402
from spans import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def c():
        clock.t += 1.0

    def b():
        clock.t += 1.0
        c_()
        clock.t += 1.0

    def d():  # a hot primitive: aggregated, no span of its own
        clock.t += 3.0
        c_()

    def a():
        clock.t += 1.0
        b_()
        clock.t += 2.0
        d_()
        clock.t += 0.5

    c_ = tr.wrap("c", c, span=True, total=True)
    b_ = tr.wrap("b", b, span=True, total=True)
    d_ = tr.wrap("d", d)
    a_ = tr.wrap("a", a, span=True, total=True)
    tr.task = "t1"
    a_()

    assert tr.stats["a"] == [1, pytest.approx(3.5), pytest.approx(10.5)]
    assert tr.stats["b"] == [1, pytest.approx(2.0), pytest.approx(3.0)]
    assert tr.stats["c"] == [2, pytest.approx(2.0), pytest.approx(2.0)]
    assert tr.stats["d"][:2] == [1, pytest.approx(3.0)]
    # Spans: [name, start, end, parent, task, self_s]; c under the hot d
    # hangs from a, the nearest ancestor that keeps spans.
    assert tr.spans == [
        ["a", 0.0, 10.5, None, "t1", 3.5],
        ["b", 1.0, 4.0, 0, "t1", 2.0],
        ["c", 2.0, 3.0, 1, "t1", 1.0],
        ["c", 9.0, 10.0, 0, "t1", 1.0],
    ]


def test_recursion_counts_outermost_total_once():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def r(n):
        clock.t += 1.0
        if n:
            r_(n - 1)

    r_ = tr.wrap("r", r, span=True, total=True)
    r_(2)
    assert tr.stats["r"] == [3, pytest.approx(3.0), pytest.approx(3.0)]


def test_exception_still_closes_the_frame():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def boom():
        clock.t += 2.0
        raise ZeroDivisionError

    boom_ = tr.wrap("boom", boom)
    with pytest.raises(ZeroDivisionError):
        boom_()
    assert tr.stack == []
    assert tr.stats["boom"][:2] == [1, pytest.approx(2.0)]


def _bindings(fn):
    mods = [m for name, m in vars(ou_spectral).items() if type(m) is type(os)]
    hits = 0
    for mod in [ou_spectral] + mods:
        owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
        hits += sum(1 for o in owners for v in vars(o).values() if v is fn)
    return hits


def test_install_rebinds_every_name_and_uninstall_restores():
    originals = []
    for module, func in FUNCTIONS:
        parts = func.lstrip("*").split(".")
        fn = getattr(getattr(ou_spectral, module), parts[0])
        if len(parts) == 2:
            fn = vars(fn)[parts[1]]
        originals.append((fn, _bindings(fn)))
    tr = Tracer()
    Layers(tr, ou_spectral)
    try:
        assert all(_bindings(fn) == 0 for fn, _ in originals)
    finally:
        tr.uninstall()
    assert all(_bindings(fn) == count for fn, count in originals)


def test_tracing_leaves_verify_json_byte_identical(tmp_path, capsys):
    config = os.path.join(ROOT, "configs", "spiral_2d.json")
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert ou_spectral.cli.main(["verify", config, "--json", str(plain)]) == 0
    tr = Tracer()
    layers = Layers(tr, ou_spectral)
    try:
        assert ou_spectral.cli.main(["verify", config, "--json", str(traced)]) == 0
    finally:
        tr.uninstall()
    capsys.readouterr()
    assert plain.read_bytes() == traced.read_bytes()
    metrics = layers.metrics(import_s=0.0, tasks=1)
    assert metrics["cli.main.calls"] == 1
    assert metrics["verify.hermite_suite.total_s"] > 0.0
    assert metrics["mpoly.MPoly.__init__.calls"] > 1000
    assert metrics["mpoly.terms_out"] > 0
    assert 0.0 < metrics["ladder.eigenfunction.repeat_ratio"] < 1.0
    assert metrics["ladder.eigenfunction.cross_task_repeat_ratio"] == 0.0
    assert metrics["kernels.em_paths.calls"] == 0
