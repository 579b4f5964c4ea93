"""The package names the benchmark binds still resolve.

``perfbench/layers.py`` wraps package functions by (module, function)
name, and the benchmark worker reports ``kernels.active_backend()``.  A
deleted or renamed name would otherwise break only the traced benchmark
run.  The file is parsed as source, never imported or written.  The
kernel's observer reads its path and step counts from fixed positions,
so the oracle must keep passing them there.
"""

import ast
import importlib
import pathlib

import ou_spectral
from ou_spectral import SimConfig, sde_oracle, simulate

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _bound_functions():
    """The ``FUNCTIONS`` tuple of perfbench/layers.py, read as a literal."""
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{LAYERS} defines no FUNCTIONS")


def test_benchmark_bindings_resolve():
    functions = _bound_functions()
    assert functions
    for module, func in functions:
        # The lookup of Layers: "*" marks an entry point, and a dotted name
        # is a function in a class's own namespace.
        parts = func.lstrip("*").split(".")
        fn = getattr(importlib.import_module(f"ou_spectral.{module}"), parts[0])
        if len(parts) == 2:
            fn = vars(fn)[parts[1]]
        assert callable(fn), (module, func)
    assert isinstance(ou_spectral.kernels.active_backend(), str)


def test_simulate_passes_em_paths_counts_positionally(monkeypatch, model_spiral):
    # The benchmark's em_paths observer counts path-steps as args[4] * args[5]
    # on every call, however simulate splits the paths into blocks.
    calls = []
    kernel = sde_oracle.em_paths

    def traced(*args, **kwargs):
        calls.append((args, kwargs))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(sde_oracle, "em_paths", traced)
    cfg = SimConfig(paths=9000, dt=0.05, t_final=0.2, seed=3)
    simulate(model_spiral, model_spiral.f0, cfg)
    assert calls
    for args, kwargs in calls:
        assert len(args) >= 6
        assert not {"n_paths", "n_steps"} & kwargs.keys()
    assert sum(int(args[4]) * int(args[5]) for args, _ in calls) == 9000 * 4
