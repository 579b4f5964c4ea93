"""The package names the benchmark binds still resolve.

``perfbench/layers.py`` wraps package functions by (module, function)
name, and the benchmark worker reports ``kernels.active_backend()``.  A
deleted or renamed name would otherwise break only the traced benchmark
run.  The file is parsed as source, never imported or written.
"""

import ast
import importlib
import pathlib

import ou_spectral

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
