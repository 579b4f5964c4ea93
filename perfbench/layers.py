"""Which package functions the traced run wraps, and the per-layer metrics.

A layer is a module of ``ou_spectral``.  Each wrapped function reports
``<module>.<function>.calls`` and ``.self_s``; entry points also report
``.total_s`` (outermost calls only) and keep one span per call.  The
counters below are computed from argument shapes and return values at the
call boundary; the kernel op and byte counts are derived from array
shapes, not measured.
"""

import numpy as np

from spans import RepeatCounter

# (module, function); "*" marks an entry point (span + total_s).
FUNCTIONS = (
    ("mpoly", "MPoly.__init__"),
    ("mpoly", "MPoly.__mul__"),
    ("mpoly", "MPoly.__add__"),
    ("mpoly", "MPoly.__sub__"),
    ("mpoly", "MPoly.diff"),
    ("mpoly", "MPoly.affine"),
    ("mpoly", "MPoly.__call__"),
    ("mpoly", "MPoly.to_arrays"),
    ("gaussian", "expectation"),
    ("gaussian", "inner_product"),
    ("gaussian", "wick_moment"),
    ("ladder", "*build_model"),
    ("ladder", "forward_eigenfunction"),
    ("ladder", "adjoint_eigenfunction"),
    ("ladder", "apply_forward"),
    ("ladder", "apply_adjoint"),
    ("ladder", "raise_forward"),
    ("ladder", "raise_adjoint"),
    ("ladder", "lower_forward"),
    ("ladder", "lower_adjoint"),
    ("linalg", "*biorthogonal_eig"),
    ("linalg", "*solve_lyapunov"),
    ("hermite_form", "*forward_hermite"),
    ("hermite_form", "*adjoint_hermite"),
    ("verify", "*biorthogonality_suite"),
    ("verify", "*eigen_residual_suite"),
    ("verify", "*ladder_suite"),
    ("verify", "*commutator_suite"),
    ("verify", "*hermite_suite"),
    ("verify", "*reconstruction_suite"),
    ("spectral", "*expand_gaussian"),
    ("spectral", "*evaluate_grid_complex"),
    ("spectral", "*solve_inhomogeneous"),
    ("spectral", "*reconstruct_operators_check"),
    ("kernels", "*em_paths"),
    ("kernels", "*eval_poly_grid"),
    ("sde_oracle", "*simulate"),
    ("cli", "*main"),
    ("cli", "*load_config"),
)

COUNTERS = (
    "mpoly.terms_out",
    "gaussian.wick_moment.repeat_ratio",
    "ladder.eigenfunction.repeat_ratio",
    "ladder.eigenfunction.cross_task_repeat_ratio",
    "kernels.em_paths.path_steps",
    "kernels.em_paths.bytes_computed",
    "kernels.eval_poly_grid.term_points",
    "kernels.eval_poly_grid.bytes_computed",
)


def _names():
    for module, func in FUNCTIONS:
        entry = func.startswith("*")
        yield module, func.lstrip("*"), entry


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, func, entry in _names():
        base = f"{module}.{func}"
        units[base + ".calls"] = "count/task"
        units[base + ".self_s"] = "s/task"
        if entry:
            units[base + ".total_s"] = "s/task"
    for name in COUNTERS:
        units[name] = "frac" if name.endswith("ratio") else "count/task"
    units["setup.import_s"] = "s"
    return units


class Layers:
    """Installs the wrappers on a tracer and reads the metrics back."""

    def __init__(self, tracer, package):
        self.tracer = tracer
        self.wick = RepeatCounter(tracer)
        self.eig = RepeatCounter(tracer)
        modules = [package] + [
            getattr(package, name)
            for name in ("mpoly", "gaussian", "ladder", "linalg", "hermite_form",
                         "verify", "spectral", "kernels", "sde_oracle", "cli")
        ]
        observers = {
            "mpoly.MPoly.__init__": self._terms_out,
            "gaussian.wick_moment": self._wick,
            "ladder.forward_eigenfunction": self._eigen,
            "ladder.adjoint_eigenfunction": self._eigen,
            "kernels.em_paths": self._em_paths,
            "kernels.eval_poly_grid": self._eval_grid,
        }
        targets = []
        for module, func, entry in _names():
            owner = getattr(package, module)
            parts = func.split(".")
            fn = getattr(owner, parts[0])
            if len(parts) == 2:
                fn = vars(fn)[parts[1]]
            name = f"{module}.{func}"
            options = {"span": entry, "total": entry, "observe": observers.get(name)}
            targets.append((name, fn, options))
        tracer.install(modules, targets)

    # ---- observers: (args, result) at the call boundary ----

    def _terms_out(self, args, result):
        self.tracer.count("mpoly.terms_out", len(args[0].terms))

    def _wick(self, args, result):
        exps, Sigma = args[0], args[1]
        self.wick.see(None, (np.asarray(Sigma).tobytes(), tuple(int(k) for k in exps)))

    def _eigen(self, args, result):
        model, K = args[0], args[1]
        self.eig.see(model, tuple(int(k) for k in K))

    def _em_paths(self, args, result):
        n = np.asarray(args[0]).shape[0]
        path_steps = int(args[4]) * int(args[5])
        self.tracer.count("kernels.em_paths.path_steps", path_steps)
        # State read and written, and one normal draw read, per path step.
        self.tracer.count("kernels.em_paths.bytes_computed", path_steps * n * 8 * 3)

    def _eval_grid(self, args, result):
        terms = np.asarray(args[0]).shape[0]
        points = np.asarray(args[2])
        n_pts, n = points.shape
        self.tracer.count("kernels.eval_poly_grid.term_points", terms * n_pts)
        # Power table (points x terms x dims), points read, values written.
        nbytes = terms * n_pts * n * 8 + n_pts * n * 8 + n_pts * 16
        self.tracer.count("kernels.eval_poly_grid.bytes_computed", nbytes)

    # ---- readout ----

    def metrics(self, import_s, tasks):
        """Per-layer metrics, per attempted task.  A run holds whole cycles
        of a fixed mix, so these barely depend on how many cycles ran."""
        stats = self.tracer.stats
        counters = self.tracer.counters
        out = {}
        for module, func, entry in _names():
            base = f"{module}.{func}"
            calls, self_s, total_s = stats[base]
            out[base + ".calls"] = calls / tasks
            out[base + ".self_s"] = self_s / tasks
            if entry:
                out[base + ".total_s"] = total_s / tasks
        for name in COUNTERS:
            out[name] = counters.get(name, 0) / tasks
        out["gaussian.wick_moment.repeat_ratio"] = self.wick.ratio()
        out["ladder.eigenfunction.repeat_ratio"] = self.eig.ratio()
        out["ladder.eigenfunction.cross_task_repeat_ratio"] = self.eig.cross_task_ratio()
        out["setup.import_s"] = import_s
        return out
