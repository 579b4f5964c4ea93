"""Tracing from outside the package: wrap functions, keep spans in memory.

``Tracer.install`` replaces each listed function with a wrapper, on every
module attribute and class attribute of ``ou_spectral`` that binds it, and
``Tracer.uninstall`` puts the originals back.  The package itself is not
edited.

Each call pushes a frame on one stack.  When it returns, its duration is
added to the frame below, so a frame's self time is its duration minus the
time its direct children cover (calls run one at a time, so the children
never overlap).  Every function gets aggregate counters: calls, self
seconds and, for entry points, total seconds of outermost calls.  Entry
points additionally keep one span each (name, start, end, parent span,
task id, self seconds).  Hot primitives, such as the ``MPoly`` methods,
keep only the aggregates, because they run millions of times.

While ``paused`` is set, wrappers call straight through; the benchmark
pauses the tracer around its own correctness checks.
"""

import functools
import time
import weakref


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.paused = False
        self.task = None
        self.stack = []  # frames: [child_seconds, span_index or None]
        self.spans = []  # [name, start, end, parent, task, self_s]
        self.stats = {}  # name -> [calls, self_s, total_s]
        self.counters = {}
        self._depth = {}
        self._patched = []

    # ---- wrapping ----

    def wrap(self, name, fn, span=False, total=False, observe=None):
        """Return a traced stand-in for ``fn``.

        ``span`` keeps one span per call; ``total`` also sums outermost
        durations; ``observe(args, result)`` updates counters after a
        successful call.
        """
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        depth = self._depth
        depth.setdefault(name, 0)
        clock = self.clock
        stack = self.stack
        spans = self.spans

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = None
            if span:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent, self.task, 0.0])
            frame = [0.0, index]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                own = dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                stats[0] += 1
                stats[1] += own
                if total and depth[name] == 0:
                    stats[2] += dur
                if index is not None:
                    spans[index][1:3] = [start, end]
                    spans[index][5] = own
            if observe is not None:
                observe(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, modules, targets):
        """Wrap each target on every attribute of ``modules`` that binds it.

        ``targets`` holds ``(name, fn, options)``; ``options`` are the
        keyword arguments of ``wrap``.  Class attributes are searched on
        the classes the modules define, which covers methods bound under
        two names, like ``MPoly.__add__`` and ``__radd__``.
        """
        for name, fn, options in targets:
            traced = self.wrap(name, fn, **options)
            hits = 0
            for mod in modules:
                for owner in [mod] + [
                    v for v in vars(mod).values()
                    if isinstance(v, type) and v.__module__ == mod.__name__
                ]:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._patched.append((owner, attr, fn))
                            setattr(owner, attr, traced)
                            hits += 1
            if hits == 0:
                raise LookupError(f"no attribute binds {name}")

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # ---- counters ----

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount


class RepeatCounter:
    """Counts calls whose key was seen before, overall and across tasks.

    Keys live in a table per owner object (a model, say); the table is
    dropped when the owner is garbage collected, so an id reused by a
    later object never counts as a repeat.  ``owner=None`` keeps keys for
    the whole run.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.calls = 0
        self.repeats = 0
        self.cross_task = 0
        self._tables = {}

    def see(self, owner, key):
        self.calls += 1
        oid = None if owner is None else id(owner)
        table = self._tables.get(oid)
        if table is None:
            table = self._tables[oid] = {}
            if owner is not None:
                weakref.finalize(owner, self._tables.pop, oid, None)
        if key not in table:
            table[key] = self.tracer.task
            return
        self.repeats += 1
        if table[key] != self.tracer.task:
            self.cross_task += 1

    def ratio(self):
        return self.repeats / self.calls if self.calls else 0.0

    def cross_task_ratio(self):
        return self.cross_task / self.calls if self.calls else 0.0
