"""Spans around the public functions of each pathent layer, kept in memory.

A layer is a module of the package.  ``Tracer.install`` replaces each
function listed in ``LAYER_FUNCTIONS`` by a recording wrapper in every
module that binds the name (``pathent`` itself and the modules that import
it with ``from .fock import ...``), so calls are seen whichever module they
come from.  Spans are recorded only inside ``Tracer.task``; the benchmark's
own checks run untraced.

A span's self time is its duration minus the durations of the wrapped
calls made inside it.  The program is single-threaded and has no queues,
so no waiting time is recorded.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import time
from collections import Counter, defaultdict

import numpy as np

LAYER_FUNCTIONS = {
    "cli": ("main",),
    "factorize": ("factorize_target", "find_factor_angles", "reconstruct"),
    "blocks": ("run_scheme", "run_scheme_double", "run_scheme_unconditional",
               "run_block_single", "run_block_double"),
    "fock": ("beam_splitter_pair_exact", "beam_splitter_pair_oracle",
             "project_outcome_cd", "tensor", "apply_creation",
             "apply_annihilation", "beam_splitter"),
    "litho": ("fringe_sweep", "absorption_rate_pure", "absorption_rate_mixed"),
    "yields": ("yield_table",),
}

# Metric name -> (module, cached function, cache_info fields).
CACHES = {
    "fock.basis4": ("fock", "_basis4", ("misses",)),
    "fock.pair_unitary": ("fock", "_pair_unitary", ("misses", "currsize")),
}

# Input sizes are counted for this function: amps is the summed input
# dimension, nonzero_frac the share of those amplitudes that are nonzero.
_SIZED = "fock.beam_splitter_pair_exact"


def cache_counters(pathent) -> dict[str, int]:
    """Counters read from ``cache_info()``; a removed cache is left out."""
    out = {}
    for name, (module, func, fields) in CACHES.items():
        info = getattr(getattr(getattr(pathent, module), func, None),
                       "cache_info", None)
        if info is not None:
            info = info()
            out.update({f"{name}.{field}": getattr(info, field)
                        for field in fields})
    return out


class Tracer:
    """Records one span per wrapped call made inside a traced task."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.amps = 0
        self.nonzero = 0
        self.tasks = 0
        self.task_s = 0.0
        self._active = False
        self._task_id = -1
        self._stack: list[list] = []  # [span id, time spent in children]
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self, pathent) -> None:
        modules = [pathent] + [getattr(pathent, m) for m in LAYER_FUNCTIONS]
        for layer, names in LAYER_FUNCTIONS.items():
            for fname in names:
                original = getattr(getattr(pathent, layer), fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _wrap(self, name, fn):
        sized = name == _SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            if sized:
                amps = args[0].amps
                self.amps += amps.size
                self.nonzero += int(np.count_nonzero(amps))
            return self._span(name, fn, args, kwargs)

        return wrapper

    # -- spans ------------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([span_id, 0.0])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _, children = self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[span_id] = (span_id, name, start, end, parent,
                                   self._task_id)
            self.calls[name] += 1
            self.self_s[name] += duration - children

    @contextlib.contextmanager
    def task(self, task_id: int, kind: str):
        """Trace one task as a root span named ``task.<kind>``."""
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append([span_id, 0.0])
        self._task_id = task_id
        self._active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._active = False
            self._stack.pop()
            self.spans[span_id] = (span_id, f"task.{kind}", start, end, -1,
                                   task_id)
            self.tasks += 1
            self.task_s += end - start

    # -- results ----------------------------------------------------------

    def per_task(self) -> dict[str, float]:
        """Calls and self time per traced task for every wrapped function."""
        n = max(self.tasks, 1)
        out = {}
        for layer, names in LAYER_FUNCTIONS.items():
            for fname in names:
                name = f"{layer}.{fname}"
                out[f"{name}.calls"] = self.calls[name] / n
                out[f"{name}.self_s"] = self.self_s[name] / n
        out[f"{_SIZED}.amps"] = self.amps / n
        out[f"{_SIZED}.nonzero_frac"] = self.nonzero / max(self.amps, 1)
        out["trace.task_s"] = self.task_s / n
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span_id", "name", "start_s", "end_s",
                             "parent_id", "task_id"])
            writer.writerows(self.spans)
