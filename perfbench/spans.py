"""Per-layer tracing from outside the program.

Public names are wrapped at the module attribute their caller looks up (for
example ``diffnet.simulate.diffusion_step``, which the Monte-Carlo driver
resolves through its module globals). Nothing inside ``src/`` is edited. A
name that has been removed or moved is recorded as missing instead of
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import tracemalloc
from contextlib import contextmanager


@contextmanager
def installed(targets, make_wrapper, missing: list):
    """Replace ``module.attr`` by ``make_wrapper(key, original)`` while active.

    ``targets`` holds (module name, attribute, key) triples. Absent modules or
    attributes are appended to ``missing`` as dotted names. Originals are put
    back on exit, in reverse order, so stacked installs unwind cleanly.
    """
    saved = []
    try:
        for module_name, attr, key in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, make_wrapper(key, original))
            saved.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Spans:
    """Calls, busy time and self time per key.

    Self time is a span's duration minus the time covered by traced spans it
    caused. Spans nest per thread.
    """

    def __init__(self):
        self.totals: dict[str, list] = {}
        self._local = threading.local()

    def reset(self) -> None:
        for entry in self.totals.values():
            entry[:] = [0, 0.0, 0.0]

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        return {key: tuple(entry) for key, entry in self.totals.items()}

    def wrap(self, key: str, fn):
        entry = self.totals.setdefault(key, [0, 0.0, 0.0])
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += busy
                entry[0] += 1
                entry[1] += busy
                entry[2] += busy - children

        return traced


class AllocPeaks:
    """Largest tracemalloc peak, in MiB above the level at entry, per key.

    Only meaningful while ``tracemalloc`` is tracing; numpy reports its array
    buffers to it, so array temporaries are included.
    """

    def __init__(self):
        self.peak_mb: dict[str, float] = {}

    def wrap(self, key: str, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
                self.peak_mb[key] = max(self.peak_mb.get(key, 0.0), peak)

        return probed
