"""Span recorder for the traced run.

Wraps the public functions of every ``pils`` module by rebinding names from
outside the package: each module attribute that holds a wrapped function,
under any alias (``engine.reduce_square``, ``lift.core_reduce``,
``cli.reduce_square`` ...), and the package-level re-exports, is replaced by
the same recording wrapper.  Lazy ``from .x import y`` inside functions read
the patched module attribute at call time, so they are covered too.

Spans stay in memory as ``(name, parent, start, end)`` tuples and are
summarised or written out after the timed region.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("core", "lift", "circulant", "compose", "base", "engine", "oracle",
           "cli")

# Arithmetic helpers called once per cell inside other layers' loops; a
# span around each would cost more than the work and adds nothing to the
# layer tables, so their time stays with their callers.
UNWRAPPED = {
    "circulant.mod_rep", "circulant.mod_add", "circulant.mod_sub",
    "circulant.mod_mul", "circulant.back_circulant_cell",
    "core.multiset", "core.multiset_counts",
}

ROOT = "request"


class SpanRecorder:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self) -> int:
        """Reserve a span slot; its parent is the innermost open span."""
        index = len(self.spans)
        self.spans.append(None)  # filled by end()
        self._stack.append(index)
        return index

    def end(self, index: int, name: str, start: float, stop: float) -> None:
        self._stack.pop()
        self.spans[index] = (name, self._stack[-1], start, stop)

    def wrap(self, name: str, func, on_result=None):
        recorder = self

        def wrapper(*args, **kwargs):
            recorder.calls[name] += 1
            index = recorder.begin()
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                recorder.failed[name] += 1
                recorder.end(index, name, start, perf_counter())
                raise
            recorder.end(index, name, start, perf_counter())
            if on_result is not None:
                on_result(recorder.counts, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, on_result: dict | None = None) -> list[str]:
        """Wrap every public function defined in a ``pils`` module and
        rebind each name that refers to it.  Returns the wrapped names."""
        on_result = on_result or {}
        package = importlib.import_module("pils")
        modules = [importlib.import_module(f"pils.{m}") for m in MODULES]
        # id(original) -> (original, wrapper)
        wrapped: dict[int, tuple[object, object]] = {}
        names = []
        for module in modules:
            short = module.__name__.split(".")[-1]
            for attr, value in vars(module).items():
                name = f"{short}.{attr}"
                # plain functions and lru_cache'd ones defined right here
                callable_here = (inspect.isfunction(value)
                                 or hasattr(value, "cache_info"))
                if (attr.startswith("_") or name in UNWRAPPED
                        or not callable_here
                        or getattr(value, "__module__", None)
                        != module.__name__):
                    continue
                wrapped[id(value)] = (value, self.wrap(name, value,
                                                       on_result.get(name)))
                names.append(name)
        for target in [package] + modules:
            for attr, value in list(vars(target).items()):
                original, wrapper = wrapped.get(id(value), (None, None))
                if original is value:
                    self._restore.append((target, attr, value))
                    setattr(target, attr, wrapper)
        return names

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._restore):
            setattr(target, attr, value)
        self._restore.clear()

    # -- reading -----------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the time
    its direct children cover.  Children of one span never overlap (the
    program is single-threaded), so their durations add."""
    child_time = [0.0] * len(spans)
    for name, parent, start, stop in spans:
        if parent >= 0:
            child_time[parent] += stop - start
    totals: dict[str, float] = defaultdict(float)
    for (name, parent, start, stop), covered in zip(spans, child_time):
        totals[name] += (stop - start) - covered
    return dict(totals)


def total_times(spans) -> dict[str, float]:
    """Inclusive time per span name, counting only outermost spans of a
    name so that recursion is not counted twice."""
    totals: dict[str, float] = defaultdict(float)
    for name, parent, start, stop in spans:
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            totals[name] += stop - start
    return dict(totals)
