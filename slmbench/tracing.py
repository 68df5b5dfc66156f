"""In-memory span recorder for the traced run.

The benchmark wraps public `slm` entry points from outside the package:
every binding of the function in a loaded `slm` module is replaced by a
recording wrapper for the duration of a `Tracer.patch` block, so calls
made through `from .x import y` names are seen too.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: id, parent, name, start, end, attrs
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, fn, name: str, before=None, after=None):
        """Recording wrapper: `before(args, kwargs)` and
        `after(args, kwargs, result)` return extra span attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **(before(args, kwargs) if before else {})) as rec:
                result = fn(*args, **kwargs)
                if after:
                    rec["attrs"].update(after(args, kwargs, result))
                return result

        return wrapper

    @contextlib.contextmanager
    def patch(self, targets):
        """targets: (module, function name, before, after) tuples."""
        saved = []
        try:
            for module, name, before, after in targets:
                original = getattr(importlib.import_module(module), name)
                wrapper = self.wrap(original, name, before, after)
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "")
                    if (mod_name == "slm" or mod_name.startswith("slm.")) and getattr(mod, name, None) is original:
                        saved.append((mod, name, original))
                        setattr(mod, name, wrapper)
            yield self
        finally:
            for mod, name, original in reversed(saved):
                setattr(mod, name, original)

    def named(self, name: str) -> list:
        return [s for s in self.spans if s["name"] == name]

    def children(self, span: dict) -> list:
        return [s for s in self.spans if s["parent"] == span["id"]]


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, children: list) -> float:
    """Span duration minus the part of its interval covered by children
    (overlapping children are counted once; parts outside are ignored)."""
    covered, reach = 0.0, span["start"]
    for lo, hi in sorted((max(c["start"], span["start"]), min(c["end"], span["end"])) for c in children):
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return duration(span) - covered


def wrapper_cost(calls: int = 20000, repeats: int = 7) -> float:
    """Seconds a recording wrapper adds to one call: the median over
    repeats of (calls through a wrapped no-op - direct calls) / calls."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap(noop, "noop")
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(costs)
