"""In-memory spans around calls into zigzag's public functions.

The benchmark does not edit the program.  ``instrument`` rebinds each
listed function, wherever a zigzag module imported it, to a wrapper
that records a span: name, parent span, start, end, a work count and,
for a few calls, a small dict of attributes.  Spans stay in memory and
are written out once, when the traced pass ends.

Self time is a span's duration minus the durations of its children;
calls are single-threaded and nest, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# span record fields
NAME, PARENT, START, END, COUNT, ATTRS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.enabled = True

    def _open(self, name: str, attrs: dict | None = None) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0, 0, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        rec = self._open(name, attrs or None)
        try:
            yield rec
        finally:
            self._close(rec)

    @contextmanager
    def paused(self):
        """Calls made inside record no spans (work the pipeline does not do)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap(self, fn, name, after=None):
        """fn with a span around every call.

        name is a span name or a function of the call's arguments;
        after(args, kwargs, result) returns (count, attrs) and runs once
        the span is closed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = self._open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(rec)
                rec[ATTRS] = {"error": type(exc).__name__}
                raise
            self._close(rec)
            if after is not None:
                rec[COUNT], rec[ATTRS] = after(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, count, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name, "start": start,
                                     "end": end, "count": count, "attrs": attrs}) + "\n")


def instrument(tracer: Tracer, functions, methods) -> list[str]:
    """Wrap every listed public function and method; return what is missing.

    functions: (defining module, name, span name, after) - the wrapper
    replaces the function in every loaded zigzag module that bound it.
    methods: (module, class, method, span name, after).
    """
    missing = []
    modules = [m for n, m in list(sys.modules.items()) if n == "zigzag" or n.startswith("zigzag.")]
    for module_name, attr, span_name, after in functions:
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = tracer.wrap(original, span_name, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    for module_name, cls_name, attr, span_name, after in methods:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        original = getattr(cls, attr, None)
        if original is None:
            missing.append(f"{module_name}.{cls_name}.{attr}")
            continue
        setattr(cls, attr, tracer.wrap(original, span_name, after))
    return missing


class SpanTable:
    """Per-span self time, duration and root, and sums over them."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.duration = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        self.root = list(range(len(spans)))
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += self.duration[i]
                self.root[i] = self.root[s[PARENT]]
        self.self_time = [d - c for d, c in zip(self.duration, child)]

    def select(self, names, roots=None) -> list[int]:
        """Indices of spans named `names` (one name or several), under one
        of the `roots` span ids when given."""
        names = {names} if isinstance(names, str) else set(names)
        return [i for i, s in enumerate(self.spans)
                if s[NAME] in names and (roots is None or self.root[i] in roots)]

    def self_s(self, idx) -> float:
        return sum(self.self_time[i] for i in idx)

    def total_s(self, idx) -> float:
        return sum(self.duration[i] for i in idx)

    def count(self, idx) -> float:
        return sum(self.spans[i][COUNT] for i in idx)

    def roots(self, name: str, **attrs) -> set[int]:
        return {
            i for i, s in enumerate(self.spans)
            if s[PARENT] < 0 and s[NAME] == name
            and all((s[ATTRS] or {}).get(k) == v for k, v in attrs.items())
        }

