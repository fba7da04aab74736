"""Span recording around the public functions of the gridse layers.

The wrappers live here, in the benchmark, not in the program: ``Tracer``
replaces each public function of the six layer modules with a timing
wrapper in every ``gridse`` namespace that binds it (the package itself,
the layer modules and ``cli``), and puts the originals back on ``remove``.
Because gridse modules call each other through module globals, calls made
inside the program are seen too.

A span is (name, start, end, parent, op): ``name`` is ``layer.function``,
times are ``time.perf_counter`` seconds, ``parent`` is the index of the
enclosing span (None for an op's root) and ``op`` the op id. Spans stay in
memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("network", "measurement", "estimation", "baddata", "attack", "scenarios")
OP = "op"


class Tracer:
    """Holds spans for one traced run.

    ``observers`` maps a span name to a callable (args, kwargs, result) ->
    value; the values are kept per op in ``observed[name]`` so counts are
    taken at the same boundary as the time.
    """

    def __init__(self, observers: dict):
        self.spans: list = []
        self.observed: dict[str, list] = defaultdict(list)
        self._observers = observers
        self._stack: list[int] = []
        self._op = None
        self._saved: list = []

    def install(self):
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "gridse" or name.startswith("gridse.")]
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"gridse.{layer}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    originals[fn] = self._wrap(fn, f"{layer}.{name}")
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    self._saved.append((module, name, value))
                    setattr(module, name, originals[value])

    def remove(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, fn, span_name):
        observe = self._observers.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (span_name, start, end, parent, self._op)
            if observe is not None:
                self.observed[span_name].append((self._op, observe(args, kwargs, result)))
            return result

        return wrapper

    @contextmanager
    def op(self, op_id):
        """Root span of one op; every layer span inside it carries op_id."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (OP, start, end, None, op_id)
            self._op = None

    def summary(self):
        """Per-name inclusive seconds and call counts (ops under the name
        OP), plus self seconds per layer, summed over all ops. Self time is a
        span's duration minus the durations of its direct children (spans
        nest, one thread)."""
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            inclusive[name] += end - start
            calls[name] += 1
            if name != OP:
                self_time[name.split(".", 1)[0]] += end - start - child_time[i]
        return inclusive, calls, self_time

    def write(self, path: Path):
        with path.open("w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")
