"""Spans around the public functions of zerorate's layers.

The wrappers live here, in the benchmark, and are installed by rebinding
every name under which a target function can be looked up: module
globals (`zerorate.cli` imports `simulate`, `round_type` and others by
name, `exponent` imports `maximize_quadratic` from `polytope`), the
package namespace, and the methods of `polytope.Polytope`. Wrappers
return results unchanged.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "fsm", "bhatt", "exponent", "polytope", "codebook", "montecarlo", "isi")
# cli's command functions are reached through its COMMANDS table, so its
# own layer is traced at its two public entry points.
CLI_ENTRY_POINTS = ("run", "load_channel")
POLYTOPE_METHODS = ("project", "feasible_point", "linear_range")


def layer_functions() -> dict[int, tuple[object, str]]:
    """id(function) -> (function, '<module>.<function>') for every traced
    function; Polytope methods are named after the polytope module."""
    targets = {}
    for layer in LAYERS:
        mod = sys.modules[f"zerorate.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != mod.__name__:
                continue
            if layer == "cli" and attr not in CLI_ENTRY_POINTS:
                continue
            targets[id(obj)] = (obj, f"{layer}.{attr}")
    poly = sys.modules["zerorate.polytope"].Polytope
    for attr in POLYTOPE_METHODS:
        fn = vars(poly)[attr]
        targets[id(fn)] = (fn, f"polytope.{attr}")
    return targets


@contextmanager
def installed(make_wrapper, names=None):
    """Rebind every lookup of the traced functions (restricted to `names`
    when given) to make_wrapper(fn, name) while the block runs."""
    targets = {k: v for k, v in layer_functions().items() if names is None or v[1] in names}
    wrappers = {k: make_wrapper(fn, name) for k, (fn, name) in targets.items()}
    namespaces = [m for key, m in list(sys.modules.items())
                  if key == "zerorate" or key.startswith("zerorate.")]
    namespaces.append(sys.modules["zerorate.polytope"].Polytope)
    undo = []
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            # targets holds every traced function alive, so ids are unambiguous
            if id(obj) in wrappers:
                setattr(ns, attr, wrappers[id(obj)])
                undo.append((ns, attr, obj))
    try:
        yield
    finally:
        for ns, attr, obj in undo:
            setattr(ns, attr, obj)


class Tracer:
    """Keeps spans in memory: [name, op, parent span, start, end]. `op`
    identifies the CLI command ('<pass>.<step>.<command>') that caused it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = ""

    def wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(sid)
            span[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
        return traced

    def totals(self, first: int = 0) -> dict[str, list[float]]:
        """name -> [self seconds, calls, seconds] over spans[first:]. Self
        time is a span's duration minus the time of its child spans."""
        spans = self.spans[first:]
        child = defaultdict(float)
        for name, _, parent, t0, t1 in spans:
            if parent >= first:
                child[parent] += t1 - t0
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0, 0.0])
        for i, (name, _, _, t0, t1) in enumerate(spans, start=first):
            row = out[name]
            row[0] += (t1 - t0) - child[i]
            row[1] += 1
            row[2] += t1 - t0
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, op, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "op": op, "parent": parent,
                                     "start": t0, "end": t1}) + "\n")


class Probe:
    """Untimed pass: the tracemalloc peak of each montecarlo.simulate call
    and the distinct-candidate share of each codebook.build_ensemble."""

    NAMES = ("montecarlo.simulate", "codebook.build_ensemble")

    def __init__(self):
        self.peak_bytes = 0
        self.distinct = []

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if name == "montecarlo.simulate":
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            result = fn(*args, **kwargs)
            rows = {tuple(r) for r in result.arc_paths.tolist()}
            self.distinct.append(len(rows) / result.arc_paths.shape[0])
            return result
        return probed
