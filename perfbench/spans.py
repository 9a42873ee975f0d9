"""Span tracer for the traced run.

The tracer wraps curve_lab's public functions and ``MetricSpace`` methods
from outside, by rebinding module and class attributes; the program's own
files are untouched.  Every call records a span (name, start, end, parent
span, op id) in memory.  ``self_s`` of a span is its duration minus the
durations of its direct children: the program is single-threaded, so child
spans never overlap.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("metric", "curves", "lipschitz", "witnesses", "verify", "cli")

# MetricSpace methods worth a span.  check_id, n and __len__ run once per
# point id and would swamp the trace with bookkeeping.
SPACE_METHODS = ("from_json", "from_matrix", "from_points", "from_graph",
                 "dist", "dist_row", "pair_distances", "submatrix")


def _entries(out) -> int:
    return int(getattr(out, "size", 0))


class Tracer:
    """Records spans while installed; ``install`` patches, ``uninstall``
    restores every patched attribute."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, entries]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1
        self.on = True  # spans are recorded only while on

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[5] = _entries(out)
            return out

        return traced

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        namespaces = [package] + modules
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        # Rebind every name that refers to a wrapped function, including the
        # copies that `from .x import y` leaves in other modules.
        for ns in namespaces:
            for attr, fn in list(vars(ns).items()):
                if id(fn) in wrapped:
                    self._patches.append((ns, attr, fn))
                    setattr(ns, attr, wrapped[id(fn)])
        space_cls = package.metric.MetricSpace
        for attr in SPACE_METHODS:
            raw = space_cls.__dict__[attr]
            name = f"metric.MetricSpace.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._patches.append((space_cls, attr, raw))
            setattr(space_cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        """One JSON array per span, after a header line naming the fields;
        a span's id is its line number after the header, counting from 0."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "entries"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def layer_totals(self) -> dict:
        """Per span name: calls, entries and self time, summed over the run,
        plus lip_constant calls made under a sawtooth_witness span."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _op, _entries in spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(lambda: {"calls": 0, "entries": 0, "self_s": 0.0})
        lip_under_sawtooth = 0
        for i, (name, start, end, parent, _op, entries) in enumerate(spans):
            agg = totals[name]
            agg["calls"] += 1
            agg["entries"] += entries
            agg["self_s"] += (end - start) - child[i]
            if name == "lipschitz.lip_constant":
                p = parent
                while p >= 0 and spans[p][0] != "witnesses.sawtooth_witness":
                    p = spans[p][3]
                lip_under_sawtooth += p >= 0
        totals["witnesses.sawtooth_witness"]["lip_calls"] = lip_under_sawtooth
        return dict(totals)
