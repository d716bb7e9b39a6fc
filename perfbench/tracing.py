"""Outside-in layer tracing for the benchmark's traced pass.

A :class:`Tracer` replaces each traced library function with a wrapper that
records a span (name, start, end, parent span) and, for some functions, a
count computed from the arguments or the result. The wrapper is put into
every ``shiftgeo`` module namespace that binds the original function object
(``cyclic_mismatch_density`` lives in both ``shiftgeo.metrics`` and
``shiftgeo.automata``, ``periodic_orbits`` in three modules, and so on), and
the originals are restored on exit, also when an operation raises.

Spans are kept in memory in flat arrays and summed when the pass ends.
Self time is a span's duration minus the durations of its direct children.
The library itself is not changed; memory is never traced here
(``tracemalloc`` slows ``distance_to_shift`` by an order of magnitude), so
memory comes from the RSS of the untraced pass.
"""

from __future__ import annotations

import sys
import time
from array import array
from math import gcd


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _cells(args, kwargs, result):
    u, v = args
    return {"metrics.cyclic_mismatch_density.cells": _lcm(len(u), len(v))}


def _arm_cells(args, kwargs, result):
    x, y = args
    return {"metrics.arm_cells":
            _lcm(len(x.left_period), len(y.left_period))
            + _lcm(len(x.right_period), len(y.right_period))}


def _product_nodes(args, kwargs, result):
    x, Y = args
    cells = (len(x.left_period) + len(x.left_finite) + len(x.right_finite)
             + len(x.right_period))
    return {"metrics.product_nodes": len(Y.states) * cells}


def _karp_size(args, kwargs, result):
    nodes, edges = args
    return {"graph.karp_min_mean.nodes": len(nodes),
            "graph.karp_min_mean.edges": sum(len(edges[v]) for v in nodes)}


def _scc_size(args, kwargs, result):
    return {"graph.strongly_connected_components.nodes": args[0]}


def _orbit_count(args, kwargs, result):
    return {"shifts.periodic_orbits.orbits": len(result)}


# (module, function, counter). Metric names drop the leading underscore of
# "_graph", since benchmark metric names must start with a letter.
TARGETS = (
    ("metrics", "cyclic_mismatch_density", _cells),
    ("metrics", "d_besicovitch", _arm_cells),
    ("metrics", "d_weyl", _arm_cells),
    ("metrics", "distance_to_shift_detail", _product_nodes),
    ("_graph", "karp_min_mean", _karp_size),
    ("_graph", "strongly_connected_components", _scc_size),
    ("_graph", "condensation_reach", None),
    ("shifts", "periodic_orbits", _orbit_count),
    ("shifts", "contains_config", None),
    ("configs", "is_primitive", None),
    ("configs", "least_rotation", None),
    ("automata", "check_on_subshift", None),
    ("automata", "preserves_shift", None),
    ("shifts", "shannon_cover", None),
    ("shifts", "language_subset", None),
    ("homotopy", "extract_complex", None),
    ("homotopy", "complex_coordinates", None),
)


def span_name(module: str, function: str) -> str:
    return f"{module.lstrip('_')}.{function}"


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self._patched: list = []

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _wrap(self, name: str, fn, counter):
        nid = self._id(name)
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None:
                for k, v in counter(args, kwargs, result).items():
                    counts[k] = counts.get(k, 0) + v
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn):
        """Run fn() as a root span (one benchmark operation)."""
        return self._wrap(name, fn, None)()

    def __enter__(self):
        import importlib
        modules = [m for n, m in list(sys.modules.items())
                   if n == "shiftgeo" or n.startswith("shiftgeo.")]
        try:
            for mod, fn_name, counter in TARGETS:
                orig = getattr(importlib.import_module(f"shiftgeo.{mod}"),
                               fn_name)
                wrapper = self._wrap(span_name(mod, fn_name), orig, counter)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            m, attr, orig = self._patched.pop()
            setattr(m, attr, orig)

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, plus the counts and
        the ratios that need parent links."""
        n = len(self.start)
        child = [0.0] * n
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        nested: dict[tuple[int, int], int] = {}
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        for i in range(n - 1, -1, -1):   # children come after parents
            dur = end[i] - start[i]
            k = name_of[i]
            calls[k] += 1
            incl[k] += dur
            own[k] += dur - child[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
                key = (name_of[p], k)
                nested[key] = nested.get(key, 0) + 1
        out = {"spans": n, "counts": dict(self.counts), "layers": {}}
        for k, name in enumerate(self.names):
            out["layers"][name] = {"calls": calls[k], "s": incl[k],
                                   "self_s": own[k]}
        ids = self._name_id

        def under(parent_name, child_name):
            if parent_name not in ids or child_name not in ids:
                return 0
            return nested.get((ids[parent_name], ids[child_name]), 0)

        out["counts"]["automata.pairs"] = under(
            "automata.check_on_subshift",
            "metrics.cyclic_mismatch_density") // 2
        out["counts"]["shifts.orbit_contains_calls"] = under(
            "shifts.periodic_orbits", "shifts.contains_config")
        return out


def merge(summaries: list) -> dict:
    """Sum the summaries of several tracers (the CLI children of a pass)."""
    out = {"spans": 0, "counts": {}, "layers": {}}
    for s in summaries:
        out["spans"] += s["spans"]
        for k, v in s["counts"].items():
            out["counts"][k] = out["counts"].get(k, 0) + v
        for name, row in s["layers"].items():
            acc = out["layers"].setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field in acc:
                acc[field] += row[field]
    return out
