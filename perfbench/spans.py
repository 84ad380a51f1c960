"""Span tracer that instruments stardefect from outside the package.

Every public module-level function of each layer module is replaced by a
wrapper that records a span (id, parent id, name, start, end, self time).
The replacement covers every binding of the function in every loaded
``stardefect`` module, because the modules import each other's functions by
name (``from .linalg import rref, rank``); patching only the defining module
would miss those calls. A few methods that carry the heavy work are patched
on their classes.

Spans stay in memory until the pass ends; ``Tracer.summary`` aggregates them
and ``Tracer.dump`` writes them out. Nothing in ``src/`` is modified.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("linalg", "poly", "monomial", "gradedideal", "points", "stargeneral", "cli")

# Monomial arithmetic called once per monomial in the inner loops of the
# combinatorial layer (hundreds of thousands of calls per pass): a span each
# would cost more than the work and would move monomial time into `poly`.
EXCLUDED = {
    ("poly", "mono_mul"),
    ("poly", "mono_divides"),
    ("poly", "mono_lcm"),
    ("poly", "mono_index"),
    ("poly", "mono_degree"),
    ("poly", "mono_support"),
}

# Methods that do a layer's work; spans are named `<layer>.<method>`.
METHODS = {
    "linalg": {"Subspace": ("from_rows", "intersect", "residual_rows", "conditions")},
    "monomial": {"MonomialIdeal": ("power", "product", "intersect")},
    "gradedideal": {"GradedIdeal": ("graded_piece", "min_gens")},
    "stargeneral": {"StarConfig": ("certify",)},
}

ELIMINATIONS = ("linalg.echelon", "linalg.rank")  # every elimination runs through one of these
BIG_SIDE = 1024


class Tracer:
    """Spans and elimination counters of one pass, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, float, float, float]] = []
        self._stack: list[list] = []  # [span id, time covered by child spans]
        self._next_id = 0
        self.elim = {"calls": 0, "rows": 0, "cells": 0, "rank": 0, "big_calls": 0}
        self.piece_calls = 0
        self.piece_elim_free = 0

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap the layer functions of the already imported package."""
        pkg = [m for n, m in sys.modules.items() if n == "stardefect" or n.startswith("stardefect.")]
        for layer in LAYERS:
            mod = sys.modules[f"stardefect.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or (layer, name) in EXCLUDED:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapper = self._wrap(f"{layer}.{name}", obj)
                    for m in pkg:
                        for bound_name, bound in list(vars(m).items()):
                            if bound is obj:
                                setattr(m, bound_name, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = inspect.getattr_static(cls, meth)
                    if isinstance(raw, staticmethod):
                        setattr(cls, meth, staticmethod(self._wrap(f"{layer}.{meth}", raw.__func__)))
                    else:
                        setattr(cls, meth, self._wrap(f"{layer}.{meth}", raw))

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        elim = name in ELIMINATIONS
        piece = name == "gradedideal.graded_piece"
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            elims_before = self.elim["calls"]
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                spans.append((frame[0], -1 if parent is None else parent[0], name_id, t0, t1, dur - frame[1]))
            if elim:
                self._count_elimination(args[0], out)
            elif piece:
                self.piece_calls += 1
                self.piece_elim_free += self.elim["calls"] == elims_before
            return out

        return span

    def _count_elimination(self, M, out):
        if M.size == 0:
            return
        rows, cols = M.shape
        e = self.elim
        e["calls"] += 1
        e["rows"] += rows
        e["cells"] += rows * cols
        e["rank"] += out[0] if isinstance(out, tuple) else int(out)
        e["big_calls"] += max(rows, cols) >= BIG_SIDE

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the elimination counters."""
        by_name: dict[str, dict] = {}
        for _, _, name_id, _, _, self_s in self.spans:
            entry = by_name.setdefault(self.names[name_id], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
        return {
            "spans": by_name,
            "elim": dict(self.elim),
            "graded_piece": {"calls": self.piece_calls, "elim_free": self.piece_elim_free},
        }

    def dump(self, path: str):
        """Write every recorded span as [id, parent, name, start, end, self]."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
