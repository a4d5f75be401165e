"""Outside-in layer trace: wrappers around robustkkt's public functions.

The tracer replaces every public function of the traced modules with a
wrapper that records a span (name, parent span, command id, start, end).
A function imported by name into another module (``from .setcalc import
minkowski_sum``) is patched there too, so every call site is seen.
``uninstall`` puts every original object back.

Spans are kept in flat typed arrays while the run lasts and are written out
once at the end.  A span's self time is its duration minus that of its
child spans; calls are nested on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("funcdsl", "robustfeas", "subdiff", "setcalc", "lp", "certify",
          "verify", "cli")
# Public methods traced as layer boundaries, by (module, class, method).
METHODS = (("setcalc", "Polytope", "contains"),
           ("robustfeas", "Raster", "to_csv"),
           ("lp", "LPBuilder", "solve"))
# The exact simplex is the body of an exact LPBuilder.solve; its time is
# that span's self time rather than a layer of its own.
SKIP = {("lp", "simplex_standard")}
# Spans whose LP solves are counted per caller.
LP_CALLERS = ("setcalc.minkowski_sum", "setcalc.hull", "setcalc.zero_in_sum")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "robustkkt" or n.startswith("robustkkt.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"robustkkt.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or (layer, attr) in SKIP):
                    continue
                wrapper = self._wrap(obj, f"{layer}.{attr}")
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, name, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"robustkkt.{layer}"),
                          cls_name)
            orig = vars(cls)[meth]
            if (layer, cls_name, meth) == ("lp", "LPBuilder", "solve"):
                wrapper = self._wrap_lp_solve(orig)
            else:
                wrapper = self._wrap(orig, f"{layer}.{cls_name}.{meth}")
            self._patch(cls, meth, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._id(name)
        names, parents, ops, starts, ends = (self.name, self.parent, self.op,
                                             self.start, self.end)
        stack = self.stack
        clock = time.perf_counter
        counters = self.counters
        points_key = name + ".points"
        count_points = name == "funcdsl.eval_on_grid"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A function that recurses through its module-level name stays
            # inside its outermost span.
            if stack[-1] >= 0 and names[stack[-1]] == name_id:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            if count_points:
                X = args[1] if len(args) > 1 else kwargs["X"]
                counters[points_key] += X.shape[1]
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _wrap_lp_solve(self, fn):
        """LPBuilder.solve, named by the engine that actually ran."""
        ids = {"exact": self._id("lp.solve.exact"),
               "float": self._id("lp.solve.float")}
        failed_id = self._id("lp.solve.failed")
        names, parents, ops, starts, ends = (self.name, self.parent, self.op,
                                             self.start, self.end)
        stack = self.stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def solve(builder, *args, **kwargs):
            idx = len(starts)
            names.append(failed_id)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            # Standard-form columns: variables, free-variable splits, slacks.
            cols = builder.n + sum(builder.free) + len(builder.ubs)
            starts.append(clock())
            try:
                res = fn(builder, *args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            names[idx] = ids[res.engine]
            counters[f"lp.solve.{res.engine}.cols"] += cols
            if res.status == "infeasible":
                counters["lp.solve.infeasible"] += 1
            return res

        return solve

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Views of the span arrays; only valid once tracing has ended."""
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path) -> None:
        np.savez(path, **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls and self time; plus LP attribution."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        kids = parent >= 0
        child = np.bincount(parent[kids], weights=dur[kids],
                            minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_time, minlength=n_names)
        out = {"calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
               "self_s": {n: float(self_s[i])
                          for i, n in enumerate(self.names)},
               "counters": dict(self.counters)}
        # LP solves per caller: the nearest set-calculus span above each
        # solve, and separately whether zero_in_sum is among its ancestors.
        ids = {n: self._ids.get(n, -2) for n in LP_CALLERS}
        nearest_of = {ids["setcalc.minkowski_sum"]: "setcalc.minkowski_sum",
                      ids["setcalc.hull"]: "setcalc.hull"}
        zis = ids["setcalc.zero_in_sum"]
        lp_ids = [self._ids[n] for n in self.names
                  if n.startswith("lp.solve")]
        lp_by_caller = Counter()
        for idx in np.flatnonzero(np.isin(name, lp_ids)):
            p, nearest = int(parent[idx]), None
            while p >= 0:
                here = int(name[p])
                if nearest is None and here in nearest_of:
                    nearest = nearest_of[here]
                    lp_by_caller[nearest] += 1
                if here == zis:
                    lp_by_caller["setcalc.zero_in_sum"] += 1
                    break
                p = int(parent[p])
        out["lp_by_caller"] = dict(lp_by_caller)
        return out
