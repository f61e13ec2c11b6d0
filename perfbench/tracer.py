"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each listed function by a wrapper in every
``adframe`` module namespace that binds it; functions look their globals
up at call time, so calls between modules are caught as well as calls from
the benchmark.  Each call records a span (name, start, end, parent) in
flat arrays; ``layer_metrics`` derives calls and self time per function,
self time being a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = {
    "finord": ("lattice_from_labels", "lattice_from_leq", "upset_family",
               "lattice_analyze"),
    "frames": ("build_ado", "validate_adframe", "validate_hom",
               "bounded_lattice_homs", "build_ado_hom", "ind_functor"),
    "duality": ("enumerate_points", "adpt_space", "adpt_hom", "eta_map",
                "transpose", "is_ad_sober"),
    "sobrify": ("ads_space", "irreducible_pairs", "standard_sobrification"),
    "theorems": ("run_check", "iso_check"),
    "cli": ("main",),
}
TRACED = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
OP_SPAN = "bench.op"


def _labels_key(args, kwargs):
    labels = args[0] if args else kwargs["labels"]
    return hash(frozenset(labels))


def _lattice_key(args, kwargs):
    return hash((args[0] if args else kwargs["lat"]).key())


def _frame_key(args, kwargs):
    return hash((args[0] if args else kwargs["frame"]).key())


# functions whose distinct inputs are counted, and how an input is keyed
DISTINCT = {
    "finord.lattice_from_labels": _labels_key,
    "finord.lattice_analyze": _lattice_key,
    "frames.validate_adframe": _frame_key,
}
# functions whose results are counted as useful when ``.ok`` holds
OK_RESULT = ("frames.validate_hom",)


class Tracer:
    def __init__(self):
        self.names = [OP_SPAN] + TRACED
        self.name_ix = array("h")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.distinct = {name: set() for name in DISTINCT}
        self.ok = {name: 0 for name in OK_RESULT}
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name):
        nid = self.names.index(name)
        name_ix, parent, start, end = self.name_ix, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        key_fn = DISTINCT.get(name)
        seen = self.distinct.get(name)
        count_ok = name in OK_RESULT
        ok = self.ok

        def traced(*args, **kwargs):
            if key_fn is not None:
                seen.add(key_fn(args, kwargs))
            idx = len(start)
            name_ix.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if count_ok and result.ok:
                ok[name] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def root(self):
        """A wrapper that records one op as the root span of its calls."""
        return self._wrap(lambda run: run(), OP_SPAN)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "adframe" or n.startswith("adframe."))]
        for mod, fns in LAYERS.items():
            home = sys.modules[f"adframe.{mod}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._wrap(original, f"{mod}.{fn_name}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_ix, dtype=np.int16),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def write(self, path: Path) -> None:
        names, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_ix=names,
                 parent=parent, start=start, end=end)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        names, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = np.bincount(names, weights=dur - child,
                                minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        out = {}
        for nid, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = (int(calls[nid]), "count")
            out[f"{name}.self_s"] = (float(self_time[nid]), "s")
        for name, seen in self.distinct.items():
            n = calls[self.names.index(name)]
            out[f"{name}.distinct_ratio"] = (len(seen) / n if n else 0.0, "ratio")
        for name, good in self.ok.items():
            n = calls[self.names.index(name)]
            out[f"{name}.ok_ratio"] = (good / n if n else 0.0, "ratio")
        return out
