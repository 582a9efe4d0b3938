"""Spans around calls into each degmatch module, recorded from outside it.

Each traced public function is replaced, in every degmatch module namespace
that binds it, by a wrapper recording one span: function, parent span,
operation index, input size n, start and end, on the process CPU clock, as
the end-to-end latencies are.  The `core` constructors are
traced by wrapping the class's __init__, so isinstance checks still work.
Spans stay in flat arrays in memory and are written out once, at the end.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = {
    "core": ("Matching", "LabeledGraph"),
    "graphic": ("eg_check", "lovasz_pm_check", "hh_realize", "f_factor"),
    "mplus": ("star_check", "realize_mplus_trace"),
    "switches": (
        "switch_step",
        "switch_path",
        "all_switches",
        "lift_switch",
        "realize_matching_switchwise",
        "realize_matching_oracle",
    ),
    "hfactor": ("doublestar_check", "hfactor_oracle"),
    "preorder": ("build_preorder", "check_conjectures"),
    "packing": ("pack", "binding_number"),
}
TARGETS = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]

# name -> unit of the work counters some functions get besides calls and times
EXTRA = {
    "graphic.f_factor.gadget_nodes": "count",
    "graphic.f_factor.gadget_edges": "count",
    "graphic.f_factor.found_frac": "ratio",
    "mplus.realize_mplus_trace.steps": "count",
    "switches.switch_path.moves": "count",
    "switches.realize_matching_oracle.found_frac": "ratio",
}
OVERHEAD = "trace.ops_per_s_ratio"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for target in TARGETS:
        units[f"{target}.calls"] = "count"
        units[f"{target}.busy_s"] = "s"
        units[f"{target}.self_s"] = "s"
    units.update(EXTRA)
    units[OVERHEAD] = "ratio"
    return units


def _size(x) -> int:
    return x if isinstance(x, int) else getattr(x, "n", -1)


def _f_factor_counts(args, result, add) -> None:
    host, f = args[0], args[1]
    degs = host.degree_vector()
    # per vertex: deg edge-ports, deg - f core-ports, and a complete
    # bipartite gadget between them; one gadget edge per host edge
    add("graphic.f_factor.gadget_nodes", sum(2 * d - fv for d, fv in zip(degs, f)))
    add("graphic.f_factor.gadget_edges", sum(d * (d - fv) for d, fv in zip(degs, f)) + len(host.edges))
    add("graphic.f_factor.found", result is not None)


_HOOKS = {
    "graphic.f_factor": _f_factor_counts,
    "mplus.realize_mplus_trace": lambda a, r, add: add("mplus.realize_mplus_trace.steps", r.steps),
    "switches.switch_path": lambda a, r, add: add("switches.switch_path.moves", len(r)),
    "switches.realize_matching_oracle": (
        lambda a, r, add: add("switches.realize_matching_oracle.found", r is not None)
    ),
}


class Tracer:
    """Install with `with Tracer():`; only calls made inside `call` are recorded."""

    def __init__(self) -> None:
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("i")
        self.outer = array("b")  # 1 unless the same function is already running
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._depth = [0] * len(TARGETS)
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    def call(self, op_index: int, fn):
        """Run fn() as operation op_index with recording on."""
        self._op = op_index
        try:
            return fn()
        finally:
            self._op = -1

    def _wrap(self, idx: int, fn, hook):
        fns, parents, ops, sizes = self.fn, self.parent, self.op, self.size
        outer, starts, ends = self.outer, self.start, self.end
        stack, depth, clock = self._stack, self._depth, time.process_time
        add = self._add

        def wrapper(*args, **kwargs):
            op = self._op
            if op < 0:
                return fn(*args, **kwargs)
            sid = len(fns)
            fns.append(idx)
            parents.append(stack[-1])
            ops.append(op)
            outer.append(depth[idx] == 0)
            sizes.append(-1)
            starts.append(0.0)
            ends.append(0.0)
            depth[idx] += 1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[idx] -= 1
                starts[sid] = t0
                ends[sid] = t1
            sizes[sid] = _size(args[0]) if args else -1
            if hook is not None:
                hook(args, result, add)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _add(self, name: str, value) -> None:
        self.counts[name] += value

    def __enter__(self) -> "Tracer":
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "degmatch" or name.startswith("degmatch."))
        ]
        for idx, target in enumerate(TARGETS):
            layer, name = target.split(".")
            obj = getattr(importlib.import_module(f"degmatch.{layer}"), name)
            hook = _HOOKS.get(target)
            if isinstance(obj, type):
                self._restore.append((obj, "__init__", obj.__init__))
                obj.__init__ = self._wrap(idx, obj.__init__, hook)
                continue
            wrapper = self._wrap(idx, obj, hook)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is obj]:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _arrays(self):
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(fn))
        return fn, dur, dur - child

    def metrics(self) -> dict[str, float]:
        """calls, busy_s and self_s per traced function, plus the work counters.

        busy_s sums only outermost spans, so recursion is not counted twice;
        self_s is a span's duration minus the durations of its child spans.
        """
        fn, dur, self_time = self._arrays()
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        k = len(TARGETS)
        calls = np.bincount(fn, minlength=k)
        busy = np.bincount(fn[outer], weights=dur[outer], minlength=k)
        own = np.bincount(fn, weights=self_time, minlength=k)
        out = {}
        for i, target in enumerate(TARGETS):
            out[f"{target}.calls"] = int(calls[i])
            out[f"{target}.busy_s"] = float(busy[i])
            out[f"{target}.self_s"] = float(own[i])
        for name in EXTRA:
            if name.endswith(".found_frac"):
                base = name[: -len(".found_frac")]
                found = self.counts.get(f"{base}.found", 0)
                out[name] = found / out[f"{base}.calls"] if out[f"{base}.calls"] else 0.0
            else:
                out[name] = int(self.counts.get(name, 0))
        return out

    def write(self, stem: Path, meta: dict) -> None:
        """Write the spans (.npz) and the per-(function, n) scaling table (.json)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        fn, dur, self_time = self._arrays()
        size = np.frombuffer(self.size, dtype=np.int32)
        np.savez(
            stem.with_suffix(".npz"),
            names=np.array(TARGETS),
            fn=fn,
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            n=size,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
        # group spans by (function, n) to give each function its n-scaling series
        key = fn.astype(np.int64) * (1 << 32) + (size.astype(np.int64) + 1)
        order = np.lexsort((dur, key))
        groups, first, calls = np.unique(key[order], return_index=True, return_counts=True)
        ordered = dur[order]
        median = (ordered[first + (calls - 1) // 2] + ordered[first + calls // 2]) / 2
        total = np.add.reduceat(ordered, first) if len(first) else ordered
        own = np.add.reduceat(self_time[order], first) if len(first) else ordered
        scaling = defaultdict(list)
        for g, c, med, tot, sel in zip(groups, calls, median, total, own):
            scaling[TARGETS[g >> 32]].append({
                "n": int(g & 0xFFFFFFFF) - 1,
                "calls": int(c),
                "median_s": float(med),
                "total_s": float(tot),
                "self_s": float(sel),
            })
        with open(stem.with_suffix(".json"), "w") as fh:
            json.dump({**meta, "spans": len(fn), "scaling": scaling}, fh, indent=1)
