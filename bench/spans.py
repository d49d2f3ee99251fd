"""Tracing posmap from outside: wrap public functions, record spans, derive
self time.

The wrappers are installed by replacing every public function (and public
method of a public class) of the traced posmap modules in every posmap
namespace that holds it, plus four ``numpy.linalg`` kernels.  Each call
records a span (name, start, end, parent span, op id) in flat arrays kept in
memory; :meth:`Tracer.save` writes them out.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = ("linalg", "choi", "kpositivity", "cones", "modular", "docio", "report", "cli")
NUMPY_KERNELS = ("eigh", "eigvalsh", "svd", "qr")
MATRIX_COUNTED = ("numpy.eigh", "numpy.eigvalsh")
# verdict stats that are exact work counts, keyed by the function returning them
STATS_COUNTED = {
    "choi.block_positivity": "alternations",
    "kpositivity.k_block_min": "alternations",
    "kpositivity.sk_check": "samples",
    "kpositivity.pk_check": "projections",
    "kpositivity.decomposability_witness": "iterations",
}


def _targets():
    """(name, owner, attribute, function) for every function to wrap."""
    out = []
    for short in TRACED_MODULES:
        mod = sys.modules[f"posmap.{short}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((f"{short}.{attr}", mod, attr, obj))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mattr, mobj in vars(obj).items():
                    if mattr.startswith("_"):
                        continue
                    func = mobj.__func__ if isinstance(mobj, (classmethod, staticmethod)) else mobj
                    if inspect.isfunction(func):
                        out.append((f"{short}.{attr}.{mattr}", obj, mattr, mobj))
    linalg = sys.modules["numpy.linalg"]
    for attr in NUMPY_KERNELS:
        out.append((f"numpy.{attr}", linalg, attr, getattr(linalg, attr)))
    return out


class Tracer:
    """Span recorder.  ``install`` wraps the targets, ``uninstall`` restores
    them; between the two every call into a traced function is a span."""

    def __init__(self):
        self.names: list[str] = []
        self._patched: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.sid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, int] = {}

    def _add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(value)

    def _wrap(self, fn, name: str):
        sid = len(self.names)
        self.names.append(name)
        tr = self
        perf = time.perf_counter
        matrices = name in MATRIX_COUNTED
        stat_key = STATS_COUNTED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tr.stack
            idx = len(tr.start)
            tr.sid.append(sid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.op.append(tr.op_id)
            tr.start.append(0.0)
            tr.end.append(0.0)
            if matrices:
                tr._add(f"{name}.matrices", math.prod(np.shape(args[0])[:-2]))
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            if stat_key is not None:
                tr._add(f"{name}.{stat_key}", getattr(result, "stats", {}).get(stat_key, 0))
            return result

        return traced

    def install(self) -> None:
        self.names = []
        wrapped = {}
        for name, owner, attr, obj in _targets():
            if isinstance(obj, (classmethod, staticmethod)):
                new = type(obj)(self._wrap(obj.__func__, name))
            else:
                new = self._wrap(obj, name)
            wrapped[id(obj)] = new
            self._patched.append((owner, attr, obj))
            setattr(owner, attr, new)
        # re-exports: every posmap namespace that imported a wrapped function
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "posmap" or modname.startswith("posmap.")):
                continue
            for attr, obj in list(vars(mod).items()):
                new = wrapped.get(id(obj))
                if new is not None and getattr(mod, attr) is not new:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def layer_table(self) -> dict:
        """Per traced name: calls, self seconds and inclusive seconds."""
        sid = np.frombuffer(self.sid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(sid, minlength=k)
        self_s = np.bincount(sid, weights=self_time, minlength=k)
        incl_s = np.bincount(sid, weights=dur, minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.sid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
