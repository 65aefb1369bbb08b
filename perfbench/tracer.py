"""Outside-in tracing of rieszw's layers, without editing ``src/``.

The tracer replaces each public function of the traced modules, and the
prefix-sum methods of ``StepFunction``, with a wrapper that records one span
per call: name, parent span, start and end in ``perf_counter_ns``.  A module
that did ``from .operators import sparse_riesz`` holds its own binding, so
every binding of the function in every loaded ``rieszw`` module is patched,
and ``uninstall`` puts all of them back.  Spans stay in memory until the run
ends; ``summary`` then derives per-layer calls, total and self time.

Not traced: generator functions (their work is done by whoever iterates
them and is counted there), ``calibration`` (a one-time JSON read), and the
module-level ``mesh.cube_integral``/``mesh.cube_average``, which only
delegate to the ``StepFunction`` methods traced under the same names.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array

TRACED_MODULES = ("mesh", "operators", "orlicz", "weights", "sparse", "normest", "cli")
STEP_FUNCTION_METHODS = ("integral_box3", "cube_integral", "cube_average", "lp_norm", "total", "map")
DELEGATES = ("mesh.cube_integral", "mesh.cube_average")

#: Work counts read off a traced function's result: name -> (count, getter).
COUNTERS = {
    "sparse.build_sparse": ("cubes", lambda result: len(result[0])),
    "orlicz.luxemburg_norms": ("cubes", len),
    "weights.fujii_wilson": ("corpus", lambda result: result.corpus_size),
}


def rieszw_targets() -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, original) for every traced callable."""
    targets = []
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"rieszw.{short}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            name = f"{short}.{attr}"
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(fn) and name not in DELEGATES):
                targets.append((name, mod, attr, fn))
    from rieszw.mesh import StepFunction

    for attr in STEP_FUNCTION_METHODS:
        targets.append((f"mesh.{attr}", StepFunction, attr, StepFunction.__dict__[attr]))
    return targets


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        """``fn`` recording one span per call under ``name``."""
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        local, lock, clock = self._local, self._lock, self._clock
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        count_key = None if counter is None else f"{name}.{counter[0]}"
        if count_key is not None:
            self.counts.setdefault(count_key, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                idx = len(start)
                name_id.append(nid)
                parent.append(stack[-1] if stack else -1)
                start.append(0)
                end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count_key is not None:
                self.counts[count_key] += counter[1](result)
            return result

        return traced

    def install(self, targets) -> None:
        """Patch every binding of each target's original: the owner's
        attribute and any ``rieszw`` module global bound to the same object."""
        modules = [m for k, m in list(sys.modules.items()) if k == "rieszw" or k.startswith("rieszw.")]
        for name, owner, attr, original in targets:
            wrapper = self.wrap(name, original, COUNTERS.get(name))
            bindings = [(owner, attr)]
            for mod in modules:
                bindings += [(mod, k) for k, v in vars(mod).items() if v is original and mod is not owner]
            for obj, key in bindings:
                self._patches.append((obj, key, original))
                setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)

    def summary(self) -> dict:
        """Per span name: calls, total_s (calls nested in a call of the same
        name are not added again) and self_s (duration minus the duration of
        direct child spans)."""
        import numpy as np

        nid = np.frombuffer(self.name_id, dtype=np.int64)
        par = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        has = par >= 0
        child_ns = np.bincount(par[has], weights=dur[has], minlength=len(dur))
        self_ns = dur - child_ns
        nested = np.zeros(len(dur), dtype=bool)
        anc = par.copy()
        live = anc >= 0
        while live.any():
            nested[live] |= nid[anc[live]] == nid[live]
            anc[live] = par[anc[live]]
            live = anc >= 0
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=np.where(nested, 0, dur), minlength=k)
        selfs = np.bincount(nid, weights=self_ns, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]) * 1e-9,
                       "self_s": float(selfs[i]) * 1e-9}
                for i, name in enumerate(self.names)}

    def save_spans(self, path) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64))
