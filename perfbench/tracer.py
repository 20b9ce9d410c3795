"""Per-layer tracing of diagchan from the outside.

:class:`Tracer` replaces each traced public function with a timing wrapper
in every ``diagchan.*`` namespace that holds it (and methods on their
class), so calls from inside the package become child spans. A span's self
time is its duration minus the time of its child spans. A call to a
function that is already on the span stack (recursion, as in
``render_json``) runs unwrapped, so only the outermost call counts.

Spans stay in memory; :meth:`Tracer.dump` returns them with the aggregate
statistics, and :meth:`Tracer.merge` folds in the dump of a traced child
process.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

#: The traced functions, by module; "Class.method" names a method.
TRACED = {
    "basis": ("orthonormal_basis", "expand", "reconstruct"),
    "linalg": ("as_hermitian", "hermitian_eigenvalues", "as_density_matrix", "psd_cholesky"),
    "channels": ("apply_channel", "choi_matrix", "min_choi_eigenvalue", "is_trace_preserving"),
    "kraus": ("kraus_from_choi", "reconstruction_residual", "KrausSet.apply",
              "KrausSet.completeness_residual", "hybrid_classical_kraus"),
    "transitions": ("transition_direct", "transition_closed_form", "is_row_stochastic"),
    "cli": ("main", "render_json", "matrix_document", "parse_matrix_document"),
}

TRACED_NAMES = tuple(f"{module}.{name}" for module, names in TRACED.items() for name in names)

#: Counts read from outside the functions, with their units.
COUNTERS = {
    "basis.orthonormal_basis.misses": "count",
    "channels.choi_matrix.bytes": "B-computed",
    "linalg.psd_cholesky.zero_pivots": "count",
    "kraus.operators": "count",
}


def _count_choi_bytes(counters, result):
    # 16 bytes per complex128 entry of the n^2 x n^2 matrix: 16 n^4.
    counters["channels.choi_matrix.bytes"] += 16 * int(result.shape[0]) ** 2


def _count_zero_pivots(counters, result):
    r = np.asarray(result)
    nonzero_rows = np.count_nonzero(np.any(r != 0, axis=1))
    counters["linalg.psd_cholesky.zero_pivots"] += int(r.shape[0] - nonzero_rows)


def _count_operators(counters, result):
    counters["kraus.operators"] += len(result)


_COUNT_HOOKS = {
    "channels.choi_matrix": _count_choi_bytes,
    "linalg.psd_cholesky": _count_zero_pivots,
    "kraus.kraus_from_choi": _count_operators,
    "kraus.hybrid_classical_kraus": _count_operators,
}


class Tracer:
    """Wraps the traced functions and aggregates spans per (function, n).

    ``n`` is the channel dimension of the operation in progress; the
    workload sets it before each operation so that self time per call can
    be fitted against n.
    """

    def __init__(self):
        self.n = 0
        self.op = -1
        self.stats = defaultdict(lambda: [0, 0.0])   # (name, n) -> [calls, self seconds]
        self.counters = defaultdict(int)
        self.spans: list[tuple] = []                   # (name, op, parent, start, end)
        self.child_misses = 0
        self._stack: list[list] = []                   # [span index, child seconds]
        self._active: set[str] = set()
        self._restore: list[tuple] = []
        self._basis_cache = None

    def install(self):
        for module, names in TRACED.items():
            mod = importlib.import_module(f"diagchan.{module}")
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                name = f"{module}.{qualname}"
                if name == "basis.orthonormal_basis":
                    self._basis_cache = original
                wrapper = self._wrap(name, original)
                if owner_name:
                    self._replace(owner, attr, original, wrapper)
                    continue
                for mod_name, m in list(sys.modules.items()):
                    if m is None or mod_name.partition(".")[0] != "diagchan":
                        continue
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, key, original, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _replace(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def _wrap(self, name, fn):
        tracer = self
        hook = _COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in tracer._active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            tracer._stack.append(frame)
            tracer._active.add(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._active.discard(name)
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                entry = tracer.stats[(name, tracer.n)]
                entry[0] += 1
                entry[1] += duration - frame[1]
                tracer.spans[index] = (name, tracer.op, parent, start, end)
            if hook is not None:
                hook(tracer.counters, result)
            return result

        return wrapper

    def misses(self) -> int:
        info = getattr(self._basis_cache, "cache_info", None)
        return self.child_misses + (info().misses if info is not None else 0)

    def dump(self) -> dict:
        return {
            "stats": [[name, n, calls, secs] for (name, n), (calls, secs) in self.stats.items()],
            "counters": dict(self.counters),
            "misses": self.misses(),
            "spans": self.spans,
        }

    def merge(self, child: dict, op: int):
        for name, n, calls, secs in child["stats"]:
            entry = self.stats[(name, n)]
            entry[0] += calls
            entry[1] += secs
        for key, value in child["counters"].items():
            self.counters[key] += value
        self.child_misses += child["misses"]
        offset = len(self.spans)
        for name, _, parent, start, end in child["spans"]:
            self.spans.append((name, op, parent + offset if parent >= 0 else -1, start, end))

    def metrics(self) -> dict:
        """calls, self_ms and exponent per traced function, plus the counters."""
        out = {}
        for name in TRACED_NAMES:
            per_n = {n: (calls, secs) for (fn, n), (calls, secs) in self.stats.items()
                     if fn == name and calls}
            calls = sum(c for c, _ in per_n.values())
            secs = sum(s for _, s in per_n.values())
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_ms"] = (secs * 1e3, "ms")
            out[f"{name}.exponent"] = (_exponent(per_n), "slope")
        out["basis.orthonormal_basis.misses"] = (self.misses(), "count")
        for key, unit in COUNTERS.items():
            if key != "basis.orthonormal_basis.misses":
                out[key] = (self.counters.get(key, 0), unit)
        return out


def _exponent(per_n: dict) -> float:
    """Least-squares slope of log(self time per call) against log n.

    Defined when the function ran at three or more dimensions; 0 otherwise.
    """
    points = [(math.log(n), math.log(secs / calls)) for n, (calls, secs) in per_n.items()
              if n >= 2 and secs > 0]
    if len(points) < 3:
        return 0.0
    x, y = np.array(points).T
    return float(np.polyfit(x, y, 1)[0])
