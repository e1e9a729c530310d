"""In-memory spans around poincarelab's public functions.

The benchmark installs the spans from outside the package: every public
function of each module (and the few hot methods listed in ``METHODS``) is
replaced, in every poincarelab module namespace that binds it, by a wrapper
that appends ``[name, start, end, parent]`` to an in-memory list.  Nothing
under ``src/`` is edited.  ``uninstall`` puts the originals back, so traced
and untraced rounds can run in one process.

A span's self time is its duration minus the durations of its direct
child spans.  Some wrappers also record computed counts (cells read,
window reads, stopping cubes, ...) from their arguments and results.
Peak allocations are measured by ``measure_allocs`` in a separate, untimed
replay, so tracemalloc never runs inside a timed span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
import tracemalloc
from collections import defaultdict

MODULES = ("grid", "weights", "operators", "functionals", "decomposition",
           "inequalities", "cli")
# (module, class, method): hot methods that carry per-layer metrics
METHODS = (("grid", "CubeIndex", "children"),
           ("weights", "PowerWeight", "cell_masses"),
           ("functionals", "FractionalFunctional", "eval"))


def _cubes(n, depth):
    return sum(1 << (n * level) for level in range(depth + 1))


def _shape(values):
    shape = getattr(values, "shape", None)
    if shape is None:
        shape = getattr(getattr(values, "values", None), "shape", ())
    return shape


# -- computed counts, recorded per call: (tracer, args, kwargs, result, dt)

def _count_centered_maximal(tr, args, kwargs, result, dt):
    shape = _shape(args[0])
    cells = 1
    for s in shape:
        cells *= s
    tr.counts["operators.centered_maximal_values.cells"] += cells
    tr.counts["operators.centered_maximal_values.window_reads"] += \
        cells * (shape[0] - 1) * (1 << len(shape))


def _count_block_reduce(tr, args, kwargs, result, dt):
    shape = _shape(args[0])
    cells = 1
    for s in shape:
        cells *= s
    tr.counts["grid.block_reduce.cells_read"] += cells


def _count_ainf(tr, args, kwargs, result, dt):
    depth = args[2] if len(args) > 2 else kwargs["depth"]
    tr.counts["weights.ainf_fujii_wilson.cubes"] += \
        _cubes(len(_shape(args[0])), depth)


def _count_constants_report(tr, args, kwargs, result, dt):
    depth = args[3] if len(args) > 3 else kwargs["depth"]
    shifted = args[4] if len(args) > 4 else kwargs.get("shifted", False)
    label = f"{len(_shape(args[0]))}d-d{depth}" \
        + ("-shifted" if shifted else "")
    tr.counts[f"weights.constants_report.{label}_s"] += dt


def _count_cz(tr, args, kwargs, result, dt):
    h = args[0]
    stops = len(result.stopping)
    tr.counts["decomposition.cz_decompose.stopping_cubes"] += stops
    tr.counts["decomposition.cz_decompose.bad_bytes"] += \
        stops * h.values.size * h.values.itemsize


COUNTERS = {
    "operators.centered_maximal_values": _count_centered_maximal,
    "grid.block_reduce": _count_block_reduce,
    "weights.ainf_fujii_wilson": _count_ainf,
    "weights.constants_report": _count_constants_report,
    "decomposition.cz_decompose": _count_cz,
}
# calls whose peak Python allocation is measured with tracemalloc, on an
# untimed replay of their first traced call
ALLOC = ("decomposition.cz_decompose",)


class Tracer:
    """Span recorder; one per process, installed around poincarelab."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []          # [name_id, start, end, parent_index]
        self.stack = []
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        self.replay = {}         # ALLOC name -> (fn, args, kwargs)
        self.external = 0        # spans added by add_span
        self.dp_scope = 0        # open exhaustive sdp_check calls
        self._saved = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add_span(self, name, start, end):
        """Record an externally timed top-level span (start-up, import);
        only its duration is used, so any clock will do."""
        self.spans.append([self._name_id(name), start, end, -1])
        self.external += 1

    def _wrap(self, name, fn):
        tr = self
        nid = self._name_id(name)
        counter = COUNTERS.get(name)
        alloc = name in ALLOC
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if alloc and name not in tr.replay:
                tr.replay[name] = (fn, args, kwargs)
            idx = len(tr.spans)
            rec = [nid, 0.0, 0.0, tr.stack[-1] if tr.stack else -1]
            tr.spans.append(rec)
            tr.stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                tr.stack.pop()
            if counter is not None:
                counter(tr, args, kwargs, result, rec[2] - rec[1])
            return result

        return wrapper

    def _wrap_sdp_check(self, fn):
        """sdp_check also opens the scope in which Functional.eval calls
        are counted against the cube-tree nodes of the exhaustive DP."""
        inner = self._wrap("functionals.sdp_check", fn)
        sig = inspect.signature(fn)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if bound.arguments["mode"] != "exhaustive":
                return inner(*args, **kwargs)
            Q, depth = bound.arguments["Q"], bound.arguments["depth"]
            tr.counts["functionals.dp_tree_nodes"] += \
                _cubes(Q.n, depth - Q.level)
            tr.dp_scope += 1
            try:
                return inner(*args, **kwargs)
            finally:
                tr.dp_scope -= 1

        return wrapper

    def _wrap_eval(self, name, fn):
        inner = self._wrap(name, fn)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.dp_scope:
                tr.counts["functionals.dp_evals"] += 1
            return inner(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every public function in every module namespace binding it."""
        mods = {m: importlib.import_module(f"poincarelab.{m}")
                for m in MODULES}
        package = importlib.import_module("poincarelab")
        namespaces = list(mods.values()) + [package]
        wrapped = {}
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{mname}.{attr}"
                if name == "functionals.sdp_check":
                    wrapped[obj] = self._wrap_sdp_check(obj)
                else:
                    wrapped[obj] = self._wrap(name, obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, wrapped[obj])
        for mname, cls_name, meth in METHODS:
            cls = getattr(mods[mname], cls_name)
            orig = cls.__dict__[meth]
            name = f"{mname}.{cls_name}.{meth}"
            wrap = self._wrap_eval if meth == "eval" else self._wrap
            self._saved.append((cls, meth, orig))
            setattr(cls, meth, wrap(name, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def measure_allocs(self):
        """Peak Python allocation (MB) of each ALLOC function, from one
        replay of its first traced call under tracemalloc.  Call it with
        the spans uninstalled: the replay is neither traced nor timed."""
        for name, (fn, args, kwargs) in self.replay.items():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
            key = name + ".peak_alloc_mb"
            self.peaks[key] = max(self.peaks[key], peak)
        self.replay.clear()

    # -- summaries ------------------------------------------------------

    def summary(self):
        """Self time and calls per span name, plus the recorded counts."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (nid, start, end, _) in enumerate(self.spans):
            self_s[self.names[nid]] += end - start - child[i]
            calls[self.names[nid]] += 1
        counts = dict(self.counts)
        counts["trace.spans"] = len(self.spans) - self.external
        return {"self_s": dict(self_s), "calls": dict(calls),
                "counts": counts, "peaks": dict(self.peaks)}


def span_cost(calls=20000, repeats=5):
    """Seconds one span adds to a call: a wrapped no-op timed against the
    bare no-op, median over ``repeats`` loops of ``calls`` calls."""
    def noop():
        return None

    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        wrapped = Tracer()._wrap("noop", noop)
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        costs.append((t2 - t1 - (t1 - t0)) / calls)
    return statistics.median(costs)
