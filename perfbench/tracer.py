"""Span tracer for the traced run: wraps the public functions of each
layer of the program from the outside (nothing under ``src/`` knows it
is traced) and turns the spans into the per-layer metrics.

A span has a name, start, end, parent (the span open in the same task
when it started, -1 for none), the id of the request or event the
benchmark set, and a work count (rows, pairs, hops).  A traced build
makes about a million single-row metric calls, so spans are kept in
typed columns rather than objects, and written out once, when the run
ends, as one compressed ``.npz``.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np


def _batch(args, kwargs, result) -> int:
    """Size of the first argument after ``self``: rows asked of a row
    query, pairs asked of ``estimate_many``."""
    first = args[1] if len(args) > 1 else next(iter(kwargs.values()), ())
    return int(np.size(first))


def _hops(args, kwargs, result) -> int:
    return len(result.path) - 1


def _one(args, kwargs, result) -> int:
    return 1


#: the open-span marker of code that runs with recording paused
PAUSED = -2


#: span name -> the functions it wraps, as (module, attribute path, count).
#: Methods are wrapped on the class that defines them; module functions
#: are rebound in every ``repro`` module that imported them by name.
TARGETS = {
    "metrics.rows": [
        ("repro.metrics.base", "MetricSpace.distances_between", _batch),
        ("repro.metrics.euclidean", "EuclideanMetric.distances_from", _one),
        ("repro.metrics.euclidean", "EuclideanMetric.distances_between", _batch),
        ("repro.metrics.graphmetric", "ShortestPathMetric.distances_from", _one),
        ("repro.metrics.graphmetric", "ShortestPathMetric.distances_between", _batch),
        ("repro.metrics.graphmetric", "ShortestPathMetric.rows_within", _batch),
    ],
    "construction.nets": [("repro.metrics.nets", "NestedNets.__init__", _one)],
    "construction.rings": [("repro.core.rings", "net_rings", _one)],
    "labeling.scales": [("repro.labeling._scales", "ScaleStructure.__init__", _one)],
    "labeling.labels": [
        ("repro.labeling.triangulation", "RingTriangulation.__init__", _one),
        ("repro.labeling.beacons", "BeaconTriangulation.__init__", _one),
    ],
    "labeling.estimate_many": [
        ("repro.labeling.triangulation", "RingTriangulation.estimate_many", _batch),
        ("repro.labeling.beacons", "BeaconTriangulation.estimate_many", _batch),
    ],
    "labeling.apply_update": [
        ("repro.labeling.triangulation", "RingTriangulation.apply_update", _one),
        ("repro.labeling.beacons", "BeaconTriangulation.apply_update", _one),
    ],
    "core.patch_merge": [("repro.core.patch", "CSRPatch.merge", _one)],
    "core.filtered_read": [("repro.core.patch", "CSRPatch.filtered_row", _one)],
    "routing.route": [("repro.routing.ring_scheme", "RingRouting.route", _hops)],
    "routing.apply_update": [
        ("repro.routing.ring_scheme", "RingRouting.apply_update", _one)
    ],
    "graphs.first_hop": [
        ("repro.graphs.shortest_paths", "FirstHopTable.first_hop", _one)
    ],
    "api.build": [("repro.api.facade", "build", _one)],
    "api.save": [("repro.api.facade", "save", _one)],
    "api.load": [("repro.api.facade", "load", _one)],
    "api.update": [("repro.api.facade", "update", _one)],
}


class NullTracer:
    """Stand-in for untraced runs: every span is a no-op."""

    def span(self, name: str, ident=None):
        return contextlib.nullcontext()

    def detached(self):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()

    def record(self, name: str, start: float, end: float, ident: str) -> None:
        pass

    def busy_between(self, name: str, lo: float, hi: float) -> float:
        return 0.0


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.names: List[str] = []
        self.idents: List[str] = []
        self._codes: Dict[str, int] = {}
        self._ident_codes: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.ident = array("q")
        self.work = array("q")
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self._ident: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_ident", default=-1
        )
        self._restore: List[Callable[[], None]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- recording -----------------------------------------------------

    @staticmethod
    def _intern(table: List[str], codes: Dict[str, int], key: str) -> int:
        if key not in codes:
            codes[key] = len(table)
            table.append(key)
        return codes[key]

    def _open(self, name: str, ident: int, start: float) -> int:
        index = len(self.start)
        self.name.append(self._intern(self.names, self._codes, name))
        self.parent.append(self._current.get())
        self.ident.append(ident)
        self.work.append(1)
        self.end.append(start)
        self.start.append(start)
        return index

    @contextlib.contextmanager
    def span(self, name: str, ident: Optional[str] = None):
        """A span opened by the benchmark itself (setup, event, phase);
        ``ident`` becomes the id of every span opened inside it."""
        code = (self._intern(self.idents, self._ident_codes, ident)
                if ident is not None else self._ident.get())
        index = self._open(name, code, time.perf_counter())
        token = self._current.set(index)
        ident_token = self._ident.set(code)
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self._ident.reset(ident_token)
            self._current.reset(token)

    @contextlib.contextmanager
    def detached(self):
        """Run code (such as a server start that spawns long-lived
        tasks) with no open span, so the tasks it creates do not adopt
        the enclosing span as their parent."""
        token = self._current.set(-1)
        ident_token = self._ident.set(-1)
        try:
            yield
        finally:
            self._ident.reset(ident_token)
            self._current.reset(token)

    @contextlib.contextmanager
    def paused(self):
        """Run code (the benchmark's own output checks) without recording
        the wrapped calls it makes, so checking adds no work to a layer."""
        token = self._current.set(PAUSED)
        try:
            yield
        finally:
            self._current.reset(token)

    def record(self, name: str, start: float, end: float, ident: str) -> None:
        """A finished span timed by the benchmark (a request seen from
        the client), parented to the span open in the caller."""
        index = self._open(name, self._intern(self.idents, self._ident_codes, ident), start)
        self.end[index] = end

    def _wrap(self, name: str, fn: Callable, count: Callable) -> Callable:
        code = self._intern(self.names, self._codes, name)
        names, starts, ends, parents, idents, works = (
            self.name, self.start, self.end, self.parent, self.ident, self.work)
        current, ident = self._current, self._ident
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = current.get()
            if parent == PAUSED:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(code)
            parents.append(parent)
            idents.append(ident.get())
            works.append(0)
            ends.append(0.0)
            starts.append(clock())
            token = current.set(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                current.reset(token)
            works[index] = count(args, kwargs, result)
            return result

        return traced

    # -- installing the wrappers ---------------------------------------

    def install(self) -> None:
        """Wrap every target.  One that cannot be found (renamed or
        moved) is an error, because its layer would silently read 0."""
        missing = []
        for name, targets in TARGETS.items():
            for module_name, path, count in targets:
                try:
                    module = importlib.import_module(module_name)
                    owner = module
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr] if outer else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    missing.append(f"{module_name}:{path}")
                    continue
                wrapped = self._wrap(name, original, count)
                if outer:
                    self._rebind_attr(owner, attr, original, wrapped)
                else:
                    self._rebind_everywhere(original, wrapped)
        if missing:
            self.uninstall()
            raise LookupError(f"perfbench: cannot trace {missing}")

    def _rebind_attr(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append(lambda: setattr(owner, attr, original))

    def _rebind_everywhere(self, original, wrapped) -> None:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._rebind_attr(module, key, original, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the part of it that its child
        spans cover (children clipped to the parent, overlaps merged)."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        out = end - start
        children = np.flatnonzero(parent >= 0)
        children = children[np.lexsort((start[children], parent[children]))]
        covered = np.zeros_like(out)
        current, reach = -1, 0.0
        for child in children.tolist():
            p = int(parent[child])
            if p != current:
                current, reach = p, start[p]
            lo, hi = max(start[child], reach), min(end[child], end[p])
            if hi > lo:
                covered[p] += hi - lo
                reach = hi
        return out - covered

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self seconds, and the work count summed
        over outermost calls (a call nested in one of the same name,
        such as a batched row query that computes single rows, counts
        once)."""
        if not len(self):
            return {}
        selfs = self.self_times()
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        work = np.frombuffer(self.work, dtype=np.int64)
        outer = (parent < 0) | (name[np.maximum(parent, 0)] != name)
        out = {}
        for code, label in enumerate(self.names):
            mine = name == code
            top = mine & outer
            out[label] = {"calls": int(top.sum()), "self_s": float(selfs[mine].sum()),
                          "work": int(work[top].sum())}
        return out

    def busy_between(self, name: str, lo: float, hi: float) -> float:
        """Seconds inside spans called ``name`` within ``[lo, hi]``."""
        if name not in self._codes or not len(self):
            return 0.0
        mine = np.frombuffer(self.name, dtype=np.int32) == self._codes[name]
        start = np.maximum(np.frombuffer(self.start, dtype=np.float64)[mine], lo)
        end = np.minimum(np.frombuffer(self.end, dtype=np.float64)[mine], hi)
        return float(np.clip(end - start, 0.0, None).sum())

    def dump(self, path) -> None:
        """Write the spans, times relative to the tracer's creation:
        ``names[name[i]]`` and ``idents[ident[i]]`` decode the codes."""
        np.savez_compressed(
            path, names=np.array(self.names), idents=np.array(self.idents),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64) - self.origin,
            end=np.frombuffer(self.end, dtype=np.float64) - self.origin,
            parent=np.frombuffer(self.parent, dtype=np.int64),
            ident=np.frombuffer(self.ident, dtype=np.int64),
            work=np.frombuffer(self.work, dtype=np.int64),
        )


#: per-layer metrics a workload measures itself (0 where it has none)
WORKLOAD_MEASURED = (
    "metrics.row_cache_hit_ratio", "core.dirty_row_fraction", "core.ivl_checks",
    "core.ivl_violations", "api.update_s", "serve.requests",
    "serve.bulk_mean_batch_pairs", "serve.small_mean_batch_pairs",
    "serve.bulk_estimate_share", "serve.bulk_busy_share", "serve.small_busy_share",
    "serve.cpu_us_per_pair",
)


def layer_metrics(tracer: Tracer, layer: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced execution: span totals plus
    the counters and shares the workload measured itself."""
    s = tracer.summary()

    def calls(name):
        return float(s[name]["calls"]) if name in s else 0.0

    def work(name):
        return float(s[name]["work"]) if name in s else 0.0

    def self_s(name):
        return float(s[name]["self_s"]) if name in s else 0.0

    routes = calls("routing.route")
    out = {
        "metrics.rows": work("metrics.rows"),
        "metrics.rows_s": self_s("metrics.rows"),
        "construction.nets_s": self_s("construction.nets"),
        "construction.rings_s": self_s("construction.rings"),
        "labeling.scales_s": self_s("labeling.scales"),
        "labeling.labels_s": self_s("labeling.labels"),
        "labeling.estimate_calls": calls("labeling.estimate_many"),
        "labeling.estimate_pairs": work("labeling.estimate_many"),
        "labeling.estimate_many_s": self_s("labeling.estimate_many"),
        "labeling.apply_update_s": self_s("labeling.apply_update"),
        "core.patch_merges": calls("core.patch_merge"),
        "core.patch_merge_s": self_s("core.patch_merge"),
        "core.filtered_reads": calls("core.filtered_read"),
        "core.filtered_read_s": self_s("core.filtered_read"),
        "routing.routes": routes,
        "routing.route_s": self_s("routing.route"),
        "routing.hops_mean": work("routing.route") / routes if routes else 0.0,
        "routing.apply_update_s": self_s("routing.apply_update"),
        "graphs.first_hops": calls("graphs.first_hop"),
        "graphs.first_hop_s": self_s("graphs.first_hop"),
        "api.build_s": self_s("api.build"),
        "api.save_s": self_s("api.save"),
        "api.load_s": self_s("api.load"),
    }
    out.update(dict.fromkeys(WORKLOAD_MEASURED, 0.0))
    out.update(layer)
    return out
