"""churn-tri and churn-route: reads beside writes under membership churn.

Both replay a ``ChurnTrace`` through ``api.update`` and read after every
event.  A run replays ``seconds * events_per_s`` events in ``setups``
passes: each pass times one setup (their median is ``setup_s``) and
then replays its share of the events.  Pass 0's build streams; later
builds are only timed, except that churn-tri keeps pass 1's untouched
for the compaction check.  Interleaving spreads setups and events over
the whole run, so both see the same host drift.  The nominal rate makes
a run last about ``seconds`` on a 2-vCPU host, and a fixed count means
faster code replays the same events, not more of them.  Outputs are
checked after the loop.

Event and pair rates are whole-loop totals (work over loop time), not
medians over windows.  On a shared host the speed holds fast and slow
states, a third or more apart, for 10-30 s at a time; a median over
windows follows whichever state held most of the run, while a total
averages the states.

The trace is fixed per workload and ``--seed`` draws the read pairs.
Per-event cost follows the patch state the trace creates (which nodes
left since the last merge); over five seeds, seed-drawn traces moved
churn-route's read and event medians by 27-40% (IQR over median), more
than any bound allows, while the pairs alone move them a few percent.

* churn-tri: the paper's triangulation (delta=0.3) on a 500-point
  hypercube.  Every label holds about all nodes, so one departure
  dirties most rows and every update is a patch merge; every read batch
  is a 256-pair ``estimate_many`` on clean rows.  A 16-pair small read
  follows it, timed on its own, outside the event's clock.
* churn-route: Theorem 2.1 routing (delta=0.25) on a 400-node k-NN graph
  with the lazy metric (a 0.5 MB row cache, about 160 of 400 rows).
  Merges are rare; 32 routes per event read dirty rings through
  ``filtered_row`` and an IVL check, the first-hop table and an
  evicting row cache.  With trace seed 5, every route of 6 of the
  first 45 events (a 30-second run) goes undelivered: a node the
  zooming sequences need is away and labels are truncated, which is
  documented behaviour under churn.  Trace seed 0 has no such event in
  its first 45 and would hide it.  Undelivered routes count against
  ``success_rate``, not as errors.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from common import Outcome, peak_rss_mb, reset_peak_rss

#: structures are built at the API's default seed
BUILD_SEED = 0
#: share of active nodes leaving per trace event
TRACE_RATE = 0.01


@dataclass(frozen=True)
class ChurnSize:
    scheme: str
    workload: str
    n: int
    params: Dict[str, object] = field(default_factory=dict)
    trace_seed: int = 0
    #: nominal events per second: a run replays seconds * events_per_s
    events_per_s: float = 50.0
    reads: int = 256  # pairs (or routes) read after every event
    small: int = 16  # pairs of the small read (churn-tri)
    #: passes: each one a timed setup, then its share of the events;
    #: pass 0 builds the streaming structure, pass 1 churn-tri's
    #: compaction reference (so churn-tri needs two or more)
    setups: int = 3
    parity_pairs: int = 2048


TRI = ChurnSize("triangulation", "hypercube", 500, {"delta": 0.3})
ROUTE = ChurnSize(
    "route-thm2.1", "knn-graph", 400, {"delta": 0.25, "dense": False, "cache_mb": 0.5},
    trace_seed=5, events_per_s=1.5, reads=32, small=0, setups=5,
)


def _pairs(ids: np.ndarray, k: int, rng) -> np.ndarray:
    """``k`` pairs of distinct ids drawn uniformly from ``ids``."""
    m = ids.size
    a = rng.integers(0, m, k)
    b = (a + rng.integers(1, m, k)) % m
    return np.stack([ids[a], ids[b]], axis=1)


def stream_inputs(size: ChurnSize, seed: int, events: int):
    """The trace's first ``events`` events and, per event, the read pairs
    among the nodes active after it (reads first, then the small read's)."""
    from repro.distributed.trace import ChurnTrace

    trace = ChurnTrace.generate(n=size.n, events=events, rate=TRACE_RATE,
                                seed=size.trace_seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    active = np.ones(size.n, dtype=bool)
    reads = []
    for event in trace.events:
        active[list(event.joins)] = True
        active[list(event.leaves)] = False
        reads.append(_pairs(np.flatnonzero(active), size.reads + size.small, rng))
    return trace, reads


def _build(api, size: ChurnSize):
    return api.build(size.scheme, size.workload, n=size.n, seed=BUILD_SEED,
                     cache=api.BuildCache(), **size.params)


def _floyd_warshall(graph) -> np.ndarray:
    """All-pairs shortest paths from the adjacency arrays, independent of
    the program's own shortest-path code."""
    arrays = graph.to_adjacency_arrays()
    n = graph.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    sources = np.repeat(np.arange(n), np.diff(arrays["adj_indptr"]))
    np.minimum.at(dist, (sources, arrays["adj_targets"]), arrays["adj_weights"])
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist


class _TriReader:
    """Per event: one 256-pair ``estimate_many`` (the read batch), then a
    16-pair one (the small read)."""

    def __init__(self, size: ChurnSize, fitted) -> None:
        self.size, self.inner = size, fitted.inner
        self.points = np.asarray(fitted.workload.metric.points)

    def read(self, pairs: np.ndarray, small: List[float]):
        k = self.size.reads
        return self.inner.estimate_many(pairs[:k, 0], pairs[:k, 1])

    def small_read(self, pairs: np.ndarray, small: List[float]) -> None:
        k = self.size.reads
        tick = time.perf_counter()
        self.inner.estimate_many(pairs[k:, 0], pairs[k:, 1])
        small.append(time.perf_counter() - tick)

    def score(self, pairs: np.ndarray, answer) -> tuple:
        """(succeeded, ratios, mismatch notes) of one read batch; the IVL
        verdict is applied by the caller."""
        pairs = pairs[: self.size.reads]
        served = np.asarray(answer, dtype=float)
        true = np.linalg.norm(self.points[pairs[:, 0]] - self.points[pairs[:, 1]], axis=1)
        finite = np.isfinite(served)
        return 1, served[finite] / true[finite], []


class _RouteReader:
    """Per event: 32 ``route`` calls, each one timed as a small read."""

    def __init__(self, size: ChurnSize, fitted, true: np.ndarray) -> None:
        self.size, self.inner = size, fitted.inner
        graph = fitted.inner.graph
        arrays = graph.to_adjacency_arrays()
        sources = np.repeat(np.arange(graph.n), np.diff(arrays["adj_indptr"]))
        self.weight = {
            (int(u), int(v)): float(w)
            for u, v, w in zip(sources, arrays["adj_targets"], arrays["adj_weights"])
        }
        self.true = true

    def read(self, pairs: np.ndarray, small: List[float]):
        route, results = self.inner.route, []
        for u, v in pairs[: self.size.reads].tolist():
            tick = time.perf_counter()
            results.append(route(u, v))
            small.append(time.perf_counter() - tick)
        return results

    def small_read(self, pairs: np.ndarray, small: List[float]) -> None:
        """Nothing more: the small reads are the batch's single routes,
        timed in :meth:`read`."""

    def score(self, pairs: np.ndarray, answer) -> tuple:
        """A delivered route must walk graph edges from its source to its
        target; its length is recomputed from the edge weights."""
        delivered, ratios, notes = 0, [], []
        for (u, v), result in zip(pairs[: self.size.reads].tolist(), answer):
            if not result.reached:
                continue
            path = result.path
            try:
                length = sum(self.weight[(a, b)] for a, b in zip(path, path[1:]))
            except KeyError:
                notes.append(f"route {u}->{v} leaves the graph's edges")
                continue
            if path[0] != u or path[-1] != v:
                notes.append(f"route {u}->{v} ends at {path[-1]}")
                continue
            delivered += 1
            ratios.append(length / self.true[u, v])
        return delivered, np.asarray(ratios), notes


def _compaction_parity(api, size: ChurnSize, fitted, reference, trace, seed: int) -> List[str]:
    """After ``compact()``, reads must equal those of an untouched build
    (``reference``, the first setup's) bulk-updated to the same final
    active set."""
    fitted.compact()
    final = trace.final_active()
    gone = [int(x) for x in np.flatnonzero(~final)]
    if gone:
        api.update(reference, leaves=gone)
    reference.compact()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1 << 20]))
    pairs = _pairs(np.flatnonzero(final), size.parity_pairs, rng)
    ours = np.asarray(fitted.inner.estimate_many(pairs[:, 0], pairs[:, 1]))
    theirs = np.asarray(reference.inner.estimate_many(pairs[:, 0], pairs[:, 1]))
    if np.array_equal(ours, theirs):
        return []
    return [f"compacted structure differs from a rebuild on {int((ours != theirs).sum())} pairs"]


def run(size: ChurnSize, seed: int, seconds: float, tracer) -> Outcome:
    """One execution; see the module docstring."""
    from repro import api

    reset_peak_rss()
    out = Outcome()
    routing = size.scheme.startswith("route")
    count = max(1, round(seconds * size.events_per_s))
    trace, inputs = stream_inputs(size, seed, count)
    bounds = np.linspace(0, count, size.setups + 1).round().astype(int)

    setups, updates, reads, small, events, dirty, answers = [], [], [], [], [], [], []
    update_s = 0.0
    fitted = reference = None
    for p in range(size.setups):
        tick = time.perf_counter()
        with tracer.span("bench.setup", ident=f"setup:{p}"):
            built = _build(api, size)
        setups.append(time.perf_counter() - tick)
        if p == 0:
            fitted, inner = built, built.inner
            if routing:
                reader = _RouteReader(size, fitted, _floyd_warshall(inner.graph))
            else:
                reader = _TriReader(size, fitted)
        elif p == 1 and not routing:
            reference = built  # the compaction check's untouched build
        built = None  # a later pass's build is only timed
        for i in range(bounds[p], bounds[p + 1]):
            event, pairs = trace.events[i], inputs[i]
            out.attempted += 2
            violations = inner.ivl_violations
            with tracer.span("bench.event", ident=f"event:{i}"):
                t0 = time.perf_counter()
                try:
                    receipt = api.update(fitted, joins=event.joins, leaves=event.leaves)
                    t1 = time.perf_counter()
                    answer = reader.read(pairs, small)
                    t2 = time.perf_counter()
                    reader.small_read(pairs, small)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    out.failed += 2
                    out.mismatches.append(f"event {i} raised")
                    answers.append((pairs, None, False))
                    continue
            updates.append(t1 - t0)
            reads.append(t2 - t1)
            events.append(t2 - t0)
            update_s += receipt.update_s
            stats = fitted.pending_patch_stats()
            dirty.append(stats.dirty_rows / stats.rows)
            ivl_ok = inner.ivl_violations == violations
            out.failed += not ivl_ok
            answers.append((pairs, answer, ivl_ok))
    row_stats = getattr(fitted.workload.metric, "row_cache_stats", dict)()

    # Checks, after the clock stopped and with recording paused.
    succeeded = read_attempts = 0
    ratios: List[np.ndarray] = []
    with tracer.paused():
        for pairs, answer, ivl_ok in answers:
            read_attempts += size.reads if routing else 1
            if answer is None:
                continue
            ok, event_ratios, notes = reader.score(pairs, answer)
            out.mismatches += notes
            out.failed += len(notes)
            succeeded += ok if ivl_ok else 0
            ratios.append(event_ratios)
        if not routing:
            out.attempted += 1
            notes = _compaction_parity(api, size, fitted, reference, trace, seed)
            out.mismatches += notes
            out.failed += len(notes)

    out.metrics = {
        "setup_s": out.sample("setup_s", setups),
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": succeeded / max(1, read_attempts),
        "mean_stretch": float(np.mean(np.concatenate(ratios))) if ratios else float("nan"),
        "pairs_per_s": size.reads * len(reads) / (sum(reads) or float("inf")),
        "events_per_s": len(events) / (sum(events) or float("inf")),
        "bulk_p50_ms": out.sample("bulk_p50_ms", np.array(events) * 1e3),
        "small_p50_ms": out.sample("small_p50_ms", np.array(small) * 1e3),
        "update_p50_ms": out.sample("update_p50_ms", np.array(updates) * 1e3),
        "read_p50_ms": out.sample("read_p50_ms", np.array(reads) * 1e3),
    }
    hits, misses = row_stats.get("hits", 0), row_stats.get("misses", 0)
    out.layer = {
        "metrics.row_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.dirty_row_fraction": float(np.mean(dirty)) if dirty else 0.0,
        "core.ivl_checks": float(inner.ivl_checks),
        "core.ivl_violations": float(inner.ivl_violations),
        "api.update_s": update_s,
    }
    out.context = {"setups": len(setups), "events": len(events),
                   "loop_s": float(np.sum(events)), "trace": trace.describe()}
    return out
