"""Streaming-churn properties of the patch-buffered structures.

Two contracts, checked on euclidean and lazy-graph metrics across
several trace seeds:

1. **Compaction parity** — streaming a join/leave trace event-by-event
   through ``apply_update`` and then compacting yields a structure
   bit-for-bit identical to a fresh pristine build bulk-updated to the
   same final active set (the fixed-universe model: derived state is a
   pure function of (pristine build, active set), independent of the
   arrival order of the churn).

2. **IVL bounds mid-patch** — Theorem 2.1 routing keeps churn pending:
   with auto-merge disabled, routes interleaved between updates read
   dirty rings, each bracketed by the structure's intermediate-value
   check, and the violation counter must stay zero.  The label schemes
   merge every update, so nothing of theirs is pending: each of their
   reads between updates must be exact for the live active set (an
   exact read lies in every IVL hull), checked against the labels saved
   before any churn.  ``test_label_churn.py`` drives them through random
   batches as well.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import patch as patch_policy
from repro.core.patch import InactiveNode
from repro.distributed.trace import ChurnTrace
from repro.graphs.generators import knn_geometric_graph
from repro.labeling.beacons import BeaconTriangulation
from repro.labeling.triangulation import RingTriangulation
from repro.metrics.graphmetric import ShortestPathMetric
from repro.metrics.synthetic import random_hypercube_metric
from repro.routing.ring_scheme import RingRouting

SEEDS = (0, 1, 2)
N = 40


def _metric(kind: str, seed: int):
    if kind == "euclidean":
        return random_hypercube_metric(N, dim=2, seed=seed)
    graph = knn_geometric_graph(N, k=4, seed=seed)
    return ShortestPathMetric(graph, dense=False, row_cache_bytes=1 << 20)


@pytest.fixture()
def no_auto_merge(monkeypatch):
    # the merge policy reads these at call time: every routing patch
    # stays pending, so ring reads stay on the dirty-row (IVL-checked)
    # path until compact(); the label schemes merge every update anyway
    monkeypatch.setattr(patch_policy, "MERGE_DIRTY_FRACTION", 1.1)
    monkeypatch.setattr(patch_policy, "MERGE_STALENESS", 10**9)


def _stream(struct, trace, read=None):
    for event in trace.events:
        struct.apply_update(joins=event.joins, leaves=event.leaves)
        if read is not None:
            read(struct)


def _bulk(struct, trace):
    gone = np.flatnonzero(~trace.final_active())
    if gone.size:
        struct.apply_update(joins=(), leaves=[int(x) for x in gone])
    struct.compact()
    return struct


def _dense_labels(struct):
    """A label scheme's saved labels as an (n, k) matrix, inf where a
    label lacks the beacon, and the node id of each column."""
    _, arrays = struct.to_arrays()
    if "beacons" in arrays:
        return np.array(arrays["labels"]), np.array(arrays["beacons"])
    indptr = arrays["label_indptr"]
    labels = np.full((N, N), np.inf)
    labels[np.repeat(np.arange(N), np.diff(indptr)),
           arrays["label_ids"]] = arrays["label_dist"]
    return labels, np.arange(N)


def _exact_bounds(labels, us, vs):
    """(D-, D+) per pair over the beacons both labels hold."""
    lu, lv = labels[us], labels[vs]
    common = np.isfinite(lu) & np.isfinite(lv)
    with np.errstate(invalid="ignore"):  # inf - inf off the common ones
        lower = np.where(common, np.abs(lu - lv), 0.0).max(axis=1, initial=0.0)
    return lower, np.where(common, lu + lv, np.inf).min(axis=1, initial=np.inf)


def _sample_active_pairs(trace, seed=99, pairs=200):
    ids = np.flatnonzero(trace.final_active())
    rng = np.random.default_rng(seed)
    us = rng.choice(ids, size=pairs)
    vs = rng.choice(ids, size=pairs)
    keep = us != vs
    return us[keep], vs[keep]


@pytest.mark.usefixtures("no_auto_merge")
@pytest.mark.parametrize("kind", ["euclidean", "graph-lazy"])
@pytest.mark.parametrize("seed", SEEDS)
class TestCompactionParity:
    def test_triangulation_bitwise(self, kind, seed):
        metric = _metric(kind, seed)
        trace = ChurnTrace.generate(n=N, events=10, rate=0.08, seed=seed)

        streamed = RingTriangulation(metric, delta=0.3)
        _stream(streamed, trace)
        streamed.compact()

        ref = _bulk(RingTriangulation(metric, delta=0.3), trace)

        assert np.array_equal(streamed._indptr, ref._indptr)
        assert np.array_equal(streamed._ids, ref._ids)
        assert np.array_equal(streamed._dist, ref._dist)
        us, vs = _sample_active_pairs(trace)
        assert np.array_equal(
            streamed.estimate_many(us, vs), ref.estimate_many(us, vs)
        )

    def test_beacons_bitwise(self, kind, seed):
        metric = _metric(kind, seed)
        trace = ChurnTrace.generate(n=N, events=10, rate=0.08, seed=seed)

        streamed = BeaconTriangulation(metric, k=12, seed=5)
        _stream(streamed, trace)
        streamed.compact()

        ref = _bulk(BeaconTriangulation(metric, k=12, seed=5), trace)

        assert np.array_equal(streamed.beacons, ref.beacons)
        assert np.array_equal(streamed._labels, ref._labels)
        us, vs = _sample_active_pairs(trace)
        lo_a, up_a = streamed.bounds_many(us, vs)
        lo_b, up_b = ref.bounds_many(us, vs)
        assert np.array_equal(lo_a, lo_b)
        assert np.array_equal(up_a, up_b)

    def test_routing_bitwise(self, kind, seed):
        if kind == "euclidean":
            pytest.skip("RingRouting runs on graphs")
        graph = knn_geometric_graph(N, k=4, seed=seed)
        metric = ShortestPathMetric(graph, dense=False,
                                    row_cache_bytes=1 << 20)
        trace = ChurnTrace.generate(n=N, events=6, rate=0.06, seed=seed)

        streamed = RingRouting(graph, delta=0.3, metric=metric)
        _stream(streamed, trace)
        streamed.compact()

        ref_metric = ShortestPathMetric(graph, dense=False,
                                        row_cache_bytes=1 << 20)
        ref = _bulk(RingRouting(graph, delta=0.3, metric=ref_metric), trace)

        assert np.array_equal(streamed._indptr, ref._indptr)
        assert np.array_equal(streamed._members, ref._members)
        assert np.array_equal(streamed._zoom, ref._zoom)
        assert streamed._zeta_triples == ref._zeta_triples
        us, vs = _sample_active_pairs(trace, pairs=60)
        for u, v in zip(us, vs):
            assert (
                streamed.route(int(u), int(v)).path
                == ref.route(int(u), int(v)).path
            )


@pytest.mark.usefixtures("no_auto_merge")
@pytest.mark.parametrize("kind", ["euclidean", "graph-lazy"])
@pytest.mark.parametrize("seed", SEEDS)
class TestIVLMidPatch:
    def _active_reader(self, trace):
        # replay the active mask alongside the stream so reads only name
        # live nodes (inactive reads raise by contract, tested below)
        state = {"i": 0, "active": np.ones(N, dtype=bool)}
        events = trace.events

        def advance():
            e = events[state["i"]]
            state["active"][list(e.joins)] = True
            state["active"][list(e.leaves)] = False
            state["i"] += 1
            return np.flatnonzero(state["active"])

        return advance

    def _exact_reads(self, struct, trace, batched_bounds):
        # An exact read lies in every IVL hull.  Between updates, with the
        # merge policy off, nothing of a label scheme is pending and each
        # batched read equals D- and D+ over the active common beacons of
        # the labels saved before any churn, on every active pair.
        labels, columns = _dense_labels(struct)
        advance = self._active_reader(trace)
        seen = {"departed": 0}

        def read(s):
            ids = advance()
            stats = s.pending_patch_stats()
            assert (stats.dirty_rows, stats.pending_joins,
                    stats.pending_leaves) == (0, 0, 0)
            a, b = np.triu_indices(ids.size, 1)
            us, vs = ids[a], ids[b]
            lower, upper = _exact_bounds(labels[:, np.isin(columns, ids)], us, vs)
            assert s.estimate_many(us, vs).tobytes() == upper.tobytes()
            if batched_bounds:
                got = s.bounds_many(us, vs)
                assert got[0].tobytes() == lower.tobytes()
                assert got[1].tobytes() == upper.tobytes()
            seen["departed"] += N - ids.size

        _stream(struct, trace, read=read)
        assert seen["departed"] > 0

    def test_triangulation_ivl_zero_violations(self, kind, seed):
        metric = _metric(kind, seed)
        trace = ChurnTrace.generate(n=N, events=10, rate=0.08, seed=seed)
        tri = RingTriangulation(metric, delta=0.3)
        self._exact_reads(tri, trace, batched_bounds=False)
        assert tri.ivl_violations == 0

    def test_beacons_ivl_zero_violations(self, kind, seed):
        metric = _metric(kind, seed)
        trace = ChurnTrace.generate(n=N, events=10, rate=0.08, seed=seed)
        tri = BeaconTriangulation(metric, k=12, seed=5)
        self._exact_reads(tri, trace, batched_bounds=True)

    def test_routing_ivl_zero_violations(self, kind, seed):
        if kind == "euclidean":
            pytest.skip("RingRouting runs on graphs")
        graph = knn_geometric_graph(N, k=4, seed=seed)
        metric = ShortestPathMetric(graph, dense=False,
                                    row_cache_bytes=1 << 20)
        trace = ChurnTrace.generate(n=N, events=6, rate=0.06, seed=seed)
        scheme = RingRouting(graph, delta=0.3, metric=metric)
        advance = self._active_reader(trace)
        rng = np.random.default_rng(seed)

        def read(struct):
            ids = advance()
            us = rng.choice(ids, size=12)
            vs = rng.choice(ids, size=12)
            for u, v in zip(us, vs):
                if u != v:
                    struct.route(int(u), int(v))

        _stream(scheme, trace, read=read)
        assert scheme.ivl_checks > 0
        assert scheme.ivl_violations == 0


class TestInactiveReads:
    def test_estimate_raises_for_departed_node(self):
        metric = _metric("euclidean", 0)
        tri = RingTriangulation(metric, delta=0.3)
        tri.apply_update(joins=(), leaves=[3])
        with pytest.raises(InactiveNode):
            tri.estimate(3, 5)
        with pytest.raises(InactiveNode):
            tri.estimate_many(np.array([3]), np.array([5]))

    def test_route_raises_for_departed_endpoint(self):
        graph = knn_geometric_graph(N, k=4, seed=0)
        scheme = RingRouting(graph, delta=0.3)
        scheme.apply_update(joins=(), leaves=[3])
        with pytest.raises(InactiveNode):
            scheme.route(3, 5)
        with pytest.raises(InactiveNode):
            scheme.route(5, 3)
