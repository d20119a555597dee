"""Theorem 2.1 routing under churn, checked step by step.

A hypothesis state machine interleaves leaves, joins, routes and
compactions on one :class:`RingRouting` over a lazy k-NN graph metric
whose row cache holds fewer rows than the graph has nodes, so the zoom
recompute's distance block evicts.  The merge policy is switched off, so
every update stays a pending patch and ring reads go through the
filtered, containment-checked path until ``compact``.

After every step the structure is compared with references that share
no code with the churn path: the zooming sequences with nearest active
net points under an all-pairs Floyd–Warshall matrix built here, the
labels with positions in pristine rings filtered by the test's own
active mask.  After ``compact`` the structure must equal a fresh build
bulk-updated to the same active set.

The edge weights are small integers, so every path length is exact in
both the reference and the program: equidistant net points are common
and the lowest-id rule decides them.  With δ = 0.45 the rings are small
enough that churn cuts labels short before their last level.

The sorted search that backs the batched ring check is compared with
``np.isin`` on its own.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.core import patch as patch_policy
from repro.core.patch import InactiveNode
from repro.distributed.trace import ChurnTrace
from repro.graphs.generators import knn_geometric_graph
from repro.graphs.graph import WeightedGraph
from repro.metrics.graphmetric import ShortestPathMetric
from repro.routing.ring_scheme import RingRouting, _sorted_find

N = 40
DELTA = 0.45
#: fewer cached rows than nodes: the zoom recompute's block evicts
CACHE_ROWS = 12


def _integer_knn_graph() -> WeightedGraph:
    graph = WeightedGraph(N)
    for u, v, w in knn_geometric_graph(N, k=4, seed=3).edges():
        graph.add_edge(u, v, float(max(1, round(80 * w))))
    return graph


GRAPH = _integer_knn_graph()


def _fresh() -> RingRouting:
    metric = ShortestPathMetric(GRAPH, dense=False, row_cache_bytes=CACHE_ROWS * N * 8)
    return RingRouting(GRAPH, delta=DELTA, metric=metric)


def _floyd_warshall(graph) -> np.ndarray:
    arrays = graph.to_adjacency_arrays()
    dist = np.full((graph.n, graph.n), np.inf)
    np.fill_diagonal(dist, 0.0)
    sources = np.repeat(np.arange(graph.n), np.diff(arrays["adj_indptr"]))
    np.minimum.at(dist, (sources, arrays["adj_targets"]), arrays["adj_weights"])
    for k in range(graph.n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist


DIST = _floyd_warshall(GRAPH)
PRISTINE = _fresh()
LEVELS = PRISTINE.levels
NETS = [np.asarray(sorted(PRISTINE.nets.net(j))) for j in range(LEVELS)]
RINGS = {
    (u, j): [int(x) for x in PRISTINE.ring(u, j)]
    for u in range(N) for j in range(LEVELS)
}
EDGES = {(int(u), int(v)) for u, v, _ in GRAPH.edges()}
EDGES |= {(v, u) for u, v in EDGES}


def _reference_zoom(active: np.ndarray) -> np.ndarray:
    """Per level, each node's nearest active net point, lowest id among
    those at the minimum distance."""
    zoom = np.full((N, LEVELS), -1)
    for j, net in enumerate(NETS):
        live = net[active[net]]
        if live.size:
            d = DIST[live]
            zoom[:, j] = live[(d == d.min(axis=0)).argmax(axis=0)]
    return zoom


def _reference_label(t: int, zoom: np.ndarray, active: np.ndarray) -> tuple:
    """t's indices in the live rings, cut at the first level where
    Claim 2.3's containment fails."""
    indices = []
    for j in range(LEVELS):
        f = int(zoom[t, j])
        ring = [x for x in RINGS[t if j == 0 else int(zoom[t, j - 1]), j] if active[x]]
        if f < 0 or f not in ring:
            break
        indices.append(ring.index(f))
    return tuple(indices)


def _check_against_references(scheme: RingRouting, active: np.ndarray) -> int:
    """Zoom, labels and the violation counter against the references;
    returns how many labels Claim 2.3's containment cut short before
    their last level."""
    zoom = _reference_zoom(active)
    assert np.array_equal(scheme._zoom, zoom)
    cut = 0
    for t in range(N):
        expected = _reference_label(t, zoom, active)
        assert scheme.labels[t].indices == expected, t
        stop = len(expected)
        cut += stop < LEVELS - 1 and zoom[t, stop] >= 0
    assert scheme.ivl_violations == 0
    return cut


class RingRoutingChurn(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.scheme = _fresh()
        self.active = np.ones(N, dtype=bool)

    @rule(data=st.data(), k=st.integers(1, 3))
    def leave(self, data, k):
        ids = np.flatnonzero(self.active)
        if ids.size <= k + 2:
            return
        gone = data.draw(st.lists(st.sampled_from(ids.tolist()), min_size=k,
                                  max_size=k, unique=True))
        self.scheme.apply_update(leaves=gone)
        self.active[gone] = False

    @rule(data=st.data())
    def join(self, data):
        ids = np.flatnonzero(~self.active)
        if ids.size == 0:
            return
        back = data.draw(st.lists(st.sampled_from(ids.tolist()), min_size=1,
                                  max_size=2, unique=True))
        self.scheme.apply_update(joins=back)
        self.active[back] = True

    @rule(data=st.data())
    def route(self, data):
        ids = np.flatnonzero(self.active).tolist()
        u = data.draw(st.sampled_from(ids))
        v = data.draw(st.sampled_from(ids))
        result = self.scheme.route(u, v)
        path = result.path
        assert path[0] == u
        assert all((a, b) in EDGES for a, b in zip(path, path[1:]))
        assert result.reached == (path[-1] == v)
        gone = np.flatnonzero(~self.active)
        if gone.size:
            with pytest.raises(InactiveNode):
                self.scheme.route(u, int(gone[0]))

    @rule()
    def compact(self):
        self.scheme.compact()
        ref = _fresh()
        gone = np.flatnonzero(~self.active).tolist()
        if gone:
            ref.apply_update(leaves=gone)
        ref.compact()
        assert np.array_equal(self.scheme._indptr, ref._indptr)
        assert np.array_equal(self.scheme._members, ref._members)
        assert np.array_equal(self.scheme._zoom, ref._zoom)
        assert self.scheme.labels == ref.labels

    @invariant()
    def matches_references(self):
        _check_against_references(self.scheme, self.active)


def test_ring_routing_churn_machine(monkeypatch):
    # the merge policy reads these at call time: every patch stays pending
    monkeypatch.setattr(patch_policy, "MERGE_DIRTY_FRACTION", 1.1)
    monkeypatch.setattr(patch_policy, "MERGE_STALENESS", 10**9)
    run_state_machine_as_test(
        RingRoutingChurn,
        settings=settings(max_examples=15, stateful_step_count=10, deadline=None),
    )


def test_seeded_trace_matches_references(monkeypatch):
    """A fixed trace that cuts labels short before their last level (the
    machine reaches such states only sometimes)."""
    monkeypatch.setattr(patch_policy, "MERGE_DIRTY_FRACTION", 1.1)
    monkeypatch.setattr(patch_policy, "MERGE_STALENESS", 10**9)
    scheme = _fresh()
    active = np.ones(N, dtype=bool)
    cut = 0
    for event in ChurnTrace.generate(n=N, events=12, rate=0.1, seed=2, rejoin_after=4).events:
        scheme.apply_update(joins=event.joins, leaves=event.leaves)
        active[list(event.joins)] = True
        active[list(event.leaves)] = False
        cut += _check_against_references(scheme, active)
    assert cut > 0


def test_churned_reads_are_checked(monkeypatch):
    """The machine's zero-violation invariant is not vacuous: a departure
    dirties rings that later reads check."""
    monkeypatch.setattr(patch_policy, "MERGE_DIRTY_FRACTION", 1.1)
    scheme = _fresh()
    scheme.apply_update(leaves=[int(np.setdiff1d(NETS[2], NETS[1])[0])])
    checks = scheme.ivl_checks
    assert checks > 0
    scheme.route(0, N - 1)
    assert scheme.ivl_checks > checks
    assert scheme.ivl_violations == 0
    assert scheme._patch.dirty_row_count > 0


sorted_ids = st.lists(st.integers(0, 60), unique=True, max_size=25).map(
    lambda xs: np.asarray(sorted(xs), dtype=np.int64)
)


@settings(max_examples=200, deadline=None)
@given(sorted_ids, sorted_ids)
def test_sorted_find_equals_isin(a, b):
    assert np.array_equal(_sorted_find(b, a)[1], np.isin(a, b))


@settings(max_examples=100, deadline=None)
@given(sorted_ids, st.lists(st.integers(0, 60), max_size=25))
def test_sorted_find_never_hides_a_missing_id(a, b):
    # on an unsorted haystack the search may miss ids that are there,
    # but it never reports an absent one as present
    b = np.asarray(b, dtype=np.int64)
    assert np.isin(a[_sorted_find(b, a)[1]], b).all()
