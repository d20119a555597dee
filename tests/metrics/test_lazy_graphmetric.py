"""The lazy shortest-path backend matches the dense matrix row-for-row.

``dense=False`` must be a pure memory/scheduling decision: every query
answers with exactly the floats the dense APSP matrix holds, even when
the row cache is squeezed to a single resident row — and the full matrix
must never be materialized.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import knn_geometric_graph
from repro.graphs.shortest_paths import FirstHopTable
from repro.metrics.graphmetric import ShortestPathMetric


@pytest.fixture(scope="module")
def graph():
    return knn_geometric_graph(60, k=4, seed=9)


@pytest.fixture(scope="module")
def dense(graph):
    return ShortestPathMetric(graph, dense=True)


@pytest.fixture(scope="module")
def lazy(graph):
    # One row is 480 bytes; this budget keeps at most one resident row,
    # so every access pattern below survives constant eviction.
    return ShortestPathMetric(graph, dense=False, row_cache_bytes=500)


class TestLazyBackend:
    def test_rows_match_bit_for_bit(self, dense, lazy):
        for u in range(dense.n):
            assert np.array_equal(lazy.distances_from(u), dense.matrix[u])

    def test_distances_between_matches(self, dense, lazy):
        rng = np.random.default_rng(0)
        us = rng.integers(0, dense.n, size=17)
        vs = rng.integers(0, dense.n, size=5)
        # vs smaller than us: exercises the symmetric (transposed) path.
        assert np.array_equal(
            lazy.distances_between(us, vs), dense.distances_between(us, vs)
        )
        assert np.array_equal(
            lazy.distances_between(vs, us), dense.distances_between(vs, us)
        )

    def test_pairwise_matches(self, dense, lazy):
        rng = np.random.default_rng(1)
        pairs = rng.integers(0, dense.n, size=(40, 2))
        assert np.array_equal(lazy.pairwise(pairs), dense.pairwise(pairs))

    def test_sorted_row_queries_match(self, dense, lazy):
        for u in (0, 7, 31):
            for eps in (0.1, 0.5, 1.0):
                assert lazy.radius_for_fraction(u, eps) == pytest.approx(
                    dense.radius_for_fraction(u, eps), abs=0
                )
            assert lazy.ball_size(u, dense.diameter() / 3) == dense.ball_size(
                u, dense.diameter() / 3
            )

    def test_matrix_is_never_materialized(self, lazy):
        with pytest.raises(RuntimeError, match="lazy"):
            _ = lazy.matrix

    def test_rows_within_caps_beyond_radius(self, dense, lazy):
        radius = dense.diameter() / 4.0
        us = np.arange(0, dense.n, 7)
        capped = lazy.rows_within(us, radius)
        exact = dense.matrix[us]
        near = exact <= radius
        assert np.array_equal(capped[near], exact[near])
        assert np.all(capped[~near] > radius)
        # Dense backend offers the same contract.
        dense_capped = dense.rows_within(us, radius)
        assert np.array_equal(dense_capped[near], exact[near])
        assert np.all(np.isinf(dense_capped[~near]))

    def test_cache_stats_track_peaks(self, graph):
        metric = ShortestPathMetric(graph, dense=False, row_cache_bytes=500)
        for u in range(10):
            metric.distances_from(u)
        stats = metric.row_cache_stats()
        assert stats["rows"] == 1  # budget holds a single row
        assert stats["peak_rows"] == 1
        assert stats["misses"] >= 10

    def test_cache_budget_threads_to_first_hops(self, graph):
        """The workload's cache_mb budget governs every per-row cache the
        schemes build over the same graph, not just the metric's."""
        from repro import api

        wl = api.build_workload(
            "knn-graph", n=48, seed=3, dense=False, cache_mb=1,
            cache=api.BuildCache(),
        )
        assert wl.metric.row_cache_budget == 1024 * 1024
        fitted = api.build("route-trivial", workload=wl, seed=3)
        table = fitted.inner.first_hops
        assert not table.dense
        assert table._rows.budget_bytes == 1024 * 1024

    def test_lazy_extremes_match_dense(self, graph, dense, lazy):
        assert lazy.min_distance() == dense.min_distance()
        assert lazy.diameter() == dense.diameter()
        assert lazy.log_aspect_ratio() == dense.log_aspect_ratio()

    def test_disconnected_graph_rejected(self):
        from repro.graphs.graph import WeightedGraph

        g = WeightedGraph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        with pytest.raises(ValueError, match="not connected"):
            ShortestPathMetric(g, dense=False)

    def test_cached_rows_keep_alive_only_what_the_budget_counts(self):
        # One 400-row block: each cached row must hold its own bytes, not
        # a view that keeps the whole multi-source Dijkstra block alive.
        n, budget = 400, 512 * 1024
        metric = ShortestPathMetric(knn_geometric_graph(n, k=4, seed=0),
                                    dense=False, row_cache_bytes=budget)
        metric.distances_between(np.arange(n), np.arange(n))
        cache = metric._rows
        alive = {}
        for row in cache._rows.values():
            owner = row if row.base is None else row.base
            alive[id(owner)] = owner.nbytes
        assert len(cache) > 1
        assert sum(alive.values()) == cache.nbytes
        assert cache.nbytes <= budget + n * 8


class TestLazyFirstHops:
    def test_hops_trace_exact_shortest_paths(self, graph, dense):
        table = FirstHopTable(graph, dense=False, row_cache_bytes=4096)
        rng = np.random.default_rng(2)
        for u, t in rng.integers(0, graph.n, size=(50, 2)):
            u, t = int(u), int(t)
            path = table.trace_path(u, t)
            assert path[0] == u and path[-1] == t
            length = sum(
                graph.weight(path[i], path[i + 1]) for i in range(len(path) - 1)
            )
            assert length == pytest.approx(dense.matrix[u, t], rel=1e-12)

    def test_distance_matches_dense(self, graph, dense):
        table = FirstHopTable(graph, dense=False)
        dense_table = FirstHopTable(graph, dense=True)
        for u, t in ((0, 5), (13, 2), (7, 7)):
            assert table.distance(u, t) == dense_table.distance(u, t)

    def test_self_hop_is_self(self, graph):
        table = FirstHopTable(graph, dense=False)
        assert table.first_hop(4, 4) == 4

    def test_first_hop_is_a_neighbor(self, graph):
        table = FirstHopTable(graph, dense=False)
        hop = table.first_hop(0, graph.n - 1)
        assert graph.has_edge(0, hop)
