"""Dijkstra, first-hop pointers and shortest-path trees."""

import numpy as np
import pytest

from repro.graphs import (
    FirstHopTable,
    WeightedGraph,
    all_pairs_shortest_paths,
    shortest_path_tree,
)
from repro.graphs.generators import (
    grid_graph,
    internet_like_graph,
    knn_geometric_graph,
    ring_with_chords_graph,
)


@pytest.fixture(scope="module")
def table(knn_graph64):
    return FirstHopTable(knn_graph64)


class TestAPSP:
    def test_matches_manual(self):
        g = WeightedGraph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 3, 1.0)
        g.add_edge(0, 3, 10.0)
        d = all_pairs_shortest_paths(g)
        assert d[0, 3] == 3.0
        assert d[0, 2] == 2.0

    def test_symmetric(self, knn_graph64):
        d = all_pairs_shortest_paths(knn_graph64)
        assert np.allclose(d, d.T)


class TestFirstHops:
    def test_first_hop_is_neighbor(self, table, knn_graph64):
        for u in (0, 10, 50):
            for t in (5, 33, 63):
                if u == t:
                    continue
                hop = table.first_hop(u, t)
                assert knn_graph64.has_edge(u, hop)

    def test_self_hop(self, table):
        assert table.first_hop(7, 7) == 7
        assert table.first_hop_link(7, 7) is None

    def test_trace_path_is_shortest(self, table):
        for u, t in [(0, 63), (5, 40), (31, 2)]:
            path = table.trace_path(u, t)
            length = sum(
                table.graph.weight(path[i], path[i + 1])
                for i in range(len(path) - 1)
            )
            assert length == pytest.approx(table.distance(u, t))

    def test_trace_path_endpoints(self, table):
        path = table.trace_path(3, 44)
        assert path[0] == 3 and path[-1] == 44

    def test_path_hops(self, table):
        assert table.path_hops(9, 9) == 0
        assert table.path_hops(0, 63) == len(table.trace_path(0, 63)) - 1

    def test_consistency_along_path(self, table):
        """Claim 2.4(c)'s requirement: hops chain into one shortest path."""
        for u, t in [(0, 63), (17, 42)]:
            path = table.trace_path(u, t)
            for i, v in enumerate(path[:-1]):
                assert table.first_hop(v, t) == path[i + 1]

    def test_first_hop_link_roundtrip(self, table, knn_graph64):
        u, t = 0, 50
        link = table.first_hop_link(u, t)
        assert knn_graph64.link_target(u, link) == table.first_hop(u, t)

    def test_disconnected_raises(self):
        g = WeightedGraph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        with pytest.raises(ValueError, match="connected"):
            FirstHopTable(g)


#: graphs with many equal-length shortest paths first (unit weights), then
#: weighted and mixed ones
HOP_GRAPHS = {
    "grid-20x20": lambda: grid_graph(20),
    "grid-8x8x8": lambda: grid_graph(8, dim=3),
    "ring-200": lambda: ring_with_chords_graph(200),
    "internet-300": lambda: internet_like_graph(300, seed=0),
    "knn-300": lambda: knn_geometric_graph(300, seed=0),
    "ring-300-chords-60": lambda: ring_with_chords_graph(300, chords=60, seed=0),
}


@pytest.mark.parametrize("name", sorted(HOP_GRAPHS))
def test_lazy_first_hops_equal_undirected_predecessors(name):
    """Every lazy first hop is u's parent in t's ``directed=False``
    shortest-path tree, ties included: a lazy row is computed as a
    directed search over the symmetric CSR and must break ties the same
    way.  A cached row holds one int32 hop per node."""
    from scipy.sparse.csgraph import dijkstra

    graph = HOP_GRAPHS[name]()
    n = graph.n
    _, pred = dijkstra(graph.to_scipy_csr(), directed=False, return_predecessors=True)
    table = FirstHopTable(graph, dense=False, row_cache_bytes=4 * n)
    for t in range(n):
        hops = [table.first_hop(u, t) for u in range(n)]
        expected = pred[t].copy()
        expected[t] = t
        assert hops == expected.tolist()
    row = table._rows.get(n - 1)
    assert row.dtype == np.int32 and row.shape == (n,)


class TestShortestPathTree:
    def test_parents_point_toward_root(self, knn_graph64):
        parent = shortest_path_tree(knn_graph64, root=0)
        table = FirstHopTable(knn_graph64)
        assert parent[0] == 0
        for v, p in parent.items():
            if v == 0:
                continue
            # Parent is one edge closer to the root.
            assert table.distance(0, p) + knn_graph64.weight(p, v) == pytest.approx(
                table.distance(0, v)
            )

    def test_restricted_to_members(self, grid_graph5):
        members = np.array([0, 1, 2, 5, 6, 7])
        parent = shortest_path_tree(grid_graph5, root=0, members=members)
        assert set(parent) <= set(int(x) for x in members)

    def test_root_must_be_member(self, grid_graph5):
        with pytest.raises(ValueError, match="root"):
            shortest_path_tree(grid_graph5, root=20, members=np.array([0, 1]))
