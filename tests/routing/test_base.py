"""RouteResult / evaluate_routing plumbing."""

import numpy as np
import pytest

from repro.graphs import WeightedGraph
from repro.engine import AllPairsPlan, evaluate_routing
from repro.routing import TrivialRouting
from repro.routing.base import RouteResult


@pytest.fixture
def path_graph():
    g = WeightedGraph(4)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 2.0)
    g.add_edge(2, 3, 4.0)
    return g


class TestRouteResult:
    def test_hops_and_length(self, path_graph):
        result = RouteResult(source=0, target=3, path=[0, 1, 2, 3], reached=True)
        assert result.hops == 3
        assert result.length(path_graph) == 7.0

    def test_zero_hop(self, path_graph):
        result = RouteResult(source=0, target=0, path=[0], reached=True)
        assert result.hops == 0
        assert result.length(path_graph) == 0.0


class TestEvaluate:
    def test_explicit_pairs(self, path_graph):
        scheme = TrivialRouting(path_graph)
        dist = np.array(
            [
                [0, 1, 3, 7],
                [1, 0, 2, 6],
                [3, 2, 0, 4],
                [7, 6, 4, 0],
            ],
            dtype=float,
        )
        stats = evaluate_routing(scheme, dist, [(0, 3), (3, 0)])
        assert stats.pairs == 2
        assert stats.delivery_rate == 1.0
        assert stats.max_stretch == pytest.approx(1.0)

    def test_stats_fields(self, path_graph):
        scheme = TrivialRouting(path_graph)
        stats = evaluate_routing(scheme, scheme.first_hops.dist, AllPairsPlan())
        assert stats.max_hops >= 1
        assert stats.mean_stretch >= 1.0 - 1e-12
        assert stats.max_table_bits == scheme.max_table_bits()
        assert len(stats.stretches) == stats.delivered
