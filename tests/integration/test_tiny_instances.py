"""Every construction on degenerate/tiny inputs (n=2, n=3, collinear).

The theory's constants assume n large; the code must still behave
sensibly at the smallest sizes.
"""

import numpy as np
import pytest

from repro.engine import UniformSamplePlan
from repro.graphs import WeightedGraph
from repro.labeling import BeaconTriangulation, RingDLS, RingTriangulation
from repro.metrics import (
    EuclideanMetric,
    doubling_measure,
    eps_mu_packing,
    greedy_net,
    uniform_line,
)
from repro.routing import RingRouting, TrivialRouting, TwoModeRouting
from repro.smallworld import GreedyRingsModel, evaluate_model


@pytest.fixture(scope="module")
def pair_metric():
    return uniform_line(2)


@pytest.fixture(scope="module")
def triple_metric():
    return EuclideanMetric(np.array([0.0, 1.0, 10.0])[:, None])


class TestTinyMetrics:
    def test_substrates_on_two_nodes(self, pair_metric):
        assert greedy_net(pair_metric, 0.5) == [0, 1]
        mu = doubling_measure(pair_metric)
        assert mu.weights.sum() == pytest.approx(1.0)
        packing = eps_mu_packing(pair_metric, 0.5)
        assert packing.verify_disjoint()

    def test_triangulation_on_two_nodes(self, pair_metric):
        tri = RingTriangulation(pair_metric, delta=0.3)
        assert tri.has_close_common_beacon(0, 1)
        assert tri.estimate(0, 1) >= 1.0 - 1e-12

    def test_dls_on_two_nodes(self, pair_metric):
        dls = RingDLS(pair_metric, delta=0.3)
        est = dls.estimate(0, 1)
        assert 1.0 - 1e-9 <= est <= 2.0

    def test_dls_on_three_nodes(self, triple_metric):
        dls = RingDLS(triple_metric, delta=0.3)
        for u, v in triple_metric.pairs():
            d = triple_metric.distance(u, v)
            assert d - 1e-9 <= dls.estimate(u, v) <= 2.0 * d

    def test_beacons_on_three_nodes(self, triple_metric):
        tri = BeaconTriangulation(triple_metric, k=2, seed=0)
        assert tri.estimate(0, 2) >= 10.0 - 1e-6

    def test_smallworld_on_three_nodes(self, triple_metric):
        model = GreedyRingsModel(triple_metric, c=2)
        stats = evaluate_model(
            model, model.sample_contacts(seed=0), UniformSamplePlan(size=20, seed=0)
        )
        assert stats.completion_rate == 1.0


class TestTinyGraphs:
    @pytest.fixture(scope="class")
    def edge_graph(self):
        g = WeightedGraph(2)
        g.add_edge(0, 1, 3.0)
        return g

    def test_trivial_on_edge(self, edge_graph):
        scheme = TrivialRouting(edge_graph)
        assert scheme.route(0, 1).reached

    def test_ring_routing_on_edge(self, edge_graph):
        scheme = RingRouting(edge_graph, delta=0.3)
        result = scheme.route(0, 1)
        assert result.reached
        assert result.length(edge_graph) == 3.0

    def test_twomode_on_triangle(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(0, 2, 1.5)
        scheme = TwoModeRouting(g, delta=0.3)
        for u in range(3):
            for v in range(3):
                if u != v:
                    assert scheme.route(u, v).reached

    def test_single_node_metric_queries(self):
        m = uniform_line(1)
        assert m.diameter() == 1.0  # degenerate convention
        assert m.radius_for_count(0, 1) == 0.0
