"""Small-world driver and contact graph plumbing."""

import pytest

from repro.engine import UniformSamplePlan
from repro.metrics import uniform_line
from repro.smallworld import (
    ContactGraph,
    GreedyRingsModel,
    evaluate_model,
    route_query,
)


class TestContactGraph:
    def test_degrees(self):
        g = ContactGraph(contacts=[(1, 2), (0,), ()])
        assert g.out_degree(0) == 2
        assert g.max_out_degree() == 2
        assert g.mean_out_degree() == pytest.approx(1.0)


class TestRouteQuery:
    @pytest.fixture(scope="class")
    def setup(self):
        metric = uniform_line(16)
        model = GreedyRingsModel(metric, c=2)
        graph = model.sample_contacts(seed=0)
        return metric, model, graph

    def test_reaches_target(self, setup):
        _m, model, graph = setup
        result = route_query(model, graph, 0, 15)
        assert result.reached
        assert result.path[0] == 0 and result.path[-1] == 15

    def test_self_query(self, setup):
        _m, model, graph = setup
        result = route_query(model, graph, 4, 4)
        assert result.reached and result.hops == 0

    def test_hop_budget(self, setup):
        _m, model, graph = setup
        result = route_query(model, graph, 0, 15, max_hops=0)
        assert not result.reached or result.hops == 0

    def test_path_follows_contacts(self, setup):
        _m, model, graph = setup
        result = route_query(model, graph, 1, 14)
        for a, b in zip(result.path, result.path[1:]):
            assert b in graph.contacts[a]

    def test_greedy_monotone_progress(self, setup):
        metric, model, graph = setup
        result = route_query(model, graph, 0, 15)
        dists = [metric.distance(x, 15) for x in result.path]
        assert all(a > b for a, b in zip(dists, dists[1:]))


class TestEvaluate:
    def test_stats_consistent(self):
        metric = uniform_line(20)
        model = GreedyRingsModel(metric, c=2)
        stats = evaluate_model(
            model, model.sample_contacts(seed=1), UniformSamplePlan(size=50, seed=1)
        )
        assert stats.completed <= stats.queries
        assert stats.completion_rate == stats.completed / stats.queries
        assert len(stats.hop_counts) == stats.completed

    def test_explicit_queries(self):
        metric = uniform_line(10)
        model = GreedyRingsModel(metric, c=2)
        graph = model.sample_contacts(seed=2)
        stats = evaluate_model(model, graph, [(0, 9), (9, 0)])
        assert stats.queries == 2
