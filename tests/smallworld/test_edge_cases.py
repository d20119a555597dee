"""Small-world edge cases and cross-model consistency."""

import numpy as np
import pytest

from repro.metrics import uniform_line
from repro.smallworld import (
    ContactGraph,
    GreedyRingsModel,
    GroupStructuresModel,
    PrunedRingsModel,
    evaluate_model,
    route_query,
)


class TestEdgeCases:
    def test_query_to_nearest_neighbor(self):
        metric = uniform_line(32)
        model = GreedyRingsModel(metric, c=2)
        graph = model.sample_contacts(seed=0)
        for u in (0, 15, 31):
            t = metric.nearest_neighbor(u)
            result = route_query(model, graph, u, t)
            assert result.reached
            assert result.hops <= 3

    def test_empty_contact_graph_stalls_gracefully(self):
        metric = uniform_line(8)
        model = GreedyRingsModel(metric, c=1)
        empty = ContactGraph(contacts=[() for _ in range(8)])
        result = route_query(model, empty, 0, 7)
        assert not result.reached
        assert result.path == [0]

    def test_two_node_metric(self):
        metric = uniform_line(2)
        for model in (
            GreedyRingsModel(metric, c=1),
            PrunedRingsModel(metric, c=1),
            GroupStructuresModel(metric),
        ):
            graph = model.sample_contacts(seed=1)
            result = route_query(model, graph, 0, 1)
            assert result.reached
            assert result.hops == 1

    def test_contact_sampling_independent_of_query_order(self):
        metric = uniform_line(24)
        model = GreedyRingsModel(metric, c=2)
        graph = model.sample_contacts(seed=9)
        a = route_query(model, graph, 0, 23)
        _b = route_query(model, graph, 5, 9)
        c = route_query(model, graph, 0, 23)
        assert a.path == c.path

    def test_evaluate_with_zero_completions(self):
        metric = uniform_line(8)
        model = GreedyRingsModel(metric, c=1)
        empty = ContactGraph(contacts=[() for _ in range(8)])
        stats = evaluate_model(model, empty, [(0, 7)])
        assert stats.completed == 0
        assert stats.mean_hops == float("inf")
        assert stats.max_hops == 0


class TestDegreeBudgets:
    def test_sample_budget_formulas(self):
        """Out-degree budgets (before dedup) follow the paper's formulas."""
        metric = uniform_line(64)
        greedy = GreedyRingsModel(metric, c=3, alpha_factor=2.0)
        # X: L_n rings * c log n samples; Y: log-Delta rings * 2c alpha log n.
        assert greedy.x_samples == 18  # ceil(3 * 6)
        assert greedy.y_samples == 36  # ceil(2 * 3 * 6)

    def test_pruned_x_param(self):
        metric = uniform_line(64)
        pruned = PrunedRingsModel(metric, c=1)
        assert pruned.x_param == pytest.approx(
            np.sqrt(np.log2(metric.aspect_ratio()))
        )
