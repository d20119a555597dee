"""Theorem 5.2(a), 5.2(b) and 5.5 models."""

import math

import numpy as np
import pytest

from repro.engine import UniformSamplePlan
from repro.graphs import grid_graph
from repro.metrics import exponential_line, random_hypercube_metric
from repro.metrics.graphmetric import ShortestPathMetric
from repro.smallworld import (
    GreedyRingsModel,
    PrunedRingsModel,
    SingleLinkModel,
    evaluate_model,
)


@pytest.fixture(scope="module")
def expline64():
    return exponential_line(64)


class TestGreedyRings:
    def test_olog_n_hops_on_exponential_line(self, expline64):
        """Theorem 5.2(a)'s headline: O(log n) hops when Δ = 2^n."""
        model = GreedyRingsModel(expline64, c=2)
        stats = evaluate_model(
            model, model.sample_contacts(seed=0), UniformSamplePlan(size=300, seed=0)
        )
        assert stats.completion_rate == 1.0
        assert stats.max_hops <= 3 * math.log2(64)

    def test_olog_n_hops_on_hypercube(self):
        metric = random_hypercube_metric(128, dim=2, seed=11)
        model = GreedyRingsModel(metric, c=2)
        stats = evaluate_model(
            model, model.sample_contacts(seed=1), UniformSamplePlan(size=300, seed=1)
        )
        assert stats.completion_rate == 1.0
        assert stats.max_hops <= 3 * math.log2(128)

    def test_contacts_deterministic_per_seed(self, expline64):
        model = GreedyRingsModel(expline64, c=1)
        a = model.sample_contacts(seed=5)
        b = model.sample_contacts(seed=5)
        assert a.contacts == b.contacts

    def test_no_self_contacts(self, expline64):
        model = GreedyRingsModel(expline64, c=1)
        graph = model.sample_contacts(seed=0)
        for u, contacts in enumerate(graph.contacts):
            assert u not in contacts

    def test_sample_counts(self, expline64):
        model = GreedyRingsModel(expline64, c=3)
        assert model.x_samples == math.ceil(3 * math.log2(64))
        assert model.y_samples == math.ceil(2 * 3 * math.log2(64))


class TestPrunedRings:
    def test_completes_on_exponential_line(self, expline64):
        model = PrunedRingsModel(expline64, c=2)
        stats = evaluate_model(
            model, model.sample_contacts(seed=2), UniformSamplePlan(size=300, seed=2)
        )
        assert stats.completion_rate >= 0.99
        assert stats.max_hops <= 4 * math.log2(64)

    def test_nongreedy_step_sideways(self, expline64):
        """Step (**): with no contact within d/4 of the target, the hop
        maximizes d_uc subject to d_uc <= d_ut."""
        model = PrunedRingsModel(expline64, c=2)
        contacts = [10, 11, 12]
        d_uc = np.array([1.0, 5.0, 50.0])
        d_ct = np.array([30.0, 30.0, 30.0])  # nobody within d/4 = 10
        hop = model.next_hop(0, 40.0, contacts, d_uc, d_ct)
        assert hop == 11  # 50 > d_ut=40 excluded; 5 is the farthest <= 40

    def test_greedy_step_when_close_contact(self, expline64):
        model = PrunedRingsModel(expline64, c=2)
        contacts = [10, 11]
        d_uc = np.array([1.0, 2.0])
        d_ct = np.array([9.0, 2.0])  # 2 <= d/4 = 10
        assert model.next_hop(0, 40.0, contacts, d_uc, d_ct) == 11

    def test_rho_sequence_grows(self, expline64):
        model = PrunedRingsModel(expline64)
        rhos = [model._rho(j) for j in range(5)]
        assert all(a < b for a, b in zip(rhos, rhos[1:]))

    def test_pruned_y_scales_sandwiched(self, expline64):
        model = PrunedRingsModel(expline64)
        for u in (0, 32):
            for i in (1, 3):
                r_ui = expline64.rui(u, i)
                r_up = expline64.rui(u, i + 1)
                r_down = expline64.rui(u, i - 1)
                for j in model._y_scale_indices(u, i):
                    assert r_up < r_ui * 2.0**j < r_down


class TestDegreeComparison:
    def test_pruned_degree_not_larger(self):
        """The 5.2(b) pruning should not increase the ring out-degree
        budget on metrics with many distance scales relative to n."""
        metric = exponential_line(96)
        greedy = GreedyRingsModel(metric, c=1, alpha_factor=1.0)
        pruned = PrunedRingsModel(metric, c=1, alpha_factor=1.0)
        g_deg = greedy.sample_contacts(seed=3).mean_out_degree()
        p_deg = pruned.sample_contacts(seed=3).mean_out_degree()
        assert p_deg <= g_deg * 1.25


class TestSingleLink:
    @pytest.fixture(scope="class")
    def setup(self):
        graph = grid_graph(8)
        metric = ShortestPathMetric(graph)
        return graph, metric

    def test_completes_with_polylog_delta_hops(self, setup):
        graph, metric = setup
        model = SingleLinkModel(metric, graph)
        stats = evaluate_model(
            model, model.sample_contacts(seed=4), UniformSamplePlan(size=200, seed=4)
        )
        assert stats.completion_rate == 1.0
        # 2^O(alpha) log^2 Delta with Delta = 14: generous constant.
        log_delta = math.log2(metric.aspect_ratio())
        assert stats.max_hops <= 8 * log_delta**2

    def test_exactly_one_long_link(self, setup):
        graph, metric = setup
        model = SingleLinkModel(metric, graph)
        contacts = model.sample_contacts(seed=5)
        for u in range(graph.n):
            local = {v for v, _ in graph.neighbors(u)}
            extra = set(contacts.contacts[u]) - local
            assert len(extra) <= 1

    def test_node_count_mismatch_rejected(self, setup):
        graph, metric = setup
        other = grid_graph(3)
        with pytest.raises(ValueError):
            SingleLinkModel(metric, other)
