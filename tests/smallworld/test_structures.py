"""STRUCTURES (group structures) and the Theorem 5.4 comparison."""

import math

import numpy as np
import pytest

from repro.engine import UniformSamplePlan
from repro.metrics import uniform_line
from repro.smallworld import GreedyRingsModel, GroupStructuresModel, evaluate_model


@pytest.fixture(scope="module")
def uline64():
    return uniform_line(64)


class TestStructuresModel:
    def test_probabilities_normalized(self, uline64):
        model = GroupStructuresModel(uline64)
        pi = model.contact_probabilities(10)
        assert pi.sum() == pytest.approx(1.0)
        assert pi[10] == 0.0

    def test_probability_decays_with_ball_size(self, uline64):
        """pi_u(v) ~ 1/x_uv: nearer nodes are more likely contacts."""
        model = GroupStructuresModel(uline64)
        pi = model.contact_probabilities(0)
        assert pi[1] > pi[10] > pi[60]

    def test_degree_theta_log_squared(self, uline64):
        model = GroupStructuresModel(uline64)
        assert model.draws_per_node == math.ceil(math.log2(64) ** 2)

    def test_queries_complete(self, uline64):
        model = GroupStructuresModel(uline64)
        stats = evaluate_model(
            model, model.sample_contacts(seed=0), UniformSamplePlan(size=200, seed=0)
        )
        assert stats.completion_rate >= 0.98
        assert stats.max_hops <= 4 * math.log2(64)


class TestTheorem54Comparison:
    def test_ring_model_contact_probability_matches_structures(self, uline64):
        """Theorem 5.4(d): Pr[v is a contact of u] = Θ(log n)/x_uv for the
        ring model on UL-constrained metrics.  We check the product
        Pr * x_uv is flat within a constant factor across distances."""
        model = GreedyRingsModel(uline64, c=2)
        u = 32
        trials = 40
        counts = np.zeros(uline64.n)
        for s in range(trials):
            graph = model.sample_contacts(seed=1000 + s)
            for v in graph.contacts[u]:
                counts[v] += 1
        probs = counts / trials
        row = uline64.distances_from(u)
        products = []
        for v in (31, 28, 16, 0):  # geometric range of distances from u
            d = float(row[v])
            x_uv = min(uline64.ball_size(u, d), uline64.ball_size(v, d))
            products.append(max(probs[v], 1.0 / trials) * x_uv)
        # Flat within a generous constant factor (Theta-comparison).
        assert max(products) / min(products) <= 40.0

    def test_hops_comparable_on_ul_metric(self, uline64):
        rings = GreedyRingsModel(uline64, c=2)
        ring_stats = evaluate_model(
            rings, rings.sample_contacts(seed=3), UniformSamplePlan(size=150, seed=3)
        )
        structures = GroupStructuresModel(uline64)
        structures_stats = evaluate_model(
            structures, structures.sample_contacts(seed=3), UniformSamplePlan(size=150, seed=3)
        )
        assert ring_stats.completion_rate == 1.0
        # Both are O(log n); within a small factor of each other.
        assert ring_stats.max_hops <= 3 * max(1, structures_stats.max_hops) + 5
