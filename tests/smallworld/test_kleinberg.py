"""Kleinberg 2-D grid baseline [30]."""

import pytest

from repro.engine import UniformSamplePlan
from repro.smallworld import KleinbergGridModel, evaluate_model


class TestKleinbergGrid:
    def test_lattice_contacts_present(self):
        model = KleinbergGridModel(5, exponent=2.0)
        graph = model.sample_contacts(seed=0)
        # Interior node 12 = (2,2) has 4 lattice neighbors.
        interior = 2 * 5 + 2
        lattice = {interior - 5, interior + 5, interior - 1, interior + 1}
        assert lattice <= set(graph.contacts[interior])

    def test_critical_exponent_routes_fast(self):
        model = KleinbergGridModel(10, exponent=2.0, q=1)
        stats = evaluate_model(
            model, model.sample_contacts(seed=1), UniformSamplePlan(size=200, seed=1)
        )
        assert stats.completion_rate == 1.0
        assert stats.max_hops <= 40  # O(log^2 n) with small constants

    def test_wrong_exponent_slower(self):
        """One side of Kleinberg's phase transition that already shows at
        laptop scale: r=4 long links are too local to provide shortcuts,
        so greedy needs more hops than at the critical r=2.  (The r=0 side
        of the transition only separates at much larger grids; the
        benchmark sweep covers the full curve.)"""
        critical = KleinbergGridModel(12, exponent=2.0, q=1)
        fast = evaluate_model(
            critical, critical.sample_contacts(seed=2), UniformSamplePlan(size=300, seed=2)
        )
        steep = KleinbergGridModel(12, exponent=4.0, q=1)
        slow = evaluate_model(
            steep, steep.sample_contacts(seed=2), UniformSamplePlan(size=300, seed=2)
        )
        assert fast.mean_hops < slow.mean_hops

    def test_manhattan_metric(self):
        model = KleinbergGridModel(4)
        # (0,0) to (3,3) has lattice distance 6.
        assert model.metric.distance(0, 15) == pytest.approx(6.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            KleinbergGridModel(1)
        with pytest.raises(ValueError):
            KleinbergGridModel(5, q=0)
