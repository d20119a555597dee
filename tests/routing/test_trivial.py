"""Trivial stretch-1 baseline."""

import pytest

from repro.engine import UniformSamplePlan, evaluate_routing
from repro.routing import TrivialRouting


@pytest.fixture(scope="module")
def scheme(knn_graph64):
    return TrivialRouting(knn_graph64)


class TestTrivialRouting:
    def test_stretch_exactly_one(self, scheme, knn_metric64):
        stats = evaluate_routing(scheme, knn_metric64.matrix, UniformSamplePlan(size=300, seed=0))
        assert stats.delivery_rate == 1.0
        assert stats.max_stretch == pytest.approx(1.0)

    def test_self_route(self, scheme):
        result = scheme.route(5, 5)
        assert result.reached
        assert result.hops == 0

    def test_table_linear_in_n(self, scheme, knn_graph64):
        bits = scheme.table_bits(0).total_bits
        assert bits >= knn_graph64.n  # at least one bit per target

    def test_label_is_id(self, scheme):
        assert scheme.label_bits(0).total_bits == 6  # ceil(log2 64)

    def test_hop_budget_respected(self, scheme):
        result = scheme.route(0, 63, max_hops=1)
        assert not result.reached or result.hops <= 1
