"""Routing failure handling: hop budgets, graceful non-delivery and
malformed node ids."""

import pytest

from repro import api
from repro.graphs import WeightedGraph
from repro.routing import RingRouting, TrivialRouting, evaluate_scheme
from repro.routing.base import RouteResult


class TestHopBudgets:
    def test_ring_routing_respects_budget(self, knn_graph64):
        scheme = RingRouting(knn_graph64, delta=0.3)
        result = scheme.route(0, 63, max_hops=1)
        assert result.hops <= 2  # one forward step past the budget check
        # And failure is reported, not raised.
        assert isinstance(result, RouteResult)

    def test_stats_account_failures(self, knn_graph64):
        scheme = TrivialRouting(knn_graph64)
        # Forcing a 0-hop budget fails every non-trivial pair.
        results = [scheme.route(u, v, max_hops=0) for u, v in [(0, 1), (2, 3)]]
        assert all(not r.reached for r in results)

    def test_failed_route_not_counted_as_delivered(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)

        class FailingScheme(TrivialRouting):
            def route(self, source, target, max_hops=None):
                return RouteResult(source, target, [source], reached=False)

        scheme = FailingScheme(g)
        stats = evaluate_scheme(scheme, scheme.first_hops.dist, pairs=[(0, 2)])
        assert stats.delivery_rate == 0.0
        assert stats.max_stretch == float("inf")


ROUTING_SCHEMES = [name for name, problem, _ in api.list_schemes() if problem == "routing"]


@pytest.fixture(scope="module", params=ROUTING_SCHEMES)
def routing64(request):
    return api.build(request.param, "knn-graph", n=64).inner


class TestMalformedIds:
    """A route between ids outside ``[0, n)`` or not integers is refused
    with a ValueError, never wrapped, truncated or walked."""

    @pytest.mark.parametrize(
        "source, target",
        [(0, -1), (-1, 5), (0, 64), (64, 0), (0, 1.9), (1.5, 0), (True, 1), (0, None)],
    )
    def test_route_rejects_malformed_ids(self, routing64, source, target):
        with pytest.raises(ValueError):
            routing64.route(source, target)
        assert routing64.route(0, 5).reached
