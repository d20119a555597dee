"""Theorem 4.2 / B.1 two-mode routing."""

import pytest

from repro.engine import UniformSamplePlan, evaluate_routing
from repro.graphs import WeightedGraph
from repro.routing import TwoModeRouting


@pytest.fixture(scope="module")
def small_scheme(knn_graph64, knn_metric64):
    return TwoModeRouting(knn_graph64, delta=0.2, metric=knn_metric64)


@pytest.fixture(scope="module")
def gap_graph():
    """Path with exponentially growing weights: SP metric = exponential
    line, the scheme's target regime (aspect ratio 2^n)."""
    n = 40
    g = WeightedGraph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1, 2.0**i)
    return g


@pytest.fixture(scope="module")
def gap_scheme(gap_graph):
    return TwoModeRouting(gap_graph, delta=0.2)


class TestDelivery:
    def test_all_delivered_doubling_graph(self, small_scheme, knn_metric64):
        stats = evaluate_routing(
            small_scheme, knn_metric64.matrix, UniformSamplePlan(size=300, seed=4)
        )
        assert stats.delivery_rate == 1.0
        assert stats.max_stretch <= 1 + 5 * small_scheme.delta

    def test_all_delivered_gap_graph(self, gap_scheme):
        stats = evaluate_routing(
            gap_scheme, gap_scheme.metric.matrix, UniformSamplePlan(size=300, seed=4)
        )
        assert stats.delivery_rate == 1.0
        assert stats.max_stretch <= 1 + 5 * gap_scheme.delta

    def test_mode2_engages_on_gap_metric(self, gap_scheme, gap_graph):
        """Lemma B.5's regime: scale gaps force mode M2."""
        switches = sum(
            gap_scheme.route(u, v).mode_switches
            for u in range(0, gap_graph.n, 5)
            for v in range(gap_graph.n)
            if u != v
        )
        assert switches > 0

    def test_self_route(self, small_scheme):
        result = small_scheme.route(8, 8)
        assert result.reached and result.hops == 0

    def test_strict_goodness_still_delivers(self, knn_graph64, knn_metric64):
        """With the literal Appendix-B constants M1 rarely fires but M2
        keeps the scheme correct."""
        scheme = TwoModeRouting(
            knn_graph64, delta=0.2, metric=knn_metric64, strict_goodness=True
        )
        stats = evaluate_routing(scheme, knn_metric64.matrix, UniformSamplePlan(size=100, seed=5))
        assert stats.delivery_rate == 1.0


class TestMode2Structure:
    def test_anchor_covers_node(self, small_scheme, knn_metric64):
        """The anchor ball satisfies Lemma A.1's 6 r_ui reach bound."""
        for u in (0, 30, 63):
            for i in range(1, small_scheme._levels_n):
                anchor = small_scheme._anchor[u][i]
                if anchor is None:
                    continue
                _i, b_idx, h = anchor
                ball = small_scheme.scales.packings[i].balls[b_idx]
                reach = knn_metric64.distance(u, h) + ball.radius
                assert reach <= 6.0 * knn_metric64.radius_for_fraction(u, 2.0**-i) + 1e-9

    def test_directory_covers_b_prime(self, small_scheme, knn_metric64):
        """Every node of B' = B(h, r_{h,i-1}) has an owner in the ball."""
        for (i, b_idx), owner in list(small_scheme._m2_owner.items())[:5]:
            ball = small_scheme.scales.packings[i].balls[b_idx]
            h = ball.center
            b_prime = knn_metric64.ball(h, small_scheme.scales.rui(h, i - 1))
            members = set(ball.members)
            for t in b_prime:
                assert int(t) in owner
                assert owner[int(t)] in members

    def test_level1_directory_is_global(self, small_scheme, knn_graph64):
        """At i=1 the stored routes cover every node (the fallback that
        guarantees delivery)."""
        for u in (0, 33):
            anchor = small_scheme._anchor[u][1]
            assert anchor is not None
            owner = small_scheme._m2_owner[(1, anchor[1])]
            assert len(owner) == knn_graph64.n


class TestAccounting:
    def test_table_has_both_modes(self, small_scheme):
        account = small_scheme.table_bits(0)
        assert any(k.startswith("m1_") for k in account.components)
        assert any(k.startswith("m2_") for k in account.components)

    def test_label_has_friends(self, small_scheme):
        account = small_scheme.label_bits(0)
        assert "friends_and_id" in account.components

    def test_rejects_bad_delta(self, knn_graph64, knn_metric64):
        with pytest.raises(ValueError):
            TwoModeRouting(knn_graph64, delta=0.9, metric=knn_metric64)
