"""Routing on metrics (§4.1)."""

import pytest

from repro.metrics import exponential_line, random_hypercube_metric
from repro.engine import UniformSamplePlan, evaluate_routing
from repro.routing import MetricRouting, RingRouting
from repro.routing.metric_overlay import overlay_for_metric


@pytest.fixture(scope="module")
def metric48():
    return random_hypercube_metric(48, dim=2, seed=200)


class TestOverlayConstruction:
    def test_net_style_connected(self, metric48):
        overlay = overlay_for_metric(metric48, delta=0.3, style="net")
        assert overlay.is_connected()

    def test_scale_style_connected(self, metric48):
        overlay = overlay_for_metric(metric48, delta=0.3, style="scale")
        assert overlay.is_connected()

    def test_weights_are_metric_distances(self, metric48):
        overlay = overlay_for_metric(metric48, delta=0.3)
        for u, v, w in overlay.edges():
            assert w == pytest.approx(metric48.distance(u, v))

    def test_unknown_style_rejected(self, metric48):
        with pytest.raises(ValueError, match="style"):
            overlay_for_metric(metric48, delta=0.3, style="psychic")

    def test_out_degree_below_n(self, metric48):
        overlay = overlay_for_metric(metric48, delta=0.4, style="net")
        assert overlay.max_out_degree() < metric48.n


class TestMetricRouting:
    @pytest.fixture(scope="class")
    def scheme(self, metric48):
        return MetricRouting(
            metric48,
            delta=0.25,
            scheme_factory=lambda g, d: RingRouting(g, d),
            style="net",
        )

    def test_delivery_and_stretch_vs_metric(self, scheme):
        """Stretch vs the METRIC distance — the overlay path sums the
        virtual-hop distances."""
        stats = evaluate_routing(
            scheme, scheme.stretch_matrix(), UniformSamplePlan(size=300, seed=6)
        )
        assert stats.delivery_rate == 1.0
        assert stats.max_stretch <= 1 + 4 * scheme.delta

    def test_out_degree_reported(self, scheme, metric48):
        assert 0 < scheme.out_degree() < metric48.n

    def test_accounting_passthrough(self, scheme):
        assert scheme.table_bits(0).total_bits > 0
        assert scheme.label_bits(0).total_bits > 0

    def test_exponential_line_overlay(self):
        metric = exponential_line(24)
        scheme = MetricRouting(
            metric, delta=0.25, scheme_factory=lambda g, d: RingRouting(g, d)
        )
        stats = evaluate_routing(
            scheme, scheme.stretch_matrix(), UniformSamplePlan(size=150, seed=7)
        )
        assert stats.delivery_rate == 1.0
        assert stats.max_stretch <= 1 + 4 * scheme.delta
