"""Theorem 4.1 label-based routing."""

import pytest

from repro.engine import UniformSamplePlan, evaluate_routing
from repro.routing import LabelRouting


@pytest.fixture(scope="module")
def exact_scheme(knn_graph64, knn_metric64):
    return LabelRouting(knn_graph64, delta=0.3, estimator="exact", metric=knn_metric64)


@pytest.fixture(scope="module")
def tri_scheme(knn_graph64, knn_metric64):
    return LabelRouting(
        knn_graph64, delta=0.3, estimator="triangulation", metric=knn_metric64
    )


class TestDelivery:
    @pytest.mark.parametrize("fixture", ["exact_scheme", "tri_scheme"])
    def test_all_delivered_with_bounded_stretch(
        self, fixture, request, knn_metric64
    ):
        scheme = request.getfixturevalue(fixture)
        stats = evaluate_routing(scheme, knn_metric64.matrix, UniformSamplePlan(size=400, seed=3))
        assert stats.delivery_rate == 1.0
        # 1 + O(delta) with the labels' extra (1+delta') estimate slack.
        assert stats.max_stretch <= 1 + 6 * scheme.delta

    def test_self_route(self, exact_scheme):
        result = exact_scheme.route(4, 4)
        assert result.reached and result.hops == 0

    def test_ring_estimator_builds(self, knn_graph64, knn_metric64):
        scheme = LabelRouting(
            knn_graph64, delta=0.3, estimator="ring", metric=knn_metric64
        )
        result = scheme.route(0, 32)
        assert result.reached

    def test_unknown_estimator_rejected(self, knn_graph64, knn_metric64):
        with pytest.raises(ValueError, match="estimator"):
            LabelRouting(knn_graph64, delta=0.3, estimator="psychic", metric=knn_metric64)


class TestNeighbors:
    def test_neighbor_sets_cover_scales(self, exact_scheme, knn_metric64):
        """Every node has some neighbor within distance ~delta*d of any
        target (the theorem's per-pair claim), verified by routing
        progress: the selected intermediate target is near t."""
        for u, t in [(0, 63), (10, 55)]:
            v = exact_scheme._select_intermediate(u, t)
            d = knn_metric64.distance(u, t)
            assert knn_metric64.distance(v, t) <= 1.5 * exact_scheme.delta * d + 1e-9

    def test_neighbors_exclude_self(self, exact_scheme):
        for u in (0, 30):
            assert u not in exact_scheme.neighbors_of(u)

    def test_out_degree_reported(self, exact_scheme, knn_graph64):
        assert 0 < exact_scheme.max_out_degree() < knn_graph64.n


class TestAccounting:
    def test_header_includes_label(self, tri_scheme):
        result = tri_scheme.route(0, 1)
        assert result.header_bits >= tri_scheme._label_payload_bits

    def test_table_dominated_by_labels(self, tri_scheme):
        account = tri_scheme.table_bits(0)
        assert account.components["neighbor_labels"] >= account.components[
            "first_hop_pointers"
        ]

    def test_label_bits(self, tri_scheme):
        account = tri_scheme.label_bits(0)
        assert "distance_label" in account.components
