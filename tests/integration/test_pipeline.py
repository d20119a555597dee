"""Cross-module integration: the Figure-1 idea-flow realized in code.

The paper's Figure 1 shows how results feed each other: rings -> Thm 2.1
-> Thm 3.2 -> Thm 3.4 -> Thm 4.1/4.2, and rings -> Thm 5.1.  These tests
exercise each arrow end to end on one shared workload.
"""

import pytest

from repro.engine import UniformSamplePlan, evaluate_routing
from repro.graphs import knn_geometric_graph
from repro.labeling import RingDLS, RingTriangulation, TriangulationDLS
from repro.labeling._scales import ScaleStructure
from repro.metrics.graphmetric import ShortestPathMetric
from repro.routing import (
    LabelRouting,
    RingRouting,
    TrivialRouting,
    TwoModeRouting,
)


@pytest.fixture(scope="module")
def workload():
    graph = knn_geometric_graph(48, k=4, seed=77)
    metric = ShortestPathMetric(graph)
    return graph, metric


@pytest.fixture(scope="module")
def shared_scales(workload):
    _graph, metric = workload
    return ScaleStructure(metric, delta=0.3)


class TestSharedScaleStructure:
    def test_triangulation_and_dls_share_scales(self, workload, shared_scales):
        """Thm 3.2 and Thm 3.4 built on the same ScaleStructure agree on
        neighbor sets, and their estimates are consistent (3.4's D+ can
        only use a subset of 3.2's common neighbors)."""
        _graph, metric = workload
        tri = RingTriangulation(metric, delta=0.3, scales=shared_scales)
        dls = RingDLS(metric, delta=0.3, scales=shared_scales)
        slack = 1 + 2 * dls.codec.relative_error
        for u, v in [(0, 47), (3, 30), (11, 12)]:
            assert dls.estimate(u, v) >= tri.estimate(u, v) / slack - 1e-9

    def test_all_schemes_deliver_on_same_graph(self, workload):
        _graph, metric = workload
        graph = metric.graph
        schemes = [
            TrivialRouting(graph),
            RingRouting(graph, delta=0.3, metric=metric),
            LabelRouting(graph, delta=0.3, estimator="exact", metric=metric),
            TwoModeRouting(graph, delta=0.3, metric=metric),
        ]
        for scheme in schemes:
            stats = evaluate_routing(scheme, metric.matrix, UniformSamplePlan(size=150, seed=8))
            assert stats.delivery_rate == 1.0, type(scheme).__name__
            assert stats.max_stretch <= 1 + 6 * 0.3, type(scheme).__name__

    def test_stretch_ordering(self, workload):
        """Trivial routing is exact; compact schemes trade stretch for
        table size."""
        _graph, metric = workload
        graph = metric.graph
        trivial = evaluate_routing(
            TrivialRouting(graph), metric.matrix, UniformSamplePlan(size=100, seed=9)
        )
        ring = evaluate_routing(
            RingRouting(graph, delta=0.3, metric=metric),
            metric.matrix,
            UniformSamplePlan(size=100, seed=9),
        )
        assert trivial.max_stretch == pytest.approx(1.0)
        assert ring.max_stretch >= trivial.max_stretch - 1e-12


class TestLabelingIntoRouting:
    def test_theorem_4_1_uses_theorem_3_2_labels(self, workload):
        """The Fig-1 'black box' arrow: Thm 3.4/3.2 labels drive Thm 4.1."""
        _graph, metric = workload
        scheme = LabelRouting(
            metric.graph, delta=0.3, estimator="triangulation", metric=metric
        )
        stats = evaluate_routing(scheme, metric.matrix, UniformSamplePlan(size=150, seed=10))
        assert stats.delivery_rate == 1.0

    def test_dls_estimates_feed_header_sizes(self, workload):
        _graph, metric = workload
        scheme = LabelRouting(
            metric.graph, delta=0.3, estimator="triangulation", metric=metric
        )
        tri = RingTriangulation(metric, delta=0.45)
        dls = TriangulationDLS(tri)
        # Header carries one label: consistent order of magnitude.
        assert scheme._label_payload_bits <= dls.max_label_bits() * 4
