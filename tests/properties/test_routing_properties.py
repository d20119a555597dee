"""Property-based routing tests over random doubling graphs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import knn_geometric_graph
from repro.metrics.graphmetric import ShortestPathMetric
from repro.engine import UniformSamplePlan, evaluate_routing
from repro.routing import RingRouting


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=12, max_value=40),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([0.15, 0.3, 0.45]),
)
def test_ring_routing_always_delivers_with_bounded_stretch(n, seed, delta):
    graph = knn_geometric_graph(n, k=3, seed=seed)
    metric = ShortestPathMetric(graph)
    scheme = RingRouting(graph, delta=delta, metric=metric)
    stats = evaluate_routing(scheme, metric.matrix, UniformSamplePlan(size=80, seed=seed))
    assert stats.delivery_rate == 1.0
    assert stats.max_stretch <= 1 + 4 * delta


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=10, max_value=30), st.integers(min_value=0, max_value=10**6))
def test_trivial_routing_exact_on_random_graphs(n, seed):
    from repro.routing import TrivialRouting

    graph = knn_geometric_graph(n, k=3, seed=seed)
    metric = ShortestPathMetric(graph)
    scheme = TrivialRouting(graph)
    stats = evaluate_routing(scheme, metric.matrix, UniformSamplePlan(size=60, seed=seed))
    assert stats.delivery_rate == 1.0
    assert abs(stats.max_stretch - 1.0) < 1e-9
