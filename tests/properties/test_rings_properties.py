"""Property-based tests: rings, estimates and routing on random instances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.labeling import BeaconTriangulation, RingTriangulation
from repro.metrics import EuclideanMetric


@st.composite
def small_metrics(draw, min_n=4, max_n=16):
    """1-d point sets snapped to a 0.1 grid (realistic aspect ratios)."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    xs = draw(
        st.lists(
            st.integers(min_value=0, max_value=10000),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return EuclideanMetric(np.array(sorted(xs), dtype=float)[:, None] * 0.1)


@settings(max_examples=15, deadline=None)
@given(small_metrics(), st.sampled_from([0.2, 0.4]))
def test_triangulation_zero_eps_on_random_lines(metric, delta):
    """Theorem 3.2's all-pairs guarantee on arbitrary 1-d metrics."""
    tri = RingTriangulation(metric, delta=delta)
    for u, v in metric.pairs():
        assert tri.has_close_common_beacon(u, v)
        d = metric.distance(u, v)
        assert d - 1e-9 <= tri.estimate(u, v) <= (1 + 2 * delta) * d + 1e-9


@settings(max_examples=20, deadline=None)
@given(small_metrics(min_n=5), st.integers(min_value=1, max_value=5))
def test_beacon_bounds_always_sandwich(metric, k):
    tri = BeaconTriangulation(metric, k=k, seed=0, mantissa_bits=16)
    # Quantization error is relative to the *beacon* distances, which can
    # be much larger than d, so the D- slack is absolute in the diameter.
    slack = 2 * tri.codec.relative_error * metric.diameter()
    for u, v in metric.pairs():
        lower, upper = tri.bounds(u, v)
        d = metric.distance(u, v)
        assert lower <= d + slack + 1e-9
        assert upper >= d - 1e-9


@settings(max_examples=10, deadline=None)
@given(small_metrics(min_n=6, max_n=12))
def test_greedy_rings_route_everything(metric):
    from repro.engine import UniformSamplePlan
    from repro.smallworld import GreedyRingsModel, evaluate_model

    model = GreedyRingsModel(metric, c=2)
    stats = evaluate_model(model, model.sample_contacts(seed=1), UniformSamplePlan(size=40, seed=1))
    assert stats.completion_rate == 1.0
