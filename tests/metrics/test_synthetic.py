"""Synthetic workload generators."""

import numpy as np
import pytest

from repro.metrics import (
    clustered_metric,
    exponential_line,
    grid_metric,
    internet_like_metric,
    random_hypercube_metric,
    ring_metric,
    uniform_line,
)


class TestHypercubeAndGrid:
    def test_hypercube_shape(self):
        m = random_hypercube_metric(50, dim=3, seed=0)
        assert m.n == 50
        assert m.dim == 3
        assert np.all(m.points >= 0) and np.all(m.points <= 1)

    def test_hypercube_deterministic(self):
        a = random_hypercube_metric(20, seed=5)
        b = random_hypercube_metric(20, seed=5)
        assert np.array_equal(a.points, b.points)

    def test_grid(self):
        m = grid_metric(4, dim=2)
        assert m.n == 16
        assert m.min_distance() == 1.0
        assert m.diameter() == pytest.approx(3 * np.sqrt(2))

    def test_grid_l1(self):
        m = grid_metric(3, dim=2, p=1.0)
        assert m.diameter() == 4.0

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            random_hypercube_metric(0)
        with pytest.raises(ValueError):
            grid_metric(0)


class TestLines:
    def test_exponential_line_aspect(self):
        m = exponential_line(20)
        assert m.aspect_ratio() == pytest.approx((2**19 - 1) / 1.0)

    def test_exponential_line_distances(self):
        m = exponential_line(5)
        assert m.distance(0, 4) == 15.0  # 16 - 1

    def test_exponential_line_overflow_guard(self):
        with pytest.raises(ValueError, match="overflow"):
            exponential_line(1200)

    @pytest.mark.parametrize("base, largest", [(2.0, 512), (1.7, 669), (3.0, 324)])
    def test_exponential_line_guard_tracks_squared_distances(self, base, largest):
        # Base 2: d(0, 512)^2 = 2^1024 overflows float64, so n = 513 must
        # be rejected rather than give inf distances from its endpoints.
        with pytest.raises(ValueError, match="overflow"):
            exponential_line(largest + 1, base=base)
        m = exponential_line(largest, base=base)
        assert np.isfinite(m.distances_from(0)).all()
        assert np.isfinite(m.distances_from(largest - 1)).all()

    def test_exponential_line_custom_base(self):
        m = exponential_line(10, base=1.5)
        assert m.distance(0, 1) == pytest.approx(0.5)

    def test_uniform_line(self):
        m = uniform_line(10, spacing=2.0)
        assert m.distance(0, 9) == 18.0
        assert m.min_distance() == 2.0

    def test_ring(self):
        m = ring_metric(8)
        # Opposite nodes are a diameter apart.
        assert m.distance(0, 4) == pytest.approx(2.0)


class TestClusteredAndInternet:
    def test_clustered(self):
        m = clustered_metric(60, clusters=4, seed=1)
        assert m.n == 60
        m.validate()

    def test_internet_like_is_metric(self):
        m = internet_like_metric(50, seed=2)
        assert m.n == 50
        m.validate(samples=400)

    def test_internet_like_symmetric_zero_diag(self):
        m = internet_like_metric(30, seed=3)
        assert np.allclose(m.matrix, m.matrix.T)
        assert np.all(np.diag(m.matrix) == 0)

    def test_internet_like_distinct_points(self):
        m = internet_like_metric(40, seed=4)
        assert m.min_distance() > 0

    def test_internet_like_deterministic(self):
        a = internet_like_metric(25, seed=9)
        b = internet_like_metric(25, seed=9)
        assert np.array_equal(a.matrix, b.matrix)
