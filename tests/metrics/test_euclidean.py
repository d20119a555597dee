"""EuclideanMetric under different l_p norms."""

import numpy as np
import pytest

from repro.metrics import EuclideanMetric


@pytest.fixture
def square():
    """Unit square corners."""
    return np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


class TestNorms:
    def test_l2(self, square):
        m = EuclideanMetric(square, p=2.0)
        assert m.distance(0, 3) == pytest.approx(np.sqrt(2))
        assert m.distance(0, 1) == pytest.approx(1.0)

    def test_l1(self, square):
        m = EuclideanMetric(square, p=1.0)
        assert m.distance(0, 3) == pytest.approx(2.0)

    def test_linf(self, square):
        m = EuclideanMetric(square, p=np.inf)
        assert m.distance(0, 3) == pytest.approx(1.0)

    def test_lp_general(self, square):
        m = EuclideanMetric(square, p=3.0)
        assert m.distance(0, 3) == pytest.approx(2.0 ** (1.0 / 3.0))

    def test_rejects_p_below_one(self, square):
        with pytest.raises(ValueError, match="p >= 1"):
            EuclideanMetric(square, p=0.5)


class TestShape:
    def test_1d_input_promoted(self):
        m = EuclideanMetric(np.array([0.0, 3.0, 7.0]))
        assert m.dim == 1
        assert m.distance(0, 2) == 7.0

    def test_rejects_3d_input(self):
        with pytest.raises(ValueError, match=r"\(n, k\)"):
            EuclideanMetric(np.zeros((2, 2, 2)))

    def test_n_and_dim(self, square):
        m = EuclideanMetric(square)
        assert m.n == 4
        assert m.dim == 2

    def test_row_self_distance_zero(self, square):
        m = EuclideanMetric(square)
        for u in m.nodes():
            assert m.distances_from(u)[u] == 0.0

    def test_rows_are_cached(self, square):
        m = EuclideanMetric(square)
        assert m.distances_from(1) is m.distances_from(1)

    def test_symmetry(self, square):
        m = EuclideanMetric(square)
        for u, v in m.pairs():
            assert m.distance(u, v) == pytest.approx(m.distance(v, u))


def _row_scan(points: np.ndarray, p: float):
    """min / max the base class reads from one distances_from row per node."""
    from repro.metrics.base import MetricSpace

    return MetricSpace._compute_extremes(EuclideanMetric(points, p=p))


class TestExtremesScan:
    """The blocked extremes scan returns the row scan's exact floats."""

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_equals_row_scan(self, dim, p):
        rng = np.random.default_rng(dim)
        for n in (2, 3, 57, 300):
            # offset and scale so the coordinate gaps round differently
            points = rng.random((n, dim)) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-1e3, 1e3)
            m = EuclideanMetric(points, p=p)
            assert m._compute_extremes() == _row_scan(points, p)

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_duplicate_points(self, p):
        rng = np.random.default_rng(5)
        points = rng.random((120, 3))
        points[rng.integers(0, 120, 30)] = points[7]
        m = EuclideanMetric(points, p=p)
        assert m.min_distance() == 0.0
        assert m._compute_extremes() == _row_scan(points, p)

    def test_clustered_diameter(self):
        """A plain dimension-by-dimension sum of squares reads this
        diameter one ulp high, and the doubling measure built on it then
        finds a node outside its net hierarchy."""
        from repro.metrics.synthetic import clustered_metric

        points = clustered_metric(96, seed=0).points
        assert EuclideanMetric(points)._compute_extremes() == _row_scan(points, 2.0)

    def test_surrogate_error_within_the_slack_is_absorbed(self):
        """Distances tied to ~1e-13 and a surrogate that errs by ~1e-11
        (another order of summation can err that way): the candidate
        slack keeps every near-tie, and the row formula picks the floats."""

        class Skewed(EuclideanMetric):
            def _surrogate_block(self, rows, cols):
                block = super()._surrogate_block(rows, cols)
                noise = np.random.default_rng(block.size).uniform(-1e-11, 1e-11, block.shape)
                return block * (1.0 + noise)

        for seed in range(4):
            base = np.random.default_rng(seed).random((20, 2))
            points = np.concatenate([base + k * np.array([1e-13, -3e-13]) for k in range(5)])
            assert Skewed(points)._compute_extremes() == _row_scan(points, 2.0)

    def test_leaves_the_row_cache_alone(self):
        m = EuclideanMetric(np.random.default_rng(1).random((400, 2)))
        m.diameter()
        stats = m._rows.stats()
        assert (stats["rows"], stats["hits"], stats["misses"]) == (0, 0, 0)
