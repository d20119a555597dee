"""Metric save/load."""

import numpy as np
import pytest

from repro.metrics import random_hypercube_metric, internet_like_metric
from repro.metrics.io import load_metric, load_points, save_metric


class TestMetricIO:
    def test_roundtrip_euclidean(self, tmp_path):
        metric = random_hypercube_metric(20, dim=2, seed=0)
        path = tmp_path / "metric.npz"
        save_metric(metric, path)
        loaded = load_metric(path)
        assert loaded.n == 20
        for u, v in [(0, 1), (3, 19)]:
            assert loaded.distance(u, v) == pytest.approx(metric.distance(u, v))

    def test_points_roundtrip(self, tmp_path):
        metric = random_hypercube_metric(10, dim=3, seed=1)
        path = tmp_path / "metric.npz"
        save_metric(metric, path)
        points = load_points(path)
        assert np.allclose(points, metric.points)

    def test_matrix_metric_has_no_points(self, tmp_path):
        metric = internet_like_metric(12, seed=2)
        path = tmp_path / "metric.npz"
        save_metric(metric, path)
        assert load_points(path) is None
        assert load_metric(path).n == 12

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(ValueError, match="not a repro container"):
            load_metric(path)

    def test_loaded_metric_validated(self, tmp_path):
        metric = random_hypercube_metric(15, seed=3)
        path = tmp_path / "m.npz"
        save_metric(metric, path)
        load_metric(path).validate(samples=100)
