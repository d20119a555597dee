"""Doubling measures (Theorem 1.3)."""

import numpy as np
import pytest

from repro.metrics import DoublingMeasure, doubling_measure, exponential_line
from repro.metrics.measure import counting_measure


class TestDoublingMeasureConstruction:
    def test_sums_to_one(self, hypercube32):
        mu = doubling_measure(hypercube32)
        assert mu.weights.sum() == pytest.approx(1.0)

    def test_strictly_positive(self, hypercube32):
        mu = doubling_measure(hypercube32)
        assert np.all(mu.weights > 0)

    def test_doubling_constant_bounded(self, hypercube32):
        mu = doubling_measure(hypercube32)
        # 2-d point set: expect s = 2^O(alpha); assert a generous cap.
        assert mu.doubling_constant(sample_centers=16) <= 64.0

    def test_exponential_line_matches_paper(self):
        """§1.1: on {2^i} the doubling measure is mu(2^i) ~ 2^(i-n) —
        geometrically increasing, heaviest at the sparse end."""
        m = exponential_line(24)
        mu = doubling_measure(m)
        # The top point carries a constant fraction of the mass.
        assert mu.weights[-1] >= 0.1
        # And is geometrically larger than points in the dense region.
        assert mu.weights[-1] / mu.weights[4] >= 2**8

    def test_beats_counting_measure_on_exponential_line(self):
        m = exponential_line(32)
        s_doubling = doubling_measure(m).doubling_constant(sample_centers=16)
        s_counting = counting_measure(m).doubling_constant(sample_centers=16)
        assert s_doubling < s_counting / 2

    def test_single_node(self):
        from repro.metrics import uniform_line

        m = uniform_line(1)
        mu = doubling_measure(m)
        assert mu.weights.tolist() == [1.0]


class TestMeasureQueries:
    @pytest.fixture(scope="class")
    def mu(self, hypercube32):
        return doubling_measure(hypercube32)

    def test_mass_of_all(self, mu, hypercube32):
        assert mu.mass(np.arange(hypercube32.n)) == pytest.approx(1.0)

    def test_ball_mass_monotone(self, mu):
        masses = [mu.ball_mass(0, r) for r in np.linspace(0.01, 2.0, 15)]
        assert all(a <= b + 1e-12 for a, b in zip(masses, masses[1:]))

    def test_radius_for_mass(self, mu, hypercube32):
        for u in (0, 13):
            for eps in (0.1, 0.5, 1.0):
                r = mu.radius_for_mass(u, eps)
                assert mu.ball_mass(u, r) >= eps - 1e-12

    def test_sample_from_ball_stays_inside(self, mu, hypercube32):
        rng = np.random.default_rng(0)
        samples = mu.sample_from_ball(4, 0.4, 50, rng)
        row = hypercube32.distances_from(4)
        assert np.all(row[samples] <= 0.4)

    def test_sample_from_empty_ball_raises(self, hypercube32):
        mu = counting_measure(hypercube32)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="empty"):
            mu.sample_from_ball(0, -1.0, 1, rng)

    def test_weights_shape_checked(self, hypercube32):
        with pytest.raises(ValueError, match="shape"):
            DoublingMeasure(hypercube32, np.ones(5))

    def test_rejects_nonpositive_weights(self, hypercube32):
        w = np.ones(hypercube32.n)
        w[3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            DoublingMeasure(hypercube32, w)


class TestBatchedMasses:
    """The batched forms the packing descent uses equal the per-node and
    per-set queries bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 7, 300, 1000])
    def test_count_table_is_the_exact_sum(self, n):
        from repro.metrics import uniform_line

        mu = counting_measure(uniform_line(n))
        rng = np.random.default_rng(n)
        for k in range(n + 1):
            members = rng.choice(n, size=k, replace=False)
            assert mu.count_masses[k] == mu.mass(members)

    def test_non_uniform_measure_has_no_table(self, hypercube32):
        assert doubling_measure(hypercube32).count_masses is None

    @pytest.mark.parametrize("make", [counting_measure, doubling_measure])
    def test_masses_equal_per_set_sums(self, hypercube32, make):
        mu = make(hypercube32)
        rows = np.array([hypercube32.distances_from(u) for u in range(hypercube32.n)])
        for r in (0.0, 0.1, 0.35, 2.0):
            inside = rows <= r
            expected = [mu.mass(np.flatnonzero(m)) for m in inside]
            assert mu.masses(inside).tolist() == expected

    @pytest.mark.parametrize("make", [counting_measure, doubling_measure])
    @pytest.mark.parametrize("eps", [1.0, 0.5, 0.3, 1 / 16, 1e-6])
    def test_radii_equal_per_node_radii(self, hypercube32, expline32, make, eps):
        for metric in (hypercube32, expline32):
            mu = make(metric)
            expected = [mu.radius_for_mass(u, eps) for u in range(metric.n)]
            assert mu.radii_for_mass(eps).tolist() == expected
