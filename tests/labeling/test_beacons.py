"""Common-beacon (ε,δ)-triangulation baseline."""

import numpy as np
import pytest

from repro import api
from repro.labeling import BeaconTriangulation


class TestBounds:
    @pytest.fixture(scope="class")
    def tri(self, hypercube64):
        return BeaconTriangulation(hypercube64, k=12, seed=0, mantissa_bits=14)

    def test_bounds_sandwich_distance(self, tri, hypercube64):
        """D- <= d <= D+ up to quantization error (which is relative to
        the beacon distances, hence absolute in the diameter for D-)."""
        slack = 2 * tri.codec.relative_error * hypercube64.diameter()
        for u, v in [(0, 1), (5, 40), (13, 62), (7, 7 + 1)]:
            lower, upper = tri.bounds(u, v)
            d = hypercube64.distance(u, v)
            assert lower <= d + slack
            assert upper >= d - 1e-9

    def test_estimate_is_upper(self, tri):
        lower, upper = tri.bounds(3, 44)
        assert tri.estimate(3, 44) == upper

    def test_self_estimate_zero(self, tri):
        assert tri.estimate(9, 9) == 0.0

    def test_order(self, tri):
        assert tri.order == 12

    def test_label_bits(self, tri):
        bits = tri.label_bits(0)
        assert bits.total_bits == 12 * (6 + tri.codec.bits_per_distance)


class TestEpsilonDelta:
    def test_epsilon_decreases_with_more_beacons(self, hypercube64):
        few = BeaconTriangulation(hypercube64, k=3, seed=1)
        many = BeaconTriangulation(hypercube64, k=32, seed=1)
        delta = 0.5
        assert many.epsilon_for_delta(delta) <= few.epsilon_for_delta(delta) + 0.02

    def test_some_pairs_fail(self, hypercube64):
        """The baseline's flaw the paper fixes: with few beacons a
        noticeable fraction of pairs has a poor certificate."""
        tri = BeaconTriangulation(hypercube64, k=3, seed=2)
        assert tri.epsilon_for_delta(0.2) > 0.0

    def test_explicit_beacons(self, hypercube64):
        tri = BeaconTriangulation(hypercube64, k=3, beacons=[1, 2, 3])
        assert list(tri.beacons) == [1, 2, 3]

    def test_worst_ratio_at_least_one(self, hypercube64):
        tri = BeaconTriangulation(hypercube64, k=8, seed=3)
        assert tri.worst_ratio() >= 1.0

    def test_rejects_zero_beacons(self, hypercube64):
        with pytest.raises(ValueError):
            BeaconTriangulation(hypercube64, k=0)


class TestEstimateManyKernel:
    """``estimate_many`` computes only D+, yet equals the D+ half of
    ``bounds_many`` (0 on the diagonal) bit for bit, whether the labels
    come from a fresh build or a memory-mapped container, before and
    after beacons leave.  Reads after random churn are checked against a
    reference in ``tests/properties/test_label_churn.py``."""

    N = 48

    @pytest.fixture(params=["fresh", "loaded"])
    def tri(self, request, tmp_path):
        fitted = api.build("beacons", workload="hypercube", n=self.N, seed=4,
                           beacons=6, cache=api.BuildCache())
        if request.param == "loaded":
            api.save(fitted, tmp_path / "beacons.repro")
            fitted = api.load(tmp_path / "beacons.repro")
        return fitted.inner

    def _pairs(self, tri):
        """Pairs of non-beacon nodes, diagonal and repeated pairs included."""
        others = np.setdiff1d(np.arange(self.N), tri._beacons0)
        rng = np.random.default_rng(2)
        us, vs = rng.choice(others, 200), rng.choice(others, 200)
        us[:7] = vs[:7]
        us[7:12], vs[7:12] = us[20:25], vs[20:25]
        return us, vs

    def _assert_kernel_matches(self, tri, us, vs):
        got = tri.estimate_many(us, vs)
        want = np.where(us == vs, 0, tri.bounds_many(us, vs)[1])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        return got

    def test_clean(self, tri):
        assert tri._labels.flags["C_CONTIGUOUS"]
        us, vs = self._pairs(tri)
        got = self._assert_kernel_matches(tri, us, vs)
        assert np.all(np.isfinite(got))

    def test_beacon_departure_pending(self, tri):
        # a beacon's departure installs the live columns at once: nothing
        # stays pending, and reads take D+ over the other beacons alone
        us, vs = self._pairs(tri)
        clean = tri.estimate_many(us, vs)
        labels0 = np.array(tri._labels)
        tri.apply_update(leaves=tri._beacons0[:2])
        stats = tri.pending_patch_stats()
        assert (stats.dirty_rows, stats.pending_joins, stats.pending_leaves) == (0, 0, 0)
        got = self._assert_kernel_matches(tri, us, vs)
        live = labels0[:, 2:]
        want = np.where(us == vs, 0.0, (live[us] + live[vs]).min(axis=1))
        assert got.tobytes() == want.tobytes()
        assert np.all(got >= clean)  # fewer beacons: no tighter D+

    def test_every_beacon_left(self, tri):
        us, vs = self._pairs(tri)
        tri.apply_update(leaves=tri._beacons0)
        assert tri.order == 0
        got = self._assert_kernel_matches(tri, us, vs)
        assert np.array_equal(got, np.where(us == vs, 0.0, np.inf))

    def test_diagonal(self, tri):
        ids = np.arange(self.N)
        got = self._assert_kernel_matches(tri, ids, ids)
        assert np.array_equal(got, np.zeros(self.N))
