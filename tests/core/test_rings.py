"""Rings-of-neighbors builders."""

import pytest

from repro.core import cardinality_rings, measure_rings, net_rings
from repro.metrics import NestedNets
from repro.metrics.measure import doubling_measure


def _inside_ring_balls(metric, rings, nodes):
    """Every member of each listed node's rings lies within the ring radius."""
    for u in nodes:
        row = metric.distances_from(u)
        for k, key in enumerate(rings.keys):
            members = rings.members_of(u, key)
            assert all(row[v] <= rings.radii[u, k] + 1e-12 for v in members)


class TestNetRings:
    def test_members_in_ball_and_net(self, hypercube32):
        nets = NestedNets(hypercube32, levels=5, base_radius=hypercube32.min_distance())
        rings = net_rings(hypercube32, nets, radius_for_level=lambda j: 0.5 * 2**j)
        assert rings.keys == tuple(range(5))
        for u in (0, 9):
            for j in range(5):
                net_set = set(nets.net(j))
                assert all(int(v) in net_set for v in rings.members_of(u, j))
        _inside_ring_balls(hypercube32, rings, (0, 9))

    def test_level_subset(self, hypercube32):
        nets = NestedNets(hypercube32, levels=5, base_radius=hypercube32.min_distance())
        rings = net_rings(
            hypercube32, nets, radius_for_level=lambda j: 1.0, levels=[2, 3]
        )
        assert rings.keys == (2, 3)
        with pytest.raises(KeyError):
            rings.members_of(0, 0)


class TestSampledRings:
    def test_cardinality_rings_inside_balls(self, hypercube32):
        rings = cardinality_rings(hypercube32, samples_per_ring=4, seed=0)
        _inside_ring_balls(hypercube32, rings, (0, 15))

    def test_cardinality_rings_deterministic(self, hypercube32):
        a = cardinality_rings(hypercube32, 4, seed=3)
        b = cardinality_rings(hypercube32, 4, seed=3)
        for key in a.keys:
            assert a.members_of(5, key).tolist() == b.members_of(5, key).tolist()

    def test_measure_rings_inside_balls(self, hypercube32):
        mu = doubling_measure(hypercube32)
        rings = measure_rings(hypercube32, mu, samples_per_ring=3, seed=1)
        _inside_ring_balls(hypercube32, rings, (2, 20))

    def test_measure_rings_level_count(self, hypercube32):
        mu = doubling_measure(hypercube32)
        rings = measure_rings(hypercube32, mu, 2, seed=0)
        assert len(rings.keys) == hypercube32.log_aspect_ratio()
