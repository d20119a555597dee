"""Gossip ring discovery and the §6 coverage gap."""

import pytest

from repro.distributed import GossipRingProtocol, ring_coverage
from repro.metrics import random_hypercube_metric
from repro.netsim import EventNetwork, RoundAdapter


def _run(metric, rounds, seed=0, **kwargs):
    proto = GossipRingProtocol(rounds=rounds, **kwargs)
    net = RoundAdapter(EventNetwork(metric, seed=seed), proto, max_rounds=10 * rounds + 10)
    stats = net.run()
    return proto, net, stats


class TestGossipRings:
    @pytest.fixture(scope="class")
    def metric(self):
        return random_hypercube_metric(48, dim=2, seed=13)

    def test_converges_within_budget(self, metric):
        _proto, _net, stats = _run(metric, rounds=6)
        assert stats.converged

    def test_ring_members_in_band(self, metric):
        proto, net, _stats = _run(metric, rounds=6)
        base = metric.min_distance()
        for u in (0, 20, 47):
            for j, ring in proto.rings_of(net.ctx, u).items():
                hi = base * 2.0**j
                lo = 0.0 if j == 0 else hi / 2.0
                for v, d in ring.items():
                    assert d == pytest.approx(metric.distance(u, v))
                    assert lo < d <= hi * (1 + 1e-9) or (j == 0 and d <= hi)

    def test_capacity_respected(self, metric):
        proto, net, _stats = _run(metric, rounds=6, ring_capacity=4)
        for u in range(metric.n):
            for ring in proto.rings_of(net.ctx, u).values():
                assert len(ring) <= 4

    def test_coverage_improves_with_rounds(self, metric):
        short = _run(metric, rounds=1, seed=5)
        long = _run(metric, rounds=12, seed=5)
        cov_short = ring_coverage(metric, short[0], short[1].ctx)
        cov_long = ring_coverage(metric, long[0], long[1].ctx)
        assert cov_long[0] >= cov_short[0]
        assert cov_long[1] >= cov_short[1] - 0.02

    def test_gap_persists_at_bounded_state(self, metric):
        """The §6 gap: bounded-capacity gossip rings do not reach full
        member recall even with a generous round budget."""
        proto, net, _stats = _run(metric, rounds=15, ring_capacity=4, exchange=6)
        _scales, recall = ring_coverage(metric, proto, net.ctx)
        assert recall < 1.0

    def test_probes_bounded_by_discoveries(self, metric):
        _proto, net, stats = _run(metric, rounds=6)
        # Each (node, discovered-node) pair is probed at most once.
        assert stats.probes <= metric.n * (metric.n - 1)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GossipRingProtocol(bootstrap=0)
