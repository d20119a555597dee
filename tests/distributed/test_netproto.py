"""Distributed r-net construction."""

import math

import pytest

from repro.distributed import DistributedNetProtocol
from repro.metrics import exponential_line
from repro.metrics.nets import is_r_net
from repro.netsim import EventNetwork, RoundAdapter


def _build(metric, r, seed):
    proto = DistributedNetProtocol(r=r)
    net = RoundAdapter(EventNetwork(metric, seed=seed), proto, max_rounds=100)
    stats = net.run()
    return proto, net, stats


class TestDistributedNet:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_produces_valid_net(self, hypercube64, seed):
        proto, net, stats = _build(hypercube64, 0.2, seed)
        assert stats.converged
        members = proto.net_members(net.ctx)
        assert is_r_net(hypercube64, members, 0.2)

    def test_olog_n_rounds(self, hypercube64):
        _proto, _net, stats = _build(hypercube64, 0.2, seed=5)
        assert stats.rounds <= 4 * math.log2(hypercube64.n)

    def test_probe_cost_is_n_squared_discovery(self, hypercube32):
        """Every node probes every other once for neighborhood discovery."""
        _proto, _net, stats = _build(hypercube32, 0.3, seed=0)
        n = hypercube32.n
        assert stats.probes == n * (n - 1)

    def test_exponential_line(self):
        metric = exponential_line(32)
        proto, net, stats = _build(metric, metric.min_distance() * 8, seed=2)
        assert stats.converged
        assert is_r_net(metric, proto.net_members(net.ctx), metric.min_distance() * 8)

    def test_huge_radius_singleton_net(self, hypercube32):
        proto, net, stats = _build(hypercube32, 100.0, seed=1)
        assert stats.converged
        assert len(proto.net_members(net.ctx)) == 1

    def test_tiny_radius_everyone(self, hypercube32):
        r = hypercube32.min_distance() * 0.5
        proto, net, stats = _build(hypercube32, r, seed=1)
        assert stats.converged
        assert len(proto.net_members(net.ctx)) == hypercube32.n

    def test_matches_centralized_cardinality(self, hypercube64):
        """Distributed and greedy centralized nets have comparable size
        (both are maximal r-packings: within each other's Lemma-1.4
        factor)."""
        from repro.metrics.nets import greedy_net

        r = 0.25
        proto, net, _stats = _build(hypercube64, r, seed=3)
        distributed_size = len(proto.net_members(net.ctx))
        central_size = len(greedy_net(hypercube64, r))
        assert distributed_size <= 4 * central_size
        assert central_size <= 4 * distributed_size

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            DistributedNetProtocol(r=0.0)
