"""The zero-latency round executor is the synchronous round model, bit for bit.

The compatibility contract of :class:`repro.netsim.RoundAdapter`: with
the default ideal network (zero constant latency, no loss, no faults)
every §6 round-based protocol runs the synchronous PODC round model
exactly — same RunStats counters, same per-node protocol state, same
derived results.  Each golden digest below was recorded from the
retired synchronous round simulator, in a run where the adapter's
counters and state equalled it field for field; the adapter must still
reproduce it.  This is what makes the degraded scenarios meaningful:
any difference under loss or faults is attributable to the environment,
never to the engine.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.api.facade import build_workload
from repro.distributed import (
    ChurnRoundProtocol,
    DistributedNetProtocol,
    GossipRingProtocol,
)
from repro.netsim import EventNetwork, RoundAdapter

SEEDS = (3, 11, 42)

#: (protocol, seed) -> sha256 of :func:`run_digest` over the run's
#: RunStats (every field but ``config``) and the state each test names
GOLDEN = {
    ("gossip", 3): "35c14e52269d426188f808f700c255c99505c6d3c6855a0330e6afd22fb3eb04",
    ("gossip", 11): "939dedf6890112caae6068071bdc0085897b05f7693bf3289f115c58c3a7041c",
    ("gossip", 42): "70267d8562c19dc7c69b39c2d1deeed804ac4f437d5647fa6e92f3a285531679",
    ("net", 3): "457b82eced33c1858d235fe6ab80787fdb9180e146fd6eab90abd525d8edb0e0",
    ("net", 11): "123f4ce0b9d534b4583ab13eebd55c3722e6f27d9863de8d96e3c3272d9ba68a",
    ("net", 42): "7e04cecee31c15727ff4203c9e0f32f7b31c6cb8277a00b74ba9750d5d1cf68e",
    ("churn", 3): "4412f3fcac25a4411bb1a88c73a2c62245d0994b83d75135ab7e2961bf0673c1",
    ("churn", 11): "5879d124209724050ed32dcaa1048762cad1a90b0128a3eea351a5d11636fb0f",
    ("churn", 42): "e1b6b49ed10fc6fd39215303e0c42d722b59ecf0f2236e46d15b05a4f2d0dc92",
}


@pytest.fixture(scope="module")
def metric():
    return build_workload("hypercube", n=40, seed=5).metric


def _canon(value) -> str:
    """A canonical text form: exact float bits, dicts and sets sorted
    (equal-as-compared state gives equal text)."""
    if value is None or isinstance(value, (bool, str)):
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return _canon(value.tolist())
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canon(v) for v in value) + ")"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(_canon(v) for v in sorted(value)) + "}"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f"{_canon(k)}:{_canon(v)}" for k, v in items) + "}"
    if dataclasses.is_dataclass(value):
        fields = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]
        return type(value).__name__ + _canon(dict(fields))
    raise TypeError(f"no canonical form for {type(value).__name__}")


def run_digest(stats, state) -> str:
    """sha256 over every RunStats field except ``config``, plus ``state``."""
    fields = {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if f.name != "config"
    }
    return hashlib.sha256(_canon((fields, state)).encode()).hexdigest()


def run_adapter(metric, protocol, seed, max_rounds=200):
    adapter = RoundAdapter(EventNetwork(metric, seed=seed), protocol, max_rounds=max_rounds)
    stats = adapter.run()
    assert stats.dropped == 0
    return adapter.ctx, stats


@pytest.mark.parametrize("seed", SEEDS)
class TestGossipParity:
    def test_bit_for_bit(self, metric, seed):
        proto = GossipRingProtocol(bootstrap=3, exchange=8, ring_capacity=6, rounds=6)
        ctx, stats = run_adapter(metric, proto, seed)
        state = [(proto.rings_of(ctx, u), ctx.state[u]["known"]) for u in range(metric.n)]
        assert run_digest(stats, state) == GOLDEN[("gossip", seed)]


@pytest.mark.parametrize("seed", SEEDS)
class TestNetProtocolParity:
    def test_bit_for_bit(self, metric, seed):
        proto = DistributedNetProtocol(r=metric.min_distance() * 2)
        ctx, stats = run_adapter(metric, proto, seed)
        state = (proto.net_members(ctx), [ctx.state[u]["status"] for u in range(metric.n)])
        assert run_digest(stats, state) == GOLDEN[("net", seed)]


@pytest.mark.parametrize("seed", SEEDS)
class TestChurnParity:
    def test_bit_for_bit(self, metric, seed):
        proto = ChurnRoundProtocol(epochs=3, quality_queries=40)
        _, stats = run_adapter(metric, proto, seed, max_rounds=20)
        state = (proto.reports, [node.rings for node in proto.sim.overlay.nodes])
        assert run_digest(stats, state) == GOLDEN[("churn", seed)]
