"""Round-protocol semantics on the one executor, an ideal event network.

Delivery one round later and the round budget are covered by
``tests/netsim/test_protocol.py::TestRoundAdapter``.
"""

from typing import List

import pytest

from repro.distributed import Message, RoundBasedProtocol
from repro.metrics import uniform_line
from repro.netsim import EventNetwork, RoundAdapter


class PingPong(RoundBasedProtocol):
    """Node 0 pings node 1 back and forth a fixed number of times."""

    def __init__(self, volleys: int) -> None:
        self.volleys = volleys

    def initialize(self, ctx) -> None:
        ctx.state[0]["count"] = 0
        ctx.state[1]["count"] = 0
        ctx.send(0, 1, "ping", hop=0)

    def on_round(self, node, inbox: List[Message], ctx) -> None:
        for message in inbox:
            if message.kind == "ping":
                ctx.state[node]["count"] += 1
                if message.payload["hop"] + 1 < self.volleys:
                    ctx.send(node, message.sender, "ping", hop=message.payload["hop"] + 1)

    def is_done(self, ctx) -> bool:
        return ctx.state[0]["count"] + ctx.state[1]["count"] >= self.volleys


def _adapter(metric, proto, seed=None, max_rounds=10):
    return RoundAdapter(EventNetwork(metric, seed=seed), proto, max_rounds=max_rounds)


class TestSimulator:
    def test_probe_counted(self):
        ctx = _adapter(uniform_line(3), PingPong(volleys=1)).ctx
        assert ctx.probe(0, 2) == 2.0
        assert ctx.probes == 1

    def test_bad_recipient_rejected(self):
        ctx = _adapter(uniform_line(2), PingPong(1)).ctx
        with pytest.raises(ValueError):
            ctx.send(0, 9, "ping")
        assert ctx.messages_sent == 0


class TestAccounting:
    def test_messages_split_into_delivered_and_undelivered(self):
        # volleys=4 converges exactly when the 4th ping is consumed, so
        # every sent message was delivered and none remain in flight.
        stats = _adapter(uniform_line(2), PingPong(volleys=4)).run()
        assert stats.delivered == 4
        assert stats.dropped == 0
        assert stats.undelivered == 0
        assert stats.messages == stats.delivered + stats.dropped + stats.undelivered

    def test_final_round_sends_counted_undelivered(self):
        # Cutting the budget mid-conversation strands the last ping in
        # flight: it was sent but no round ever consumed it.
        stats = _adapter(uniform_line(2), PingPong(volleys=100), max_rounds=5).run()
        assert not stats.converged
        assert stats.undelivered == 1
        assert stats.messages == stats.delivered + stats.undelivered

    def test_wall_clock_equals_rounds_on_ideal_network(self):
        stats = _adapter(uniform_line(2), PingPong(volleys=4)).run()
        assert stats.wall_clock == float(stats.rounds)

    def test_resolved_seed_recorded(self):
        stats = _adapter(uniform_line(2), PingPong(volleys=1), seed=37, max_rounds=5).run()
        assert stats.seed == 37

    def test_unseeded_run_still_records_entropy(self):
        stats = _adapter(uniform_line(2), PingPong(volleys=1), max_rounds=5).run()
        assert stats.seed is not None
        # Replaying with the recorded entropy reproduces the run.
        again = _adapter(uniform_line(2), PingPong(volleys=1), seed=stats.seed, max_rounds=5)
        assert again.run().messages == stats.messages
