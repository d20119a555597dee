"""Protocol surfaces for the event simulator.

Two ways to run a protocol on an :class:`~repro.netsim.network.EventNetwork`:

* :class:`EventProtocol` + :class:`EventDriver` — the event-native
  surface: handlers fire per message arrival and per timer, nothing is
  synchronized.  New protocols (the ring auditor) implement this.
* :class:`RoundAdapter` — the round executor: runs any
  :class:`~repro.distributed.simulator.RoundBasedProtocol` *unchanged*
  by ticking a global round cadence on the event loop.  Messages sent
  during a tick travel through the link model and are consumed by the
  first tick after they arrive; crashed nodes skip their step.  On
  zero-latency lossless links with no faults a message sent in round k
  is read in round k + 1 (the synchronous model the §6 protocols were
  written for, pinned by golden digests in the parity property suite),
  and the same protocol object then degrades honestly under loss,
  latency, partitions and crashes.
"""

from __future__ import annotations

import abc
from typing import Any, Optional

from repro.distributed.simulator import Context, Message, RoundBasedProtocol, RunStats

from repro.netsim.network import EventNetwork

__all__ = ["EventDriver", "EventProtocol", "RoundAdapter"]


class EventProtocol(abc.ABC):
    """Event-native protocol: per-arrival and per-timer handlers."""

    def on_start(self, net: EventNetwork) -> None:
        """Initialize state; schedule timers; may send."""

    def on_message(self, node: int, message: Message, net: EventNetwork) -> None:
        """Handle one arrival at ``node`` (the recipient)."""

    def on_timer(self, node: int, tag: Any, net: EventNetwork) -> None:
        """Handle one timer set via :meth:`EventNetwork.set_timer`."""

    def is_done(self, net: EventNetwork) -> bool:
        """Early-termination predicate (checked between events)."""
        return False


class EventDriver:
    """Runs an :class:`EventProtocol` to quiescence, a deadline or done."""

    def __init__(self, net: EventNetwork, protocol: EventProtocol) -> None:
        self.net = net
        self.protocol = protocol
        net.set_arrival_handler(
            lambda message: protocol.on_message(message.recipient, message, net)
        )
        net.set_timer_handler(lambda node, tag: protocol.on_timer(node, tag, net))

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 1_000_000,
    ) -> RunStats:
        net, protocol = self.net, self.protocol
        protocol.on_start(net)
        net.loop.run(
            until=until,
            max_events=max_events,
            stop=lambda: protocol.is_done(net),
        )
        return RunStats(
            rounds=0,
            messages=net.messages_sent,
            probes=net.probes,
            converged=protocol.is_done(net),
            delivered=net.consumed,
            dropped=net.dropped,
            undelivered=net.undelivered(),
            wall_clock=net.now,
            seed=net.resolved_seed,
            config={"link": net.link.to_dict(), "faults": net.faults.to_dict()},
        )


class RoundAdapter:
    """Drive a :class:`RoundBasedProtocol` over the event network.

    Round ``k`` fires at time ``k · round_interval``; each tick drains
    the arrivals queued since the previous tick into per-node inboxes
    and steps every *up* node in id order (exactly the synchronous
    schedule), then ``on_round_end`` and the termination check.  A
    message's round of consumption is therefore determined by its
    sampled latency — wall-clock convergence under slow links is ticks
    elapsed, not a round count on a perfect network.
    """

    def __init__(
        self,
        net: EventNetwork,
        protocol: RoundBasedProtocol,
        round_interval: float = 1.0,
        max_rounds: int = 1000,
    ) -> None:
        if round_interval <= 0:
            raise ValueError("round_interval must be positive")
        self.net = net
        self.protocol = protocol
        self.round_interval = float(round_interval)
        self.max_rounds = max_rounds
        self.ctx = Context(net)
        self.rounds = 0
        self.converged = False
        self.converged_at: Optional[float] = None

    def _tick(self) -> None:
        net, ctx, protocol = self.net, self.ctx, self.protocol
        t = net.now
        for node in range(net.n):
            if not net.faults.is_up(node, t):
                continue  # down: skips its step; queued arrivals wait
            protocol.on_round(node, net.drain_pending(node), ctx)
        protocol.on_round_end(ctx)
        self.rounds += 1
        if protocol.is_done(ctx):
            self.converged = True
            self.converged_at = net.now
        elif self.rounds < self.max_rounds:
            net.loop.schedule(self.round_interval, self._tick)

    def run(self) -> RunStats:
        net, ctx, protocol = self.net, self.ctx, self.protocol
        protocol.initialize(ctx)
        self.converged = protocol.is_done(ctx)
        if self.converged:
            self.converged_at = net.now
        else:
            net.loop.schedule(self.round_interval, self._tick)
        # Stop as soon as the protocol converges: arrivals past that
        # point stay in flight and are counted undelivered (the messages
        # sent in the final round).
        net.loop.run(stop=lambda: self.converged)
        return RunStats(
            rounds=self.rounds,
            messages=ctx.messages_sent,
            probes=ctx.probes,
            converged=self.converged,
            delivered=net.consumed,
            dropped=net.dropped,
            undelivered=net.undelivered(),
            wall_clock=net.now,
            seed=net.resolved_seed,
            config={"link": net.link.to_dict(), "faults": net.faults.to_dict()},
        )
