"""The round-based protocol surface of the §6 experiments.

The classic PODC model: computation proceeds in rounds; in each round
every node reads its inbox, updates local state and sends messages.
:class:`~repro.netsim.protocol.RoundAdapter` runs a
:class:`RoundBasedProtocol` on an
:class:`~repro.netsim.network.EventNetwork`, one tick per round; on the
default ideal network a message sent in one round arrives at the start
of the next.  Two costs are counted:

* **messages** — every :meth:`Context.send`;
* **probes** — distance measurements via :meth:`Context.probe` (in a
  deployed system, an RTT ping).  Nodes know the address space (node
  ids) but *not* the metric; all distance knowledge must be probed,
  which is what makes ring construction non-trivial distributedly.

Protocols subclass :class:`RoundBasedProtocol` and keep per-node state in
``ctx.state[node]`` (a dict); a run is deterministic given the seed.
"""

from __future__ import annotations

import abc
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro._types import NodeId
from repro.metrics.base import MetricSpace


@dataclass(frozen=True)
class Message:
    """One message in flight."""

    sender: NodeId
    recipient: NodeId
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)


@dataclass
class RunStats:
    """Cost summary of one protocol run.

    Message accounting is explicit: ``messages`` counts sends,
    ``delivered`` the messages actually consumed by a node's step, and
    the two loss buckets say where the rest went — ``dropped`` (the
    network discarded them: link loss, partition, crashed recipient;
    always 0 on the ideal network) and ``undelivered``
    (still in flight when the run ended, e.g. sent in the final round).
    ``messages == delivered + dropped + undelivered`` holds for every
    run.  ``seed`` is the resolved RNG entropy (recorded even for
    unseeded runs) and ``config`` carries the network's link and fault
    description — together they make any run reproducible from its
    persisted stats.
    """

    rounds: int
    messages: int
    probes: int
    converged: bool
    delivered: int = 0
    dropped: int = 0
    undelivered: int = 0
    wall_clock: float = 0.0
    seed: Any = None
    config: Dict[str, Any] = field(default_factory=dict)


class Context:
    """The per-run environment a protocol sees, backed by an event network.

    Sends go through the network's fault plan and link model; probes go
    through its Byzantine perturbation.  The RNG is the network's
    protocol generator, so equal seeds give equal draw sequences.
    """

    def __init__(self, net) -> None:
        self._net = net
        self._metric: MetricSpace = net.metric
        self.rng = net.rng
        self.n = net.n
        #: per-node protocol state
        self.state: Dict[NodeId, Dict[str, Any]] = defaultdict(dict)
        self.messages_sent = 0
        self.probes = 0

    def send(self, sender: NodeId, recipient: NodeId, kind: str, **payload: Any) -> None:
        """Transmit one message through the network (ValueError when the
        recipient is out of range)."""
        self._net.send(sender, recipient, kind, **payload)
        self.messages_sent += 1

    def probe(self, u: NodeId, v: NodeId) -> float:
        """Measure d(u, v) — one counted network probe."""
        self.probes += 1
        return self._net.measure(u, v)


class RoundBasedProtocol(abc.ABC):
    """A distributed protocol, run by :class:`~repro.netsim.protocol.RoundAdapter`."""

    @abc.abstractmethod
    def initialize(self, ctx: Context) -> None:
        """Set up per-node state; may send round-0 messages."""

    @abc.abstractmethod
    def on_round(self, node: NodeId, inbox: List[Message], ctx: Context) -> None:
        """One node's step: read inbox, update state, send messages."""

    @abc.abstractmethod
    def is_done(self, ctx: Context) -> bool:
        """Global termination predicate (checked between rounds)."""

    def on_round_end(self, ctx: Context) -> None:
        """Hook after every node has taken its step this round.

        Default: no-op.  Protocols that need a synchronized phase change
        (e.g. redrawing priorities) override this instead of piggybacking
        on some specific node's step.
        """
