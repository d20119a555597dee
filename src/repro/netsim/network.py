"""The event network: fault-aware transport over the event loop.

:class:`EventNetwork` is the transport every netsim run shares: sends go
through the :class:`~repro.netsim.faults.FaultPlan` (partitions, crashed
recipients, Byzantine payload tampering) and the
:class:`~repro.netsim.links.LinkModel` (loss, latency, jitter), then
arrive as deliver events on the :class:`~repro.netsim.engine.EventLoop`.
Probes are metric queries filtered through Byzantine distance
perturbation.

Accounting is total: every sent message ends up in exactly one of
``consumed`` (handed to a protocol step), ``dropped_link`` /
``dropped_partition`` / ``dropped_crash`` (network discarded it) or the
in-flight/pending remainder (:meth:`undelivered` at the end of a run),
enforced here by construction.

Protocol RNG (``rng``) and network RNG (inside the link model / fault
plan) are separate generators, so the network never perturbs the
protocol's draw sequence.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.distributed.simulator import Message
from repro.metrics.base import MetricSpace
from repro.rng import SeedLike, ensure_rng, rng_entropy

from repro.netsim.engine import EventLoop
from repro.netsim.faults import FaultPlan
from repro.netsim.links import LinkModel

__all__ = ["EventNetwork"]


class EventNetwork:
    """Message transport + fault filter + counters for one run."""

    def __init__(
        self,
        metric: MetricSpace,
        link: Optional[LinkModel] = None,
        faults: Optional[FaultPlan] = None,
        seed: SeedLike = None,
    ) -> None:
        self.metric = metric
        self.n = metric.n
        self.loop = EventLoop()
        self.link = link if link is not None else LinkModel()
        self.faults = faults if faults is not None else FaultPlan()
        #: protocol-facing RNG (the link/fault plans own separate ones)
        self.rng = ensure_rng(seed)
        self.resolved_seed = rng_entropy(self.rng)
        #: per-node protocol state for event-native protocols
        self.state: Dict[int, Dict[str, Any]] = defaultdict(dict)

        self.messages_sent = 0
        self.consumed = 0
        self.dropped_link = 0
        self.dropped_partition = 0
        self.dropped_crash = 0
        self.probes = 0
        self._in_flight = 0
        self._pending: Dict[int, List[Message]] = defaultdict(list)
        self._on_arrival: Optional[Callable[[Message], None]] = None
        self._on_timer: Optional[Callable[[int, Any], None]] = None

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> float:
        return self.loop.now

    # -- wiring (drivers install their dispatch) -----------------------

    def set_arrival_handler(self, handler: Callable[[Message], None]) -> None:
        """Dispatch arrivals immediately (event-native protocols); when
        unset, arrivals queue per recipient until :meth:`drain_pending`."""
        self._on_arrival = handler

    def set_timer_handler(self, handler: Callable[[int, Any], None]) -> None:
        self._on_timer = handler

    # -- transport -----------------------------------------------------

    def send(self, sender: int, recipient: int, kind: str, **payload: Any) -> None:
        """Transmit one message through the fault plan and link model."""
        if not (0 <= recipient < self.n):
            raise ValueError(f"recipient {recipient} out of range")
        self.messages_sent += 1
        t = self.loop.now
        if self.faults.severed(sender, recipient, t):
            self.dropped_partition += 1
            return
        distance = (
            self.metric.distance(sender, recipient)
            if self.link.distance_factor
            else 0.0
        )
        delay = self.link.transit(sender, recipient, distance)
        if delay is None:
            self.dropped_link += 1
            return
        payload = self.faults.tamper_payload(sender, payload, self.n)
        message = Message(sender, recipient, kind, payload)
        self._in_flight += 1
        self.loop.schedule(delay, lambda: self._arrive(message))

    def _arrive(self, message: Message) -> None:
        self._in_flight -= 1
        t = self.loop.now
        if self.faults.severed(message.sender, message.recipient, t):
            self.dropped_partition += 1
            return
        if not self.faults.is_up(message.recipient, t):
            self.dropped_crash += 1
            return
        if self._on_arrival is not None:
            self.consumed += 1
            self._on_arrival(message)
        else:
            self._pending[message.recipient].append(message)

    def drain_pending(self, node: int) -> List[Message]:
        """Pop the queued arrivals for one node (round-adapter path)."""
        inbox = self._pending.pop(node, [])
        self.consumed += len(inbox)
        return inbox

    # -- measurement ---------------------------------------------------

    def probe(self, u: int, v: int) -> float:
        """A counted distance measurement by ``u`` against ``v``."""
        self.probes += 1
        return self.measure(u, v)

    def measure(self, u: int, v: int) -> float:
        """Uncounted measurement (adapters keep their own probe count):
        the true distance unless ``v`` Byzantine-misreports to ``u``."""
        return self.faults.perturb_probe(u, v, self.metric.distance(u, v))

    # -- timers --------------------------------------------------------

    def set_timer(self, node: int, delay: float, tag: Any) -> None:
        """Fire ``on_timer(node, tag)`` after ``delay`` (skipped while
        the node is crashed at fire time)."""

        def fire() -> None:
            if self._on_timer is None or not self.faults.is_up(node, self.loop.now):
                return
            self._on_timer(node, tag)

        self.loop.schedule(delay, fire)

    # -- accounting ----------------------------------------------------

    @property
    def dropped(self) -> int:
        return self.dropped_link + self.dropped_partition + self.dropped_crash

    def undelivered(self) -> int:
        """Messages neither consumed nor dropped: still in flight on the
        loop plus queued arrivals no step ever read."""
        return self._in_flight + sum(len(q) for q in self._pending.values())

    def delivery_rate(self) -> float:
        """Fraction of sent messages a protocol step actually consumed."""
        return self.consumed / self.messages_sent if self.messages_sent else 1.0

    def up_nodes(self) -> List[int]:
        t = self.loop.now
        return [u for u in range(self.n) if self.faults.is_up(u, t)]
