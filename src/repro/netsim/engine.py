"""Deterministic heapq event engine.

The core of :mod:`repro.netsim`: a single-threaded discrete-event loop.
Events are ``(time, seq, action)`` triples on a binary heap; ``seq`` is a
monotone insertion counter, so simultaneous events fire in the order they
were scheduled — the whole simulation is a pure function of the seeds,
never of hash order or wall-clock.

There is no threading and no asyncio here on purpose: the §6 experiments
need bit-for-bit reproducibility (the zero-latency parity suite pins
protocol state by golden digest), and a heap of
callbacks is the smallest machine that provides it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

__all__ = ["Clock", "EventLoop"]


@dataclass
class Clock:
    """Simulated time, shared by everything attached to one loop.

    Time is a unitless float ("simulated seconds"); protocols only ever
    read it, the :class:`EventLoop` advances it.
    """

    now: float = 0.0


@dataclass(order=True)
class _Event:
    when: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventLoop:
    """Run scheduled actions in deterministic ``(time, seq)`` order."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock if clock is not None else Clock()
        self._heap: List[_Event] = []
        self._seq = itertools.count()
        #: total events executed over the loop's lifetime
        self.processed = 0

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def pending(self) -> int:
        """Scheduled-but-unexecuted events (cancelled ones excluded)."""
        return sum(1 for e in self._heap if not e.cancelled)

    def peek_time(self) -> Optional[float]:
        """Fire time of the next live event, or None when idle.

        Cancelled events at the heap top are discarded here (they never
        execute), keeping the peek O(log n) amortized — ``run`` calls it
        before every step.
        """
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        return heap[0].when if heap else None

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> _Event:
        """Schedule ``action`` to fire ``delay`` after the current time."""
        return self.schedule_at(self.clock.now + delay, action)

    def schedule_at(self, when: float, action: Callable[[], None]) -> _Event:
        """Schedule ``action`` at an absolute simulated time."""
        when = float(when)
        if when < self.clock.now:
            raise ValueError(
                f"cannot schedule into the past ({when} < {self.clock.now})"
            )
        event = _Event(when, next(self._seq), action)
        heapq.heappush(self._heap, event)
        return event

    @staticmethod
    def cancel(event: _Event) -> None:
        """Mark a scheduled event dead (it stays in the heap, unexecuted)."""
        event.cancelled = True

    # -- execution -----------------------------------------------------

    def step(self) -> bool:
        """Execute the next live event; False when the heap is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.clock.now = event.when
            self.processed += 1
            event.action()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> Tuple[int, bool]:
        """Drain the heap in order.

        Stops when the heap empties, the next event lies beyond
        ``until``, ``max_events`` have been executed in this call, or
        ``stop()`` turns true (checked between events).  Returns
        ``(events_executed, exhausted)`` where ``exhausted`` is True iff
        the heap ran dry.
        """
        executed = 0
        while True:
            if stop is not None and stop():
                return executed, not self._heap
            next_time = self.peek_time()
            if next_time is None:
                return executed, True
            if until is not None and next_time > until:
                # Idle out the remaining window so `now` reflects it.
                self.clock.now = max(self.clock.now, float(until))
                return executed, False
            if max_events is not None and executed >= max_events:
                return executed, False
            self.step()
            executed += 1
