"""ChurnTrace — one seeded join/leave schedule for every churn consumer.

The repo used to have two unrelated churn entry points: the epoch loop
in :class:`~repro.distributed.churn.ChurnSimulation` drew its own random
victims per epoch, and the netsim ``crash-churn`` scenario drew crash
windows from its fault RNG.  A :class:`ChurnTrace` is the shared spec
both now consume — a deterministic, JSON-round-trippable sequence of
:class:`ChurnEvent` batches over a fixed node universe — and what the
``churn-stream`` suite streams through mutable schemes.  Result sets
record ``trace.describe()`` (sizes, seed and a content digest) as
provenance, so any measured run names the exact schedule it saw.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro._types import integer_field, integer_ids
from repro.rng import SeedLike, ensure_rng

__all__ = ["ChurnEvent", "ChurnTrace"]


def _event_ids(ids, what: str, n: Optional[int]) -> Tuple[int, ...]:
    """One side of an event under the shared id rule, each id in
    ``[0, n)`` (``n=None``: at least 0)."""
    arr = integer_ids(list(ids), what)
    bad = arr[(arr < 0) | (arr >= n)] if n is not None else arr[arr < 0]
    if bad.size:
        raise ValueError(
            f"{what} ids out of range [0, {'∞' if n is None else n}): {bad.tolist()}"
        )
    return tuple(arr.tolist())


@dataclass(frozen=True)
class ChurnEvent:
    """One batch of membership changes at logical time ``at``."""

    at: float
    leaves: Tuple[int, ...] = ()
    joins: Tuple[int, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "at": self.at,
            "leaves": list(self.leaves),
            "joins": list(self.joins),
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, object], n: Optional[int] = None
    ) -> "ChurnEvent":
        """The event :meth:`to_dict` wrote, validated: every id passes
        the shared id rule (:func:`~repro._types.integer_ids`, so a float
        or a bool is refused, never truncated to another node) and lies
        in ``[0, n)``, and no node both leaves and joins.  A violation
        raises :class:`ValueError` naming the event's time."""
        at = float(data["at"])
        try:
            leaves = _event_ids(data.get("leaves", ()), "leave", n)
            joins = _event_ids(data.get("joins", ()), "join", n)
            both = sorted(set(leaves) & set(joins))
            if both:
                raise ValueError(f"nodes both leave and join: {both}")
        except ValueError as err:
            raise ValueError(f"churn event at={at}: {err}") from None
        return cls(at=at, leaves=leaves, joins=joins)


@dataclass(frozen=True)
class ChurnTrace:
    """A deterministic join/leave schedule over a fixed n-node universe.

    Semantics are membership-churn: node ids never change, a leave
    deactivates an id and a (re)join reactivates it.  Every consumer —
    the distributed epoch simulation, the netsim fault planner, the
    mutable-scheme streaming path — replays the same events.
    """

    n: int
    events: Tuple[ChurnEvent, ...]
    seed: Optional[int] = 0
    rate: float = 0.0

    @classmethod
    def generate(
        cls,
        n: int,
        events: int,
        rate: float = 0.01,
        seed: SeedLike = 0,
        rejoin_after: int = 2,
        exclude: Iterable[int] = (),
    ) -> "ChurnTrace":
        """A replacement-model schedule: each event removes ``~rate·n``
        active nodes, and each departed cohort rejoins exactly
        ``rejoin_after`` events later (a node is never away forever, so
        long traces keep a stable active population).  ``exclude`` pins
        nodes that never churn (round drivers, observers).
        """
        if n < 2:
            raise ValueError(f"need n >= 2, got n={n}")
        if not 0 < rate < 1:
            raise ValueError(f"rate must be in (0, 1), got {rate}")
        rng = ensure_rng(seed)
        protected = np.zeros(n, dtype=bool)
        excl = np.asarray(sorted(set(int(x) for x in exclude)), dtype=np.int64)
        if excl.size:
            if excl.min() < 0 or excl.max() >= n:
                raise ValueError(f"exclude ids out of range [0, {n})")
            protected[excl] = True
        active = np.ones(n, dtype=bool)
        per_event = max(1, int(round(rate * n)))
        cohorts: List[Tuple[int, ...]] = []
        out: List[ChurnEvent] = []
        for e in range(int(events)):
            joins: Tuple[int, ...] = ()
            fresh = np.zeros(n, dtype=bool)
            if e >= rejoin_after and cohorts[e - rejoin_after]:
                joins = cohorts[e - rejoin_after]
                active[list(joins)] = True
                # keep joins and leaves disjoint within one event — the
                # batch-update invariant every consumer relies on
                fresh[list(joins)] = True
            pool = np.flatnonzero(active & ~protected & ~fresh)
            count = min(per_event, max(0, pool.size - 1))
            if count > 0:
                picked = rng.choice(pool, size=count, replace=False)
                leaves = tuple(int(x) for x in np.sort(picked))
                active[list(leaves)] = False
            else:
                leaves = ()
            cohorts.append(leaves)
            out.append(ChurnEvent(at=float(e), leaves=leaves, joins=joins))
        seed_val = None if seed is None else int(seed) if np.isscalar(seed) else None
        return cls(n=int(n), events=tuple(out), seed=seed_val, rate=float(rate))

    # -- queries --------------------------------------------------------

    def final_active(self) -> np.ndarray:
        """The active mask after replaying every event."""
        active = np.ones(self.n, dtype=bool)
        for event in self.events:
            active[list(event.joins)] = True
            active[list(event.leaves)] = False
        return active

    def crash_windows(
        self, start: float = 0.0, spacing: float = 1.0
    ) -> List[Tuple[int, float, float]]:
        """(node, down_at, up_at) windows, pairing each leave with the
        node's next rejoin (``inf`` if it never rejoins).  Times are
        ``start + at·spacing`` — how the netsim fault planner maps
        logical event indices onto simulated seconds."""
        windows: List[Tuple[int, float, float]] = []
        for i, event in enumerate(self.events):
            for node in event.leaves:
                up_at = float("inf")
                for later in self.events[i + 1 :]:
                    if node in later.joins:
                        up_at = start + later.at * spacing
                        break
                windows.append((int(node), start + event.at * spacing, up_at))
        return windows

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (round-trips via :meth:`from_dict`)."""
        return {
            "n": self.n,
            "seed": self.seed,
            "rate": self.rate,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ChurnTrace":
        """The trace :meth:`to_dict` wrote, each event validated against
        the universe ``[0, n)`` (:meth:`ChurnEvent.from_dict`); a bad
        event raises :class:`ValueError` naming its index."""
        n = integer_field(data["n"], "trace n")
        events = []
        for i, event in enumerate(data.get("events", ())):
            try:
                events.append(ChurnEvent.from_dict(event, n=n))
            except ValueError as err:
                raise ValueError(f"trace event {i}: {err}") from None
        return cls(
            n=n,
            events=tuple(events),
            seed=None if data.get("seed") is None else integer_field(data["seed"], "trace seed"),
            rate=float(data.get("rate", 0.0)),
        )

    def digest(self) -> str:
        """Stable content hash of the full schedule."""
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def describe(self) -> Dict[str, object]:
        """The compact provenance record result sets carry."""
        return {
            "n": self.n,
            "events": len(self.events),
            "rate": self.rate,
            "seed": self.seed,
            "digest": self.digest(),
        }
