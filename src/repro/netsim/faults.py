"""Fault injection: crash/restart schedules, partitions, Byzantine nodes.

A :class:`FaultPlan` is consulted by the event network at every send,
delivery and probe.  Three fault families compose freely:

* :class:`Crash` — a node is down during ``[down_at, up_at)``: it takes
  no protocol steps and messages arriving for it are lost.  Restarts are
  warm (protocol state survives — modeling a process that was
  unreachable, not wiped); what a crashed node *loses* is every message
  sent to it while down.
* :class:`Partition` — during ``[start, end)`` messages crossing the
  group boundary are cut (checked at send *and* at arrival, so a long
  in-flight message is severed when the partition rises mid-transit).
* :class:`Byzantine` — misbehaving nodes, two modes straight from the
  ring-table setting: ``"distance"`` liars distort every RTT measured
  *against* them (each interrogator gets its own consistent lie, drawn
  deterministically from ``(seed, liar, asker)`` — consistency per asker
  makes the lie plausible, divergence across askers is what overlap
  audits catch); ``"membership"`` liars replace every list of node ids
  they send (gossip samples, audit walks) with fabricated ids.

Everything is seeded through :func:`repro.rng.ensure_rng`; probe
perturbation is a pure function of ``(seed, liar, asker)`` so results
never depend on probe order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.rng import ensure_rng

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids a cycle
    from repro.distributed.trace import ChurnTrace

__all__ = ["Byzantine", "Crash", "FaultPlan", "Partition"]


@dataclass(frozen=True)
class Crash:
    """One node outage window ``[down_at, up_at)`` (default: forever)."""

    node: int
    down_at: float
    up_at: float = math.inf

    def __post_init__(self) -> None:
        if self.up_at <= self.down_at:
            raise ValueError("up_at must be after down_at")

    def down(self, t: float) -> bool:
        return self.down_at <= t < self.up_at

    def to_dict(self) -> Dict[str, Any]:
        up = None if math.isinf(self.up_at) else self.up_at
        return {"node": self.node, "down_at": self.down_at, "up_at": up}


@dataclass(frozen=True)
class Partition:
    """A two-sided network split active during ``[start, end)``.

    ``group`` is one side; everything else is the other.  Messages with
    endpoints on opposite sides are cut while the partition is up.
    """

    group: Tuple[int, ...]
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("partition end must be after start")

    def severs(self, u: int, v: int, t: float) -> bool:
        if not self.start <= t < self.end:
            return False
        return (u in self.group) != (v in self.group)

    def to_dict(self) -> Dict[str, Any]:
        return {"group": list(self.group), "start": self.start, "end": self.end}


@dataclass(frozen=True)
class Byzantine:
    """Misbehaving nodes and how they lie.

    ``mode``: ``"distance"``, ``"membership"`` or ``"mixed"`` (the first
    half of ``nodes`` lies about distances, the rest about membership).
    ``inflate`` bounds the distance lie: each (liar, asker) pair draws a
    factor uniform in ``[inflate[0], inflate[1]]``.  The default lower
    bound of 2 guarantees the lie crosses a power-of-two annulus
    boundary, the worst case for the liar under a ring audit.
    """

    nodes: Tuple[int, ...]
    mode: str = "distance"
    inflate: Tuple[float, float] = (2.0, 4.0)

    def __post_init__(self) -> None:
        if self.mode not in ("distance", "membership", "mixed"):
            raise ValueError(f"unknown byzantine mode {self.mode!r}")
        lo, hi = self.inflate
        if lo < 1.0 or hi < lo:
            raise ValueError("need 1 <= inflate[0] <= inflate[1]")

    @property
    def distance_liars(self) -> Tuple[int, ...]:
        if self.mode == "distance":
            return self.nodes
        if self.mode == "membership":
            return ()
        return self.nodes[: (len(self.nodes) + 1) // 2]

    @property
    def membership_liars(self) -> Tuple[int, ...]:
        if self.mode == "membership":
            return self.nodes
        if self.mode == "distance":
            return ()
        return self.nodes[(len(self.nodes) + 1) // 2 :]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "nodes": list(self.nodes),
            "mode": self.mode,
            "inflate": list(self.inflate),
        }


@dataclass
class FaultPlan:
    """The composed fault schedule one network run executes.

    ``churn_trace`` is the shared :class:`~repro.distributed.trace.ChurnTrace`
    the crash windows were derived from, when the scenario churns
    membership — carried for provenance so a measured run can name the
    exact schedule (and other churn consumers can replay it).
    """

    crashes: Tuple[Crash, ...] = ()
    partitions: Tuple[Partition, ...] = ()
    byzantine: Optional[Byzantine] = None
    seed: int = 0
    churn_trace: Optional["ChurnTrace"] = None

    def __post_init__(self) -> None:
        self.crashes = tuple(self.crashes)
        self.partitions = tuple(self.partitions)
        self._by_node: Dict[int, List[Crash]] = {}
        for crash in self.crashes:
            self._by_node.setdefault(crash.node, []).append(crash)
        byz = self.byzantine
        self._distance_liars = frozenset(byz.distance_liars) if byz else frozenset()
        self._membership_liars = (
            frozenset(byz.membership_liars) if byz else frozenset()
        )
        # Fabrication stream for membership lies (order-deterministic
        # within a single-threaded event run).
        self._fabricate_rng = ensure_rng(self.seed)

    # -- queries the network makes -------------------------------------

    def is_up(self, node: int, t: float) -> bool:
        return not any(c.down(t) for c in self._by_node.get(node, ()))

    def severed(self, u: int, v: int, t: float) -> bool:
        return any(p.severs(u, v, t) for p in self.partitions)

    def byzantine_nodes(self) -> frozenset:
        return self._distance_liars | self._membership_liars

    def perturb_probe(self, asker: int, target: int, d: float) -> float:
        """The distance ``asker`` measures against ``target``.

        Honest targets return ``d`` exactly (the ideal network's
        answer).  A distance liar inflates by a factor drawn once per
        (liar, asker) pair — deterministic however many times and in
        whatever order the pair is probed.
        """
        if target not in self._distance_liars:
            return d
        lo, hi = self.byzantine.inflate
        pair_rng = np.random.default_rng([self.seed, int(target), int(asker)])
        return d * float(pair_rng.uniform(lo, hi))

    def tamper_payload(
        self, sender: int, payload: Dict[str, Any], n: int
    ) -> Dict[str, Any]:
        """Corrupt outgoing id lists of membership liars.

        Every payload value that is a list of ints (a gossip sample, an
        audit walk) is replaced by fabricated node ids of the same
        length.  Other senders and other payload shapes pass through
        untouched.
        """
        if sender not in self._membership_liars:
            return payload
        out = dict(payload)
        for key, value in payload.items():
            if (
                isinstance(value, list)
                and value
                and all(isinstance(x, (int, np.integer)) for x in value)
            ):
                out[key] = [
                    int(x)
                    for x in self._fabricate_rng.integers(0, n, size=len(value))
                ]
        return out

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "crashes": [c.to_dict() for c in self.crashes],
            "partitions": [p.to_dict() for p in self.partitions],
            "byzantine": None if self.byzantine is None else self.byzantine.to_dict(),
            "seed": self.seed,
        }
        if self.churn_trace is not None:
            out["churn_trace"] = self.churn_trace.to_dict()
        return out


def sample_nodes(
    rng, population: Iterable[int], count: int
) -> Tuple[int, ...]:
    """Draw ``count`` distinct nodes from ``population`` (sorted draw
    order, deterministic given the generator state)."""
    pool = np.asarray(sorted(population), dtype=np.int64)
    count = min(count, pool.size)
    if count <= 0:
        return ()
    picked = rng.choice(pool, size=count, replace=False)
    return tuple(int(x) for x in np.sort(picked))
