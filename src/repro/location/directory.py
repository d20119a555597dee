"""LAND/Plaxton-style object location over nested nets.

**Publish** (object with key k held by owner o): for every scale j, every
level-j net point within ``pointer_radius_factor · 2^j`` of o stores the
directory entry ``k -> o``.  That is O(1) pointers per scale (Lemma 1.4),
O(log Δ) in total per object.

**Locate** (from source s): for j = 0, 1, 2, …, probe the nearest level-j
net point to s; the first one holding a pointer for k reveals o, and the
query then goes to o directly.  The *cost* of the lookup is the metric
length of the full probe itinerary (s -> v_0 -> s -> v_1 -> … -> v_hit ->
o, with round trips to unsuccessful probes), and the classic doubling
argument bounds it by O(d(s, o)):

once ``2^j ≳ d(s, o)``, the net point ``v_j`` near s lies within
``2^j + d(s,o) ≲ pointer_radius_factor · 2^j`` of o and therefore holds a
pointer, while all earlier probes were to net points within ``2^i ≪ d``
of s.  Tests assert the measured stretch against that constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

from repro._types import NodeId
from repro.bits import SizeAccount, bits_for_count
from repro.metrics.base import MetricSpace
from repro.metrics.nets import NestedNets

#: Object keys are arbitrary hashables.
ObjectKey = Hashable


@dataclass
class LocateResult:
    """Outcome of one lookup."""

    key: ObjectKey
    source: NodeId
    owner: Optional[NodeId]
    probes: List[NodeId]
    cost: float

    @property
    def found(self) -> bool:
        return self.owner is not None

    def stretch(self, metric: MetricSpace) -> float:
        """cost / d(source, owner); 1.0 when the source is the owner."""
        if self.owner is None:
            return float("inf")
        d = metric.distance(self.source, self.owner)
        if d == 0:
            return 1.0
        return self.cost / d


class RingObjectLocation:
    """Publish/locate directory over a nested net hierarchy."""

    def __init__(
        self,
        metric: MetricSpace,
        nets: Optional[NestedNets] = None,
        pointer_radius_factor: float = 4.0,
    ) -> None:
        if pointer_radius_factor < 2.0:
            raise ValueError(
                "pointer_radius_factor below 2 cannot guarantee lookups "
                "(the scale-j probe sits up to 2^j + d from the owner)"
            )
        self.metric = metric
        if nets is None:
            levels = metric.log_aspect_ratio() + 2
            nets = NestedNets(metric, levels=levels, base_radius=metric.min_distance())
        self.nets = nets
        self.pointer_radius_factor = pointer_radius_factor
        #: node -> {key -> owner}
        self._directory: Dict[NodeId, Dict[ObjectKey, NodeId]] = {
            u: {} for u in range(metric.n)
        }
        self._owners: Dict[ObjectKey, NodeId] = {}

    # ------------------------------------------------------------------
    # Publish / unpublish
    # ------------------------------------------------------------------

    def publish(self, key: ObjectKey, owner: NodeId) -> int:
        """Install directory pointers for ``key``; returns pointer count."""
        if key in self._owners:
            raise KeyError(f"object {key!r} already published")
        if not 0 <= owner < self.metric.n:
            raise ValueError(f"owner {owner} out of range")
        count = 0
        for j in range(self.nets.levels):
            radius = self.pointer_radius_factor * self.nets.radius_of(j)
            for v in self.nets.members_in_ball(j, owner, radius):
                entry = self._directory[int(v)]
                if key not in entry:
                    entry[key] = owner
                    count += 1
        self._owners[key] = owner
        return count

    def unpublish(self, key: ObjectKey) -> None:
        """Remove every pointer for ``key``."""
        if key not in self._owners:
            raise KeyError(f"object {key!r} not published")
        for entry in self._directory.values():
            entry.pop(key, None)
        del self._owners[key]

    def published_keys(self) -> List[ObjectKey]:
        return list(self._owners)

    # ------------------------------------------------------------------
    # Locate
    # ------------------------------------------------------------------

    def locate(self, key: ObjectKey, source: NodeId) -> LocateResult:
        """Probe net points of increasing scale until a pointer is found."""
        row = self.metric.distances_from(source)
        probes: List[NodeId] = []
        cost = 0.0
        for j in range(self.nets.levels):
            v = self.nets.nearest_member(j, source)
            if not probes or probes[-1] != v:
                probes.append(v)
                owner = self._directory[v].get(key)
                if owner is not None:
                    # Round trips to all failed probes + one way to the
                    # hit + the final leg to the owner.
                    cost += float(row[v])
                    cost += self.metric.distance(v, owner)
                    return LocateResult(
                        key=key, source=source, owner=owner, probes=probes, cost=cost
                    )
                cost += 2.0 * float(row[v])
        return LocateResult(key=key, source=source, owner=None, probes=probes, cost=cost)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def directory_bits(self, u: NodeId, key_bits: int = 64) -> SizeAccount:
        """Directory storage at node u (key hash + owner id per entry)."""
        account = SizeAccount()
        entries = len(self._directory[u])
        account.add("directory_keys", entries * key_bits)
        account.add("directory_owners", entries * bits_for_count(self.metric.n))
        return account

    def pointers_per_object(self, key: ObjectKey) -> int:
        return sum(1 for d in self._directory.values() if key in d)
