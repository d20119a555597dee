"""The rings-of-neighbors data structure and its standard builders.

A :class:`Ring` is one scale's worth of neighbor pointers for one node: the
member list plus the ball (radius) it is drawn from.  A
:class:`RingsOfNeighbors` maps every node to its rings, indexed by ring
key (an int scale index, or a tuple for Theorem 5.2(b)'s doubly-indexed
``Y_{u,i,j}`` rings).

Builders:

* :func:`net_rings` — ``Y_uj = B_u(r_j) ∩ G_j`` (Theorem 2.1, 3.2, 4.1):
  deterministic, net-based; cardinality bounded by Lemma 1.4.
* :func:`cardinality_rings` — ``X_ui``: uniform samples from the smallest
  ball holding ``n/2^i`` nodes (Theorem 5.2).
* :func:`measure_rings` — samples w.r.t. a doubling measure from balls of
  exponentially growing radius (Theorem 5.2, 5.5).

All three build the CSR-backed :class:`~repro.core.packed.PackedRings`
by default (``backend="packed"``), which exposes the full read API of
the legacy dict structure; pass ``backend="dict"`` for the per-node
``Dict[RingKey, Ring]`` representation — kept for the bit-for-bit
round-trip property tests and the packed-vs-dict benchmark.  Both
backends consume the same member/sample streams, so they hold
*identical* rings (same keys, radii, member order, and — for the
sampled builders — the same RNG draws).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro._types import NodeId
from repro.bits import SizeAccount, bits_for_count
from repro.core.packed import PackedRings
from repro.metrics.base import MetricSpace
from repro.metrics.measure import DoublingMeasure
from repro.metrics.nets import NestedNets
from repro.rng import SeedLike, ensure_rng

#: Rings are keyed by scale index; Theorem 5.2(b) uses (i, j) tuples.
RingKey = Hashable


@dataclass(frozen=True)
class Ring:
    """One ring: the members sampled/selected inside ``B_owner(radius)``."""

    owner: NodeId
    key: RingKey
    radius: float
    members: Tuple[NodeId, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.members)

    def __contains__(self, node: NodeId) -> bool:
        return node in self.members


class RingsOfNeighbors:
    """Per-node collections of rings (the paper's overlay structure)."""

    def __init__(self, metric: MetricSpace) -> None:
        self.metric = metric
        self._rings: Dict[NodeId, Dict[RingKey, Ring]] = {
            u: {} for u in range(metric.n)
        }

    def add_ring(self, ring: Ring) -> None:
        self._rings[ring.owner][ring.key] = ring

    def ring(self, u: NodeId, key: RingKey) -> Optional[Ring]:
        """The ring of ``u`` at ``key``, or None."""
        return self._rings[u].get(key)

    def rings_of(self, u: NodeId) -> Dict[RingKey, Ring]:
        return self._rings[u]

    def neighbors_of(self, u: NodeId) -> List[NodeId]:
        """All distinct neighbors of ``u`` across rings (excluding u)."""
        seen: set[NodeId] = set()
        out: List[NodeId] = []
        for ring in self._rings[u].values():
            for v in ring.members:
                if v != u and v not in seen:
                    seen.add(v)
                    out.append(v)
        return out

    def out_degree(self, u: NodeId) -> int:
        """Number of distinct neighbors of ``u``."""
        return len(self.neighbors_of(u))

    def max_out_degree(self) -> int:
        return max(self.out_degree(u) for u in range(self.metric.n))

    def max_ring_cardinality(self) -> int:
        """The paper's K — the largest single ring."""
        best = 0
        for per_node in self._rings.values():
            for ring in per_node.values():
                best = max(best, len(ring))
        return best

    def merged_with(self, other: "RingsOfNeighbors") -> "RingsOfNeighbors":
        """A new structure holding both ring collections.

        Keys are disambiguated by prefixing with the collection index, so
        combining e.g. X-type and Y-type rings never collides.
        """
        merged = RingsOfNeighbors(self.metric)
        for tag, source in (("a", self), ("b", other)):
            for u in range(self.metric.n):
                for key, ring in source.rings_of(u).items():
                    merged.add_ring(
                        Ring(ring.owner, (tag, key), ring.radius, ring.members)
                    )
        return merged

    def pointer_bits(self, u: NodeId) -> SizeAccount:
        """Bits to store u's neighbor pointers as global ids (the naive
        encoding the paper improves on with local enumerations)."""
        account = SizeAccount()
        id_bits = bits_for_count(self.metric.n)
        account.add("global_id_pointers", self.out_degree(u) * id_bits)
        return account


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------

#: Either representation — every builder returns one of these.
AnyRings = Union[PackedRings, RingsOfNeighbors]


def _pack_or_dict(
    metric: MetricSpace,
    backend: str,
    keys: List[RingKey],
    radii: np.ndarray,
    chunks: List[np.ndarray],
    provenance: Dict[str, Any],
) -> AnyRings:
    """Assemble one builder's ring stream into the requested backend.

    ``chunks`` are node-major per-ring member arrays (the sampled
    builders hand them over already deduplicated and sorted).
    """
    if backend == "packed":
        return PackedRings.from_ring_chunks(metric, keys, radii, chunks, provenance)
    if backend != "dict":
        raise ValueError(f"unknown rings backend {backend!r}")
    rings = RingsOfNeighbors(metric)
    K = len(keys)
    for u in range(metric.n):
        for k, key in enumerate(keys):
            members = chunks[u * K + k]
            rings.add_ring(
                Ring(u, key, float(radii[u, k]),
                     tuple(int(x) for x in members))
            )
    return rings


def net_rings(
    metric: MetricSpace,
    nets: NestedNets,
    radius_for_level: Callable[[int], float],
    levels: Optional[Iterable[int]] = None,
    backend: str = "packed",
    return_nearest: bool = False,
) -> Union[AnyRings, Tuple[AnyRings, np.ndarray]]:
    """Deterministic rings ``Y_uj = B_u(radius_for_level(j)) ∩ G_j``.

    This is the Theorem 2.1 construction with ``radius_for_level(j) =
    4Δ/(δ 2^j)`` and the Theorem 4.1 construction with ``2^{j+2}/δ``.
    Members are in net order (the level's admission order), identical
    across backends.

    Every level comes from one pass over the nodes' distance rows
    (:meth:`~repro.metrics.nets.NestedNets.scan`), each row asked once.
    With ``return_nearest`` the same pass also gives each target's
    nearest member of every level (Theorem 2.1's zooming entries ``f_tj``),
    returned as an ``(n, levels)`` array after the rings.
    """
    level_list = list(levels) if levels is not None else list(range(nets.levels))
    radii = [radius_for_level(j) for j in level_list]
    chunks, nearest = nets.scan(level_list, radii, nearest=return_nearest)
    rings = _pack_or_dict(
        metric, backend, level_list,
        np.tile(np.asarray(radii, dtype=float), (metric.n, 1)), chunks,
        provenance={"builder": "net_rings", "levels": level_list},
    )
    return (rings, nearest) if return_nearest else rings


def cardinality_rings(
    metric: MetricSpace,
    samples_per_ring: int,
    levels: Optional[int] = None,
    seed: SeedLike = None,
    backend: str = "packed",
) -> AnyRings:
    """X-type rings: for each i, uniform samples from ``B_ui`` (§5.1).

    ``B_ui`` is the smallest ball around u containing at least ``n/2^i``
    nodes; level count defaults to ``ceil(log2 n)``.  Sampling is with
    replacement, mirroring the paper ("select a node independently and
    uniformly at random from the ball B_ui; repeat c log n times"); members
    are deduplicated within a ring.  Both backends consume the identical
    RNG stream, so the rings round-trip bit for bit.
    """
    rng = ensure_rng(seed)
    n = metric.n
    if levels is None:
        levels = max(1, int(np.ceil(np.log2(n))))
    counts = np.ceil(n / np.exp2(np.arange(levels))).astype(int).clip(1, n)
    chunks: List[np.ndarray] = []
    all_radii = np.empty((n, levels))
    for u in range(n):
        row = metric.distances_from(u)
        # All level radii from one sorted row instead of `levels` rui calls.
        radii = np.sort(row)[counts - 1]
        all_radii[u] = radii
        for i in range(levels):
            members = np.flatnonzero(row <= radii[i])
            chosen = rng.choice(members, size=samples_per_ring, replace=True)
            chunks.append(np.unique(chosen))
    return _pack_or_dict(
        metric, backend, list(range(levels)), all_radii, chunks,
        provenance={
            "builder": "cardinality_rings",
            "samples_per_ring": int(samples_per_ring),
            "seed": seed if isinstance(seed, (int, type(None))) else repr(seed),
        },
    )


def measure_rings(
    metric: MetricSpace,
    mu: DoublingMeasure,
    samples_per_ring: int,
    seed: SeedLike = None,
    base_radius: float = 1.0,
    backend: str = "packed",
) -> AnyRings:
    """Y-type rings: µ-weighted samples from balls ``B_u(base * 2^j)`` (§5.1).

    One ring per distance scale ``j ∈ [log Δ]``; this is the Theorem 5.2(a)
    Y-neighbor construction and (with one sample) Theorem 5.5's long-range
    link distribution.  Backends share the RNG stream (see
    :func:`cardinality_rings`).
    """
    rng = ensure_rng(seed)
    levels = metric.log_aspect_ratio()
    n = metric.n
    chunks: List[np.ndarray] = []
    radii = np.tile(base_radius * np.exp2(np.arange(levels)), (n, 1))
    for u in range(n):
        for j in range(levels):
            chosen = mu.sample_from_ball(u, float(radii[u, j]), samples_per_ring, rng)
            chunks.append(np.unique(np.asarray(chosen, dtype=np.int64)))
    return _pack_or_dict(
        metric, backend, list(range(levels)), radii, chunks,
        provenance={
            "builder": "measure_rings",
            "samples_per_ring": int(samples_per_ring),
            "base_radius": float(base_radius),
            "seed": seed if isinstance(seed, (int, type(None))) else repr(seed),
        },
    )
