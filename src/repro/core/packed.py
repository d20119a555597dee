"""CSR-packed rings of neighbors — the array backend for every builder.

A :class:`~repro.core.rings.RingsOfNeighbors` stores one Python ``Ring``
object (an owner, a key, a radius and a member *tuple*) per (node, key)
pair; at n = 10⁴ and K·log Δ rings per node that representation costs
tens of bytes per member and caps the Theorem 2.1/3.2/3.4 structures
around n ≈ 10³.  :class:`PackedRings` holds the same information in four
flat arrays:

* ``members`` — every ring's members concatenated, **node-major** (all
  rings of node 0, then node 1, …), ``int32``;
* ``indptr`` — CSR offsets: ring ``k`` of node ``u`` occupies
  ``members[indptr[u*K + k] : indptr[u*K + k + 1]]``;
* ``radii`` — an ``(n, K)`` float array of ring radii;
* ``keys`` — the ring-key vocabulary shared by all nodes (scale indices
  for the deterministic builders, ``(i, j)`` tuples for Theorem 5.2(b)).

The class exposes the full read API of ``RingsOfNeighbors`` (``ring``,
``rings_of``, ``neighbors_of``, ``out_degree``, ``pointer_bits``, …), so
existing call sites keep working; ``rings_of``/``ring`` materialize
legacy :class:`~repro.core.rings.Ring` views lazily and nothing Θ(n·K)
in Python objects is ever pinned.  Sample provenance (builder name,
seed, samples-per-ring) rides along for the §5 sampled builders.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._types import NodeId
from repro.bits import SizeAccount, bits_for_count
from repro.metrics.base import MetricSpace

__all__ = ["PackedRings", "csr_gather", "exact_capped_rings", "pack_csr"]


def pack_csr(
    chunks: Sequence[np.ndarray], dtype=np.int32
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate per-row arrays into one CSR block.

    Returns ``(indptr, data)`` with ``data[indptr[i]:indptr[i+1]]``
    holding row ``i``.  The one packing idiom every CSR consumer in the
    library shares (ring structures, label arrays, neighbor sets).
    """
    chunk_list = [np.asarray(c).ravel() for c in chunks]
    counts = np.fromiter(
        (c.size for c in chunk_list), dtype=np.int64, count=len(chunk_list)
    )
    indptr = np.concatenate([[0], np.cumsum(counts)])
    data = (
        np.concatenate(chunk_list) if chunk_list else np.empty(0, dtype)
    ).astype(dtype, copy=False)
    return indptr, data


def csr_gather(
    indptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Where ``rows`` sit in a CSR block, in one vectorized pass.

    Returns ``(idx, counts)``: ``data[idx]`` is the rows' entries
    concatenated in the order given (``data[indptr[r]:indptr[r+1]]`` for
    each ``r``), and ``counts[i]`` is the length of row ``rows[i]``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    # Output slot p of row i holds entry starts[i] + (p - first slot of i).
    idx = np.arange(total, dtype=np.int64)
    idx += np.repeat(starts - (ends - counts), counts)
    return idx, counts


class PackedRings:
    """Rings of neighbors packed into CSR arrays (one block per structure).

    Construction goes through :meth:`from_ring_chunks`, which the
    builders in :mod:`repro.core.rings` feed with per-ring member arrays
    in node-major order.  Ring keys are shared across nodes — every node
    has exactly one ring per key, matching what all the paper's builders
    produce.
    """

    def __init__(
        self,
        metric: MetricSpace,
        keys: Sequence[Any],
        radii: np.ndarray,
        indptr: np.ndarray,
        members: np.ndarray,
        provenance: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.metric = metric
        self.keys: Tuple[Any, ...] = tuple(keys)
        self.radii = np.asarray(radii, dtype=float)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.members = np.asarray(members, dtype=np.int32)
        #: builder name + sampling parameters (the §5 builders record
        #: their seed and samples_per_ring here)
        self.provenance: Dict[str, Any] = dict(provenance or {})
        n, K = metric.n, len(self.keys)
        if self.radii.shape != (n, K):
            raise ValueError(f"radii must be (n, K)=({n}, {K}), got {self.radii.shape}")
        if self.indptr.shape != (n * K + 1,):
            raise ValueError(
                f"indptr must have n*K+1={n * K + 1} entries, got {self.indptr.shape}"
            )
        self._key_index: Dict[Any, int] = {k: i for i, k in enumerate(self.keys)}

    # -- construction ---------------------------------------------------

    @classmethod
    def from_ring_chunks(
        cls,
        metric: MetricSpace,
        keys: Sequence[Any],
        radii: np.ndarray,
        chunks: Iterable[np.ndarray],
        provenance: Optional[Mapping[str, Any]] = None,
    ) -> "PackedRings":
        """Pack per-ring member arrays (node-major: all of node 0's rings
        first, in key order) into one CSR block."""
        chunk_list = list(chunks)
        n, K = metric.n, len(keys)
        if len(chunk_list) != n * K:
            raise ValueError(
                f"expected {n * K} ring chunks (n·K), got {len(chunk_list)}"
            )
        indptr, members = pack_csr(chunk_list, dtype=np.int32)
        return cls(metric, keys, radii, indptr, members, provenance)

    # -- core lookups ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.metric.n

    def _ring_slice(self, u: NodeId, k: int) -> np.ndarray:
        i = u * len(self.keys) + k
        return self.members[self.indptr[i] : self.indptr[i + 1]]

    def members_of(self, u: NodeId, key: Any) -> np.ndarray:
        """Member array of ``u``'s ring at ``key`` (a view, not a copy)."""
        return self._ring_slice(u, self._key_index[key])

    def radius(self, u: NodeId, key: Any) -> float:
        return float(self.radii[u, self._key_index[key]])

    def ring_sizes(self) -> np.ndarray:
        """Per-(node, key) member counts as an ``(n, K)`` array."""
        return np.diff(self.indptr).reshape(self.n, len(self.keys))

    def max_ring_cardinality(self) -> int:
        """The paper's K — the largest single ring."""
        if self.members.size == 0:
            return 0
        return int(np.diff(self.indptr).max())

    # -- legacy (dict) view --------------------------------------------

    def ring(self, u: NodeId, key: Any):
        """The ring of ``u`` at ``key`` as a legacy :class:`Ring`, or None."""
        from repro.core.rings import Ring

        k = self._key_index.get(key)
        if k is None:
            return None
        return Ring(
            owner=u,
            key=key,
            radius=float(self.radii[u, k]),
            members=tuple(int(x) for x in self._ring_slice(u, k)),
        )

    def rings_of(self, u: NodeId) -> Dict[Any, Any]:
        """All rings of ``u`` as a key → :class:`Ring` dict (materialized
        on the fly; the packed arrays stay the source of truth)."""
        return {key: self.ring(u, key) for key in self.keys}

    # -- neighbor queries ----------------------------------------------

    def _node_span(self, u: NodeId) -> np.ndarray:
        """All ring members of ``u`` concatenated (contiguous by layout)."""
        K = len(self.keys)
        return self.members[self.indptr[u * K] : self.indptr[(u + 1) * K]]

    def neighbors_of(self, u: NodeId) -> List[NodeId]:
        """Distinct neighbors of ``u`` across rings (excluding u), in
        first-occurrence order — exactly the legacy semantics."""
        span = self._node_span(u)
        span = span[span != u]
        if span.size == 0:
            return []
        uniq, first = np.unique(span, return_index=True)
        return [int(x) for x in uniq[np.argsort(first, kind="stable")]]

    def out_degree(self, u: NodeId) -> int:
        span = self._node_span(u)
        span = span[span != u]
        if span.size == 0:
            return 0
        return int(np.unique(span).size)

    def out_degrees(self) -> np.ndarray:
        return np.fromiter(
            (self.out_degree(u) for u in range(self.n)), dtype=np.int64,
            count=self.n,
        )

    def max_out_degree(self) -> int:
        return int(self.out_degrees().max()) if self.n else 0

    # -- composition ----------------------------------------------------

    def merged_with(self, other: "PackedRings") -> "PackedRings":
        """A new packed structure holding both collections, with keys
        prefixed ``("a", key)`` / ``("b", key)`` as in the legacy merge."""
        if other.metric.n != self.metric.n:
            raise ValueError("cannot merge rings over different metrics")
        keys = [("a", k) for k in self.keys] + [("b", k) for k in other.keys]
        radii = np.hstack([self.radii, other.radii])
        chunks: List[np.ndarray] = []
        for u in range(self.n):
            for k in range(len(self.keys)):
                chunks.append(self._ring_slice(u, k))
            for k in range(len(other.keys)):
                chunks.append(other._ring_slice(u, k))
        provenance = {"builder": "merged", "a": self.provenance,
                      "b": other.provenance}
        return PackedRings.from_ring_chunks(
            self.metric, keys, radii, chunks, provenance
        )

    def with_sorted_members(self) -> "PackedRings":
        """A copy whose per-ring member arrays are sorted ascending (host
        enumerations for the routing schemes), via one global lexsort."""
        counts = np.diff(self.indptr)
        ring_of = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        order = np.lexsort((self.members, ring_of))
        return PackedRings(
            self.metric, self.keys, self.radii, self.indptr,
            self.members[order], dict(self.provenance, sorted=True),
        )

    # -- incremental membership ----------------------------------------

    def membership_patch(self, membership=None):
        """A :class:`~repro.core.patch.CSRPatch` over this structure's
        member arrays — the entry point for join/leave churn.  The rings
        themselves stay pristine; reads through the patch see them
        filtered to the live active set."""
        from repro.core.patch import CSRPatch, Membership

        if membership is None:
            membership = Membership(self.n)
        return CSRPatch(self.indptr, self.members, membership=membership)

    # -- accounting -----------------------------------------------------

    def pointer_bits(self, u: NodeId) -> SizeAccount:
        """Bits to store u's neighbor pointers as global ids (the naive
        encoding the paper improves on with local enumerations)."""
        account = SizeAccount()
        account.add(
            "global_id_pointers", self.out_degree(u) * bits_for_count(self.n)
        )
        return account

    def storage_account(self) -> SizeAccount:
        """Exact resident storage of the packed arrays, from their widths."""
        account = SizeAccount()
        account.add("members", int(self.members.nbytes) * 8)
        account.add("indptr", int(self.indptr.nbytes) * 8)
        account.add("radii", int(self.radii.nbytes) * 8)
        return account

    def resident_bytes(self) -> int:
        """Bytes actually held by the backing arrays."""
        return int(self.members.nbytes + self.indptr.nbytes + self.radii.nbytes)

    def __repr__(self) -> str:
        return (
            f"PackedRings(n={self.n}, keys={len(self.keys)}, "
            f"members={self.members.size}, bytes={self.resident_bytes()})"
        )


def exact_capped_rings(
    metric: MetricSpace,
    base: float,
    levels: int,
    cap: Optional[int] = None,
) -> PackedRings:
    """The theoretical annulus rings the §6 protocols are scored against.

    Ring ``j`` of ``u`` holds the nodes whose distance falls in the
    annulus ``(base·2^{j-1}, base·2^j]`` (ring 0: ``(0, base]``),
    truncated to the ``cap`` nearest members — the exact structure
    bounded-capacity gossip could at best discover.  Built row by row
    with one vectorized bucketing pass per node.
    """
    edges = base * np.exp2(np.arange(levels))
    keys = list(range(levels))
    n = metric.n
    radii = np.tile(edges, (n, 1))
    chunks: List[np.ndarray] = []
    for u in range(n):
        row = np.asarray(metric.distances_from(u), dtype=float)
        scale = np.searchsorted(edges, row, side="left")
        order = np.argsort(row, kind="stable")
        valid = order[(row[order] > 0) & (order != u)]
        ring_of = scale[valid]
        for j in range(levels):
            ring = valid[ring_of == j]
            chunks.append(ring if cap is None else ring[:cap])
    return PackedRings.from_ring_chunks(
        metric, keys, radii, chunks,
        provenance={"builder": "exact_capped", "base": float(base), "cap": cap},
    )
