"""CSR-packed rings of neighbors — the one ring representation.

:class:`PackedRings` holds every ring of a structure in four flat arrays:

* ``members`` — every ring's members concatenated, **node-major** (all
  rings of node 0, then node 1, …), ``int32``;
* ``indptr`` — CSR offsets: ring ``k`` of node ``u`` occupies
  ``members[indptr[u*K + k] : indptr[u*K + k + 1]]``;
* ``radii`` — an ``(n, K)`` float array of ring radii;
* ``keys`` — the ring-key vocabulary shared by all nodes (scale indices
  for every builder in :mod:`repro.core.rings`).

Reads are array views (:meth:`PackedRings.members_of`), so nothing
Θ(n·K) in Python objects is ever pinned.  Sample provenance (builder
name, seed, samples-per-ring) rides along for the §5 sampled builders.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._types import NodeId
from repro.bits import SizeAccount
from repro.metrics.base import MetricSpace

__all__ = ["PackedRings", "csr_gather", "exact_capped_rings", "pack_csr", "spans"]


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
    return spans(starts, counts), counts


def spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions ``starts[i] .. starts[i] + counts[i] - 1`` of every
    span, concatenated in the order given, in one vectorized pass."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    # Output slot p of span i holds starts[i] + (p - first slot of i).
    idx = np.arange(total, dtype=np.int64)
    idx += np.repeat(starts - (ends - counts), counts)
    return idx


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

    def members_of(self, u: NodeId, key: Any) -> np.ndarray:
        """Member array of ``u``'s ring at ``key`` (a view, not a copy)."""
        i = u * len(self.keys) + self._key_index[key]
        return self.members[self.indptr[i] : self.indptr[i + 1]]

    def ring_sizes(self) -> np.ndarray:
        """Per-(node, key) member counts as an ``(n, K)`` array."""
        return np.diff(self.indptr).reshape(self.n, len(self.keys))

    def max_ring_cardinality(self) -> int:
        """The paper's K — the largest single ring."""
        if self.members.size == 0:
            return 0
        return int(np.diff(self.indptr).max())

    def _node_span(self, u: NodeId) -> np.ndarray:
        """All ring members of ``u`` concatenated (contiguous by layout)."""
        K = len(self.keys)
        return self.members[self.indptr[u * K] : self.indptr[(u + 1) * K]]

    def with_sorted_members(self) -> "PackedRings":
        """A copy whose per-ring member arrays are sorted ascending (host
        enumerations for the routing schemes), via one in-place sort of
        the keys ``ring·n + member``: members lie in ``[0, n)``, so the
        keys order by ring, then by member, and ``key mod n`` is the
        member."""
        counts = np.diff(self.indptr)
        keys = np.repeat(np.arange(counts.size, dtype=np.int64) * self.n, counts)
        keys += self.members
        keys.sort()
        keys %= self.n
        return PackedRings(
            self.metric, self.keys, self.radii, self.indptr,
            keys, dict(self.provenance, sorted=True),
        )

    # -- accounting -----------------------------------------------------

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
