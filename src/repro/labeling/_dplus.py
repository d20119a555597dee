"""Batched D+ over common-beacon labels (shared by the ring schemes).

Both :class:`~repro.labeling.triangulation.RingTriangulation` and its
corollary DLS store, per node, a ``beacon -> distance`` label and answer
``estimate(u, v)`` with ``D+ = min_b (d_ub + d_vb)`` over the *common*
beacons ``b``.  :class:`PackedLabels` holds those labels in CSR form
(per-row sorted beacon ids + distances) and answers a whole pair batch
without sorting anything:

1. scatter each u-row's distances into a ``(c × n)`` scratch block of
   ``+inf`` at ``row·n + beacon`` (one block row per pair of the chunk);
2. gather the v-rows' entries back from the same slots and add
   ``d_vb`` — a beacon u does not know reads ``+inf`` and drops out of
   the min;
3. ``np.minimum.reduceat`` over each pair's v-row gives its D+, and only
   the slots written in step 1 are reset for the next chunk.

Every answer is the same two-float sum ``d_ub + d_vb`` and an exact
minimum, over the common beacons in the same order, as a per-pair
intersection takes, so results are bit-identical to
:meth:`RingTriangulation.estimate`.  A chunk of ``c`` pairs costs
O(L + c·n) for its L gathered label entries, against O(L log L) for
intersecting sorted ``(pair, beacon)`` keys.  Chunks hold
``c = min(m, SCRATCH // n)`` pairs (at least one), which bounds the block
at :data:`SCRATCH` entries for ``n <= SCRATCH`` and the gathered mass at
``2·c·n``.  The ``c·n`` fill is the price.  Timed on 256-pair batches
on a 2-vCPU Xeon: on synthetic rows holding 1% of n the sort was cheaper
(the scatter ran at 0.65× its speed at n = 10³ and 10⁴), and the two
broke even between 1% and 3%.  No workload builds such rows: the paper's
triangulations hold 72-100% of n in every row at n ≈ 1000 (uline, ring,
grid, clustered, internet, hypercube), where the scatter ran 3.7-5.2×
faster.  Batching D+ this way keeps :func:`repro.engine.bulk_estimates`
vectorized for the paper's own schemes instead of falling back to the
per-pair loop.
"""

from __future__ import annotations

import numpy as np

from repro.core.packed import csr_gather

__all__ = ["PackedLabels", "SCRATCH"]

#: Entries in the per-call scratch block (512 KB of float64).  The
#: kernel is memory-bound: a chunk this size keeps the block and the
#: chunk's gathered temporaries near a core's L2, where 2^20 entries
#: spill (256-pair batches, full rows, 2 MB L2 per core: 3.0 ms at 2^16
#: against 4.7 ms at 2^20 for n = 500, 4.7 against 6.3 ms for n = 1000).
SCRATCH = 1 << 16


class PackedLabels:
    """Common-neighbor labels packed (CSR) for batched D+ evaluation.

    Wraps already-packed label arrays of an ``n``-node structure —
    ``ids[indptr[u]:indptr[u+1]]`` are u's beacons (distinct) and
    ``dist`` their distances — without copying them.
    """

    def __init__(
        self, n: int, indptr: np.ndarray, ids: np.ndarray, dist: np.ndarray
    ) -> None:
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.dist = np.asarray(dist, dtype=float)

    def dplus_many(self, us, vs) -> np.ndarray:
        """``min_b (d_ub + d_vb)`` per pair (0 on the diagonal, ``inf``
        when a pair shares no beacon), in chunks of
        ``max(1, min(m, SCRATCH // n))`` of the ``m`` pairs."""
        us = np.asarray(us, dtype=np.int64).ravel()
        vs = np.asarray(vs, dtype=np.int64).ravel()
        m, n = us.shape[0], self.n
        out = np.full(m, np.inf, dtype=float)
        if m == 0:
            return out
        chunk = max(1, min(m, SCRATCH // n))
        block = np.full(chunk * n, np.inf, dtype=float)
        for lo in range(0, m, chunk):
            hi = min(m, lo + chunk)
            row_base = np.arange(0, (hi - lo) * n, n, dtype=np.int64)
            idx_u, counts_u = csr_gather(self.indptr, us[lo:hi])
            slots = np.repeat(row_base, counts_u) + self.ids[idx_u]
            block[slots] = self.dist[idx_u]
            idx_v, counts_v = csr_gather(self.indptr, vs[lo:hi])
            sums = block[np.repeat(row_base, counts_v) + self.ids[idx_v]]
            sums += self.dist[idx_v]
            block[slots] = np.inf
            filled = np.flatnonzero(counts_v)
            if filled.size:
                starts = (np.cumsum(counts_v) - counts_v)[filled]
                out[lo + filled] = np.minimum.reduceat(sums, starts)
        out[us == vs] = 0.0
        return out
