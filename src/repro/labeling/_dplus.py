"""Batched D+ over common-beacon labels (shared by the ring schemes).

Both :class:`~repro.labeling.triangulation.RingTriangulation` and its
corollary DLS store, per node, a ``beacon -> distance`` label and answer
``estimate(u, v)`` with ``D+ = min_b (d_ub + d_vb)`` over the *common*
beacons ``b``.  :class:`PackedLabels` holds those labels in CSR form
(per-row sorted beacon ids + distances) and answers a whole pair batch
from a dense ``(n × n)`` block derived from them on the first batched
read: entry ``(u, w)`` is ``d_uw`` when ``w`` is in u's label and
``+inf`` otherwise.  Per chunk of ``c`` pairs it

1. gathers the u-rows,
2. adds the v-rows in place — a beacon missing from either label reads
   ``+inf`` and drops out of the min,
3. sets the columns of the ``inactive`` nodes to ``+inf``, and
4. takes the row min, with 0 on the diagonal.

Every answer is the same two-float sum ``d_ub + d_vb`` and an exact
minimum over the common (active) beacons, as a per-pair intersection
takes, so results are bit-identical to
:meth:`RingTriangulation.estimate`.  Chunks hold
``c = max(1, SCRATCH // n)`` pairs, which bounds each temporary at
:data:`SCRATCH` entries for ``n <= SCRATCH``.

The block costs ``n²·8`` bytes, once per structure that serves a batched
read: 2 MB at n = 500 (the CSR labels take 4 MB there) and 32 MB at
n = 2000.  The paper's triangulations hold 94-100% of n in every label
at the sizes we build, so the block is about the size of the labels
themselves.  Timed on 256-pair batches at n = 1000 on a 2-vCPU Xeon
against the sort-free CSR scatter it replaces (medians of 50 calls):
5.7 → 0.45 ms with rows holding all of n, 0.85 → 0.55 ms at 10%, and
0.31 → 0.56 ms at 1%, where the block is ~48× the CSR's 0.17 MB.  No
workload builds rows that sparse.  Every evaluation, probe and served
batch reads the paper's own schemes through this batched D+
(``estimate_many``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["PackedLabels", "SCRATCH"]

#: Entries per chunk temporary (512 KB of float64).  The kernel is
#: memory-bound: a chunk this size keeps its two gathered row blocks
#: near a core's L2 (256-pair batches at n = 1000 with full rows: 0.45 ms
#: at 2^16 against 0.73 ms at 2^18).
SCRATCH = 1 << 16


class PackedLabels:
    """Common-neighbor labels packed (CSR) for batched D+ evaluation.

    Wraps already-packed label arrays of an ``n``-node structure —
    ``ids[indptr[u]:indptr[u+1]]`` are u's beacons (distinct, in
    ``[0, n)``) and ``dist`` their finite distances — without copying
    them.  The dense block is derived on the first :meth:`dplus_many`:
    ``d_uw`` at ``(u, w)`` for every ``w`` in u's label, ``+inf``
    elsewhere.
    """

    def __init__(
        self, n: int, indptr: np.ndarray, ids: np.ndarray, dist: np.ndarray
    ) -> None:
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.dist = np.asarray(dist, dtype=float)
        self._block: Optional[np.ndarray] = None

    def dplus_many(self, us, vs, inactive=None) -> np.ndarray:
        """``min_b (d_ub + d_vb)`` per pair over the common beacons not in
        ``inactive`` (0 on the diagonal, ``inf`` when a pair shares no
        such beacon), in chunks of ``max(1, SCRATCH // n)`` pairs."""
        us = np.asarray(us, dtype=np.int64).ravel()
        vs = np.asarray(vs, dtype=np.int64).ravel()
        m = us.shape[0]
        out = np.empty(m, dtype=float)
        if m == 0:
            return out
        if self._block is None:
            self._block = np.full((self.n, self.n), np.inf)
            rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
            self._block[rows, self.ids] = self.dist
        block = self._block
        chunk = max(1, SCRATCH // self.n)
        for lo in range(0, m, chunk):
            sums = block[us[lo : lo + chunk]]
            sums += block[vs[lo : lo + chunk]]
            if inactive is not None:
                sums[:, inactive] = np.inf
            sums.min(axis=1, out=out[lo : lo + chunk])
        out[us == vs] = 0.0
        return out
