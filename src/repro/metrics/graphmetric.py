"""Shortest-path metrics induced by weighted graphs.

The routing results of the paper (§2, §4) work on "doubling graphs":
weighted undirected graphs whose shortest-path metric has low doubling
dimension.  :class:`ShortestPathMetric` wraps a
:class:`repro.graphs.graph.WeightedGraph` and exposes its shortest-path
distances through the :class:`~repro.metrics.base.MetricSpace`
interface, with two backends:

* ``dense=True`` (default) — the full Θ(n²) APSP matrix, computed once
  with Dijkstra.  Right for n up to a few thousand, where every batched
  query becomes a fancy-indexed gather.
* ``dense=False`` — **lazy**: no APSP matrix is ever allocated.  Dijkstra
  rows are computed on demand and kept in the byte-bounded LRU
  :class:`~repro.metrics.base.RowCache`; batched queries run chunked
  multi-source Dijkstra over whichever side of the block is smaller
  (distances are symmetric), so a ``(10⁴, k)`` beacon block costs k row
  computations, not 10⁴.  :meth:`rows_within` additionally exposes
  radius-capped rows (Dijkstra with an early cutoff) for builders that
  only compare distances against a threshold — the net-construction
  fast path.

Select the backend per workload via the ``dense=``/``cache_mb=`` knobs
of the graph workloads in :mod:`repro.api.workloads`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro._types import NodeId
from repro.metrics.base import DEFAULT_ROW_CACHE_BYTES, MetricSpace, RowCache

#: Max elements per multi-source Dijkstra block in the lazy backend.
_LAZY_BLOCK_ELEMS = 1 << 20


class ShortestPathMetric(MetricSpace):
    """Shortest-path metric of a weighted undirected graph (dense or lazy)."""

    def __init__(
        self,
        graph,
        dense: bool = True,
        row_cache_bytes: int = DEFAULT_ROW_CACHE_BYTES,
    ) -> None:
        """``graph`` is a :class:`repro.graphs.graph.WeightedGraph`."""
        super().__init__(row_cache_bytes)
        # Local import: repro.graphs imports nothing from repro.metrics, but
        # keeping the import here makes the layering obvious.
        from repro.graphs.shortest_paths import all_pairs_shortest_paths

        self._graph = graph
        self.dense = bool(dense)
        #: the configured row-cache byte budget (workload ``cache_mb``);
        #: consumers building their own per-row caches over the same
        #: graph (lazy first-hop tables) honor it too.
        self.row_cache_budget = int(row_cache_bytes)
        if self.dense:
            self._matrix: Optional[np.ndarray] = all_pairs_shortest_paths(graph)
            if not np.all(np.isfinite(self._matrix)):
                raise ValueError(
                    "graph is not connected; shortest-path metric undefined"
                )
            self._csr = None
            self._rows: Optional[RowCache] = None
        else:
            if not graph.is_connected():
                raise ValueError(
                    "graph is not connected; shortest-path metric undefined"
                )
            self._matrix = None
            self._csr = graph.to_scipy_csr()
            self._rows = RowCache(row_cache_bytes)

    @property
    def n(self) -> int:
        return self._graph.n

    @property
    def graph(self):
        """The underlying :class:`~repro.graphs.graph.WeightedGraph`."""
        return self._graph

    @property
    def matrix(self) -> np.ndarray:
        """The APSP distance matrix (treat as read-only; dense backend only)."""
        if self._matrix is None:
            raise RuntimeError(
                "the lazy shortest-path backend (dense=False) never "
                "materializes the full APSP matrix; use distances_from/"
                "distances_between/pairwise instead"
            )
        return self._matrix

    def row_cache_stats(self) -> dict:
        """Occupancy of the lazy row cache (empty dict on the dense backend)."""
        if self._rows is None:
            return {}
        return self._rows.stats()

    # -- row computation ------------------------------------------------

    def _dijkstra(self, sources: np.ndarray, limit: float = np.inf) -> np.ndarray:
        from scipy.sparse.csgraph import dijkstra

        return np.atleast_2d(
            dijkstra(self._csr, directed=False, indices=sources, limit=limit)
        )

    def distances_from(self, u: NodeId) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix[u]
        row = self._rows.get(u)
        if row is None:
            row = self._rows.put(u, self._dijkstra(np.asarray([u]))[0])
        return row

    def rows_within(self, us, radius: float) -> np.ndarray:
        """Distance rows with an early cutoff: entries > radius are ``+inf``.

        Each source's Dijkstra stops expanding past ``radius`` (boundary
        values equal to ``radius`` are always exact), so the cost scales
        with the radius-ball sizes rather than with n.  Rows are *not*
        cached — they are not full rows.  Dense backend: exact rows with
        the same capping applied, so callers see one contract.
        """
        us = np.atleast_1d(np.asarray(us, dtype=np.intp))
        if self._matrix is not None:
            block = self._matrix[us]
            return np.where(block <= radius, block, np.inf)
        return self._dijkstra(us, limit=np.nextafter(radius, np.inf))

    def distances_between(self, us, vs) -> np.ndarray:
        us = np.atleast_1d(np.asarray(us, dtype=np.intp))
        vs = np.atleast_1d(np.asarray(vs, dtype=np.intp))
        if self._matrix is not None:
            return self._matrix[np.ix_(us, vs)]
        # Strictly row-oriented: one Dijkstra per *source*, never the
        # transposed gather — shortest-path sums are only symmetric up to
        # the last ulp, and the batched net builders' bit-for-bit guarantee
        # rides on every backend answering in row orientation.  Callers
        # with a few targets and many sources exploit symmetry explicitly
        # (compute the transposed block and `.T` it), as the beacon
        # builder does.
        return self._lazy_block(us, vs)

    def _lazy_block(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """One row per source (cache-first, chunked multi-source Dijkstra),
        gathered at ``targets``.  A row is cached as a copy: a view would
        keep its whole Dijkstra block alive while the cache counts only
        the row."""
        out = np.empty((sources.size, targets.size))
        missing: list[int] = []
        for i, u in enumerate(sources):
            row = self._rows.get(int(u))
            if row is None:
                missing.append(i)
            else:
                out[i] = row[targets]
        chunk = max(1, _LAZY_BLOCK_ELEMS // max(1, self.n))
        for start in range(0, len(missing), chunk):
            idx = missing[start : start + chunk]
            rows = self._dijkstra(sources[idx])
            for i, row in zip(idx, rows):
                self._rows.put(int(sources[i]), row.copy())
                out[i] = row[targets]
        return out

    def pairwise(self, pairs) -> np.ndarray:
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        if self._matrix is not None:
            return self._matrix[pairs[:, 0], pairs[:, 1]]
        # Lazy: the generic source-grouped path reuses cached rows.
        return super().pairwise(pairs)

    def _compute_extremes(self):
        if self._matrix is not None or self._extremes is not None:
            return super()._compute_extremes()
        # Lazy backend.  Min positive distance: the minimum edge weight —
        # every path weighs at least one edge, and the lightest edge is
        # itself a shortest path between its endpoints, so the values (and
        # floats) coincide with the dense scan's.  Diameter still needs
        # every row once; sweep them in chunked multi-source Dijkstra
        # blocks without churning the row cache.
        if self.n <= 1:
            self._extremes = (1.0, 1.0)
            return self._extremes
        min_d = min(w for _, _, w in self._graph.edges())
        max_d = 0.0
        chunk = max(1, _LAZY_BLOCK_ELEMS // max(1, self.n))
        for start in range(0, self.n, chunk):
            block = self._dijkstra(np.arange(start, min(self.n, start + chunk)))
            max_d = max(max_d, float(block.max()))
        self._extremes = (float(min_d), max_d)
        return self._extremes
