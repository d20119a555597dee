"""Euclidean (and general l_p) point-set metrics.

Point sets in constant-dimensional l_p spaces are the canonical examples of
doubling metrics (Assouad [10], cited in the paper's §1): a k-dimensional
l_p metric has doubling dimension k + O(1).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro._types import NodeId
from repro.metrics.base import DEFAULT_ROW_CACHE_BYTES, MetricSpace, RowCache

#: Max (rows x columns) elements per block of the extremes scan (~2 MB
#: of float64 per transient array).
_EXTREMES_BLOCK_ELEMS = 1 << 18

#: Relative slack within which a pair's blocked surrogate counts as a
#: candidate extreme.  The surrogate and the row formula add the same
#: non-negative terms in different orders, so they differ by a few ulps
#: per dimension; 1e-9 leaves room for millions of dimensions.
_EXTREMES_SLACK = 1e-9


class EuclideanMetric(MetricSpace):
    """Metric induced by points in ``R^k`` under an l_p norm.

    Distance rows are computed lazily per node and kept in a byte-bounded
    LRU, so memory stays O(n * k + cache_budget) no matter how many rows
    are touched.  Batched queries (:meth:`distances_between`,
    :meth:`pairwise`) are computed directly from the coordinates without
    materializing rows at all.
    """

    def __init__(
        self,
        points: np.ndarray,
        p: float = 2.0,
        row_cache_bytes: int = DEFAULT_ROW_CACHE_BYTES,
    ) -> None:
        super().__init__(row_cache_bytes)
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        if points.ndim != 2:
            raise ValueError(f"points must be an (n, k) array, got {points.shape}")
        if p < 1:
            raise ValueError(f"l_p norm requires p >= 1, got {p}")
        self._points = points
        self._p = p
        self._rows = RowCache(row_cache_bytes)

    @property
    def n(self) -> int:
        return self._points.shape[0]

    @property
    def dim(self) -> int:
        """Ambient dimension ``k``."""
        return self._points.shape[1]

    @property
    def points(self) -> np.ndarray:
        """The point coordinates (treat as read-only)."""
        return self._points

    def _norm(self, diff: np.ndarray) -> np.ndarray:
        """l_p norm along the last axis of ``diff``."""
        if self._p == 2.0:
            return np.sqrt(np.einsum("...i,...i->...", diff, diff))
        if np.isinf(self._p):
            return np.abs(diff).max(axis=-1)
        return np.power(np.power(np.abs(diff), self._p).sum(axis=-1), 1.0 / self._p)

    def _surrogate_block(self, rows: slice, cols: slice) -> np.ndarray:
        """A monotone surrogate of the distance for a rows-by-cols block:
        the sum of |gap|^p over dimensions (the max of |gap| for p = inf),
        accumulated one dimension at a time."""
        p = self._p
        out = None
        for a, b in zip(self._points[rows].T, self._points[cols].T):
            gap = np.subtract(a[:, None], b[None, :])
            if p == 2.0:
                np.multiply(gap, gap, out=gap)
            else:
                np.abs(gap, out=gap)
                if np.isinf(p):
                    out = gap if out is None else np.maximum(out, gap, out=out)
                    continue
                if p != 1.0:
                    np.power(gap, p, out=gap)
            out = gap if out is None else np.add(out, gap, out=out)
        return out

    def _compute_extremes(self) -> Tuple[float, float]:
        """The row scan's exact minimum and maximum over all pairs, without
        computing or caching a row.

        A blocked pass over the upper triangle evaluates
        :meth:`_surrogate_block`.  Its order of summation differs from the
        row formula's, so it only locates candidates: in each block that
        can still hold an extreme, the pairs within
        :data:`_EXTREMES_SLACK` of the block's minimum or maximum.  The
        row formula decides among them, so the floats are those a scan of
        :meth:`distances_from` rows returns.
        """
        if self._extremes is not None:
            return self._extremes
        n = self.n
        if n <= 1:
            self._extremes = (1.0, 1.0)
            return self._extremes
        up, down = 1.0 + _EXTREMES_SLACK, 1.0 - _EXTREMES_SLACK
        low, high = np.inf, -np.inf  # surrogate extremes so far
        min_d, max_d = np.inf, 0.0
        start = 0

        def exact(near: np.ndarray) -> np.ndarray:
            """Row-formula distances of the block pairs ``near`` marks."""
            us, vs = np.nonzero(near)
            return self._norm(self._points[vs + start] - self._points[us + start])

        while start < n - 1:
            stop = min(n - 1, start + max(1, _EXTREMES_BLOCK_ELEMS // (n - start)))
            block = self._surrogate_block(slice(start, stop), slice(start, n))
            peak = float(block.max())  # the zero pairs (u, u) cannot raise it
            if peak >= high * down:
                max_d = max(max_d, float(exact(block >= peak * down).max()))
                high = max(high, peak)
            diagonal = np.arange(stop - start)
            block[diagonal, diagonal] = np.inf
            floor = float(block.min())
            if floor <= low * up:
                min_d = min(min_d, float(exact(block <= floor * up).min()))
                low = min(low, floor)
            start = stop
        self._extremes = (min_d, max_d)
        return self._extremes

    def distances_from(self, u: NodeId) -> np.ndarray:
        row = self._rows.get(u)
        if row is None:
            row = self._norm(self._points - self._points[u])
            row[u] = 0.0
            self._rows.put(u, row)
        return row

    def distances_between(
        self, us: Sequence[NodeId], vs: Sequence[NodeId]
    ) -> np.ndarray:
        us = np.atleast_1d(np.asarray(us, dtype=np.intp))
        vs = np.atleast_1d(np.asarray(vs, dtype=np.intp))
        diff = self._points[us][:, None, :] - self._points[vs][None, :, :]
        return self._norm(diff)

    def pairwise(self, pairs: Sequence[Tuple[NodeId, NodeId]]) -> np.ndarray:
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        diff = self._points[pairs[:, 0]] - self._points[pairs[:, 1]]
        return self._norm(diff)
