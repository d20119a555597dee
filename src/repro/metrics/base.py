"""Abstract finite metric space.

Every algorithm in this library sees its input through this interface.
Nodes are dense integer ids ``0..n-1``.  Subclasses implement
:meth:`MetricSpace.distances_from` (a vectorized row of distances); the
base class derives pairwise distances, batched block/pair queries
(:meth:`MetricSpace.distances_between` / :meth:`MetricSpace.pairwise`),
closed balls ``B_u(r)``, the radii ``r_u(eps)`` of the paper's §1.1 ("the
radius of the smallest closed ball around u that contains at least eps*n
nodes"), diameter, minimum positive distance and aspect ratio ``Δ``.

Per-node sorted distance rows are cached lazily in a memory-bounded LRU
(:class:`RowCache`), so ball-cardinality and ``r_u`` queries stay
O(log n) after the first touch of a node without ever pinning an O(n²)
distance matrix in memory.  Concrete metrics with a cheap random-access
representation (an explicit matrix, a point set) override the batched
queries with fully vectorized implementations; large runs (n >= 10^4)
should prefer those batched entry points over per-pair
:meth:`MetricSpace.distance` loops.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro._types import NodeId

#: Default byte budget for each per-metric row cache (sorted rows, raw
#: rows).  64 MiB holds every row up to n ≈ 2800 and degrades to an LRU
#: working set beyond that, keeping 10k+-node runs memory-bounded.
DEFAULT_ROW_CACHE_BYTES = 64 * 1024 * 1024


class RowCache:
    """A byte-bounded LRU cache of per-node distance rows.

    Rows are independent immutable-by-convention arrays, so evicting an
    entry never invalidates references callers already hold.  The cache
    always retains at least one row, so a budget smaller than one row
    degrades to "cache the most recent row" rather than thrashing to
    zero.
    """

    def __init__(self, budget_bytes: int = DEFAULT_ROW_CACHE_BYTES) -> None:
        if budget_bytes < 0:
            raise ValueError(f"budget_bytes must be >= 0, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._rows: "OrderedDict[NodeId, np.ndarray]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        #: high-water marks over the cache's lifetime (survive clear()),
        #: the "peak resident rows" number the build benchmarks record.
        self.peak_rows = 0
        self.peak_bytes = 0

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def nbytes(self) -> int:
        return self._bytes

    def get(self, key: NodeId) -> Optional[np.ndarray]:
        row = self._rows.get(key)
        if row is None:
            self.misses += 1
            return None
        self.hits += 1
        self._rows.move_to_end(key)
        return row

    def put(self, key: NodeId, row: np.ndarray) -> np.ndarray:
        old = self._rows.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        self._rows[key] = row
        self._bytes += row.nbytes
        while self._bytes > self.budget_bytes and len(self._rows) > 1:
            _, evicted = self._rows.popitem(last=False)
            self._bytes -= evicted.nbytes
        self.peak_rows = max(self.peak_rows, len(self._rows))
        self.peak_bytes = max(self.peak_bytes, self._bytes)
        return row

    def clear(self) -> None:
        self._rows.clear()
        self._bytes = 0

    def stats(self) -> dict:
        """Occupancy/traffic counters (peaks are lifetime high-water marks)."""
        return {
            "rows": len(self._rows),
            "bytes": self._bytes,
            "budget_bytes": self.budget_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "peak_rows": self.peak_rows,
            "peak_bytes": self.peak_bytes,
        }


class MetricSpace(abc.ABC):
    """A finite metric space on nodes ``0..n-1``.

    Subclasses must implement :attr:`n` and :meth:`distances_from`.
    The triangle inequality and symmetry are assumed (and property-tested
    for every concrete metric shipped in this package).
    """

    # ------------------------------------------------------------------
    # Abstract interface
    # ------------------------------------------------------------------

    @property
    @abc.abstractmethod
    def n(self) -> int:
        """Number of nodes."""

    @abc.abstractmethod
    def distances_from(self, u: NodeId) -> np.ndarray:
        """Vector of distances from ``u`` to every node (length ``n``).

        Must satisfy ``row[u] == 0`` and symmetry with other rows.  The
        returned array must be treated as read-only by callers.
        """

    # ------------------------------------------------------------------
    # Derived queries
    # ------------------------------------------------------------------

    def __init__(self, row_cache_bytes: int = DEFAULT_ROW_CACHE_BYTES) -> None:
        self._sorted_rows = RowCache(row_cache_bytes)
        self._extremes: Optional[Tuple[float, float]] = None

    def __len__(self) -> int:
        return self.n

    def nodes(self) -> range:
        """Iterate node ids."""
        return range(self.n)

    def distance(self, u: NodeId, v: NodeId) -> float:
        """Distance between ``u`` and ``v``."""
        return float(self.distances_from(u)[v])

    def pairs(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """All unordered node pairs ``(u, v)`` with ``u < v``."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                yield u, v

    # -- batched queries -------------------------------------------------

    def distances_between(
        self, us: Sequence[NodeId], vs: Sequence[NodeId]
    ) -> np.ndarray:
        """The ``(len(us), len(vs))`` block of pairwise distances.

        The generic implementation assembles one :meth:`distances_from`
        row per source; matrix- and point-backed metrics override it with
        a single vectorized gather.  Treat the result as read-only.
        """
        us = np.atleast_1d(np.asarray(us, dtype=np.intp))
        vs = np.atleast_1d(np.asarray(vs, dtype=np.intp))
        out = np.empty((us.size, vs.size))
        for i, u in enumerate(us):
            out[i] = self.distances_from(int(u))[vs]
        return out

    def pairwise(self, pairs: Sequence[Tuple[NodeId, NodeId]]) -> np.ndarray:
        """Distances for an ``(m, 2)`` array of node pairs, one per row.

        The generic implementation groups pairs by source so each needed
        row is computed once regardless of how many pairs share it.
        """
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        out = np.empty(pairs.shape[0])
        if pairs.shape[0] == 0:
            return out
        order = np.argsort(pairs[:, 0], kind="stable")
        sources = pairs[order, 0]
        bounds = np.flatnonzero(np.diff(sources)) + 1
        for group in np.split(order, bounds):
            row = self.distances_from(int(pairs[group[0], 0]))
            out[group] = row[pairs[group, 1]]
        return out

    # -- balls ----------------------------------------------------------

    def ball(self, u: NodeId, r: float, open_ball: bool = False) -> np.ndarray:
        """Node ids in the closed (default) or open ball of radius ``r``.

        The paper's ``B_u(r)`` is the *closed* ball (§1.1); the open
        variant is needed by Theorem 3.2, whose X/Y-neighbors live in open
        balls.
        """
        row = self.distances_from(u)
        if open_ball:
            return np.flatnonzero(row < r)
        return np.flatnonzero(row <= r)

    def ball_size(self, u: NodeId, r: float, open_ball: bool = False) -> int:
        """Cardinality of ``B_u(r)`` in O(log n) via the sorted row cache."""
        sorted_row = self._sorted_row(u)
        side = "left" if open_ball else "right"
        return int(np.searchsorted(sorted_row, r, side=side))

    def _sorted_row(self, u: NodeId) -> np.ndarray:
        cached = self._sorted_rows.get(u)
        if cached is None:
            cached = self._sorted_rows.put(u, np.sort(self.distances_from(u)))
        return cached

    # -- r_u(eps) radii (paper §1.1) -------------------------------------

    def radius_for_count(self, u: NodeId, k: int) -> float:
        """Radius of the smallest closed ball around ``u`` with >= k nodes.

        ``k`` is clamped to ``[1, n]``.  Note ``radius_for_count(u, 1) == 0``
        since the closed ball of radius 0 contains ``u`` itself.
        """
        k = max(1, min(self.n, k))
        return float(self._sorted_row(u)[k - 1])

    def radius_for_fraction(self, u: NodeId, eps: float) -> float:
        """The paper's ``r_u(eps)``: smallest radius capturing measure eps.

        With the counting probability measure this is the radius of the
        smallest closed ball containing at least ``ceil(eps * n)`` nodes.
        """
        k = int(np.ceil(eps * self.n))
        return self.radius_for_count(u, k)

    def rui(self, u: NodeId, i: int) -> float:
        """The paper's ``r_ui = r_u(2^-i)`` (smallest ball with >= n/2^i nodes).

        Used throughout §3 and §5.  ``i = 0`` gives the radius of a ball
        containing all nodes.
        """
        k = int(np.ceil(self.n / float(2**i)))
        return self.radius_for_count(u, k)

    # -- global shape ----------------------------------------------------

    def _compute_extremes(self) -> Tuple[float, float]:
        if self._extremes is None:
            min_d = np.inf
            max_d = 0.0
            for u in range(self.n):
                row = self.distances_from(u)
                if self.n > 1:
                    positive = row[np.arange(self.n) != u]
                    min_d = min(min_d, float(positive.min()))
                    max_d = max(max_d, float(positive.max()))
            if self.n <= 1:
                min_d, max_d = 1.0, 1.0
            self._extremes = (min_d, max_d)
        return self._extremes

    def min_distance(self) -> float:
        """Smallest positive pairwise distance."""
        return self._compute_extremes()[0]

    def diameter(self) -> float:
        """Largest pairwise distance."""
        return self._compute_extremes()[1]

    def aspect_ratio(self) -> float:
        """``Δ`` = diameter / min positive distance (paper §1.1)."""
        min_d, max_d = self._compute_extremes()
        if min_d == 0:
            raise ValueError("metric has duplicate points; aspect ratio undefined")
        return max_d / min_d

    def log_aspect_ratio(self) -> int:
        """``ceil(log2 Δ)``, the number of distance scales, at least 1."""
        return max(1, int(np.ceil(np.log2(self.aspect_ratio()))))

    # -- misc -------------------------------------------------------------

    def nearest_neighbor(self, u: NodeId) -> NodeId:
        """The node (other than ``u``) closest to ``u``."""
        row = self.distances_from(u).copy()
        row[u] = np.inf
        return int(np.argmin(row))

    def validate(self, samples: int = 200, seed: int = 0) -> None:
        """Sanity-check symmetry and the triangle inequality on a sample.

        Raises :class:`ValueError` on violation.  Exhaustive for small n.
        """
        rng = np.random.default_rng(seed)
        n = self.n
        if n < 2:
            return
        triples = rng.integers(0, n, size=(samples, 3))
        for a, b, c in triples:
            dab = self.distance(int(a), int(b))
            dba = self.distance(int(b), int(a))
            if not np.isclose(dab, dba, rtol=1e-9, atol=1e-12):
                raise ValueError(f"asymmetry at ({a},{b}): {dab} != {dba}")
            dac = self.distance(int(a), int(c))
            dcb = self.distance(int(c), int(b))
            if dab > dac + dcb + 1e-9 * max(1.0, dab):
                raise ValueError(
                    f"triangle violation: d({a},{b})={dab} > "
                    f"d({a},{c})+d({c},{b})={dac + dcb}"
                )
