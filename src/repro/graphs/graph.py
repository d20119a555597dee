"""Weighted undirected graphs with indexed adjacency.

The routing schemes of §2/§4 address a node's outgoing links by *local
index* (the paper's enumeration ``φ_u`` of outgoing links), because a
first-hop pointer stored as a link index costs only ``ceil(log Dout)``
bits.  :class:`WeightedGraph` therefore keeps, for every node, an ordered
list of (neighbor, weight) pairs; the position in that list is the link
index.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro._types import NodeId


def _check_adjacency_arrays(arrays: Dict[str, np.ndarray], n: int) -> None:
    """Refuse a persisted adjacency that would route wrong, with a
    :class:`~repro.serve.container.ContainerError` naming the check.

    ``adj_indptr`` slices ``adj_targets`` into n rows
    (:func:`~repro.serve.container.check_indptr`); every target is an
    integer in [0, n) other than its row's node; ``adj_weights`` holds
    one finite weight > 0 per target; and every link (u, v, w) is also
    present as (v, u, w), matched by sorting both orientations.  A
    negative or NaN weight would otherwise load and send Dijkstra astray.
    """
    # Local import: repro.serve sits above repro.graphs.
    from repro.serve.container import ContainerError, check_indptr

    what = "graph adjacency"

    def fail(check: str) -> None:
        raise ContainerError(f"malformed {what}: {check}")

    targets = np.asarray(arrays["adj_targets"])
    if targets.dtype.kind not in "iu" or targets.ndim != 1:
        fail("adj_targets must be a one-dimensional integer array")
    indptr = check_indptr(what, "adj_indptr", arrays["adj_indptr"], ("n", n),
                          ("len(adj_targets)", targets.size))
    owners = np.repeat(np.arange(n), np.diff(indptr))
    if targets.size and (targets.min() < 0 or targets.max() >= n):
        fail(f"adj_targets must lie in [0, {n})")
    if np.any(targets == owners):
        fail("adj_targets must never be their own row's node")
    weights = np.asarray(arrays["adj_weights"])
    if weights.dtype.kind != "f" or weights.shape != targets.shape:
        fail("adj_weights must be a float array with one entry per target")
    if not np.all(np.isfinite(weights) & (weights > 0)):
        fail("adj_weights must be finite and > 0")
    forward = np.lexsort((weights, targets, owners))
    backward = np.lexsort((weights, owners, targets))
    if not (np.array_equal(owners[forward], targets[backward])
            and np.array_equal(targets[forward], owners[backward])
            and np.array_equal(weights[forward], weights[backward])):
        fail("every link (u, v, w) must also be present as (v, u, w)")


class WeightedGraph:
    """An undirected graph with positive edge weights and indexed adjacency."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("graph needs at least one node")
        self._n = n
        self._adjacency: List[List[Tuple[NodeId, float]]] = [[] for _ in range(n)]
        self._edge_index: List[Dict[NodeId, int]] = [dict() for _ in range(n)]
        self._max_out_degree: int = 0

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return sum(len(adj) for adj in self._adjacency) // 2

    def add_edge(self, u: NodeId, v: NodeId, weight: float) -> None:
        """Add the undirected edge ``{u, v}``; re-adding updates the weight."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise ValueError(f"edge ({u},{v}) out of range [0,{self._n})")
        if u == v:
            raise ValueError("self-loops are not allowed")
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        for a, b in ((u, v), (v, u)):
            idx = self._edge_index[a].get(b)
            if idx is None:
                self._edge_index[a][b] = len(self._adjacency[a])
                self._adjacency[a].append((b, float(weight)))
                self._max_out_degree = max(
                    self._max_out_degree, len(self._adjacency[a])
                )
            else:
                self._adjacency[a][idx] = (b, float(weight))

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return v in self._edge_index[u]

    def weight(self, u: NodeId, v: NodeId) -> float:
        """Weight of edge ``{u, v}``; raises KeyError if absent."""
        return self._adjacency[u][self._edge_index[u][v]][1]

    def neighbors(self, u: NodeId) -> List[Tuple[NodeId, float]]:
        """Ordered (neighbor, weight) list; list position is the link index."""
        return self._adjacency[u]

    def out_degree(self, u: NodeId) -> int:
        return len(self._adjacency[u])

    def max_out_degree(self) -> int:
        """The paper's ``Dout`` (maintained incrementally: per-node size
        accounting calls this once per node, so it must be O(1))."""
        return self._max_out_degree

    def link_index(self, u: NodeId, v: NodeId) -> int:
        """The local index of edge u->v in u's adjacency (paper's φ_u(v))."""
        return self._edge_index[u][v]

    def link_target(self, u: NodeId, index: int) -> NodeId:
        """Inverse of :meth:`link_index`: the neighbor behind a link index."""
        return self._adjacency[u][index][0]

    def edges(self) -> Iterator[Tuple[NodeId, NodeId, float]]:
        """All undirected edges once, as (u, v, weight) with u < v."""
        for u in range(self._n):
            for v, w in self._adjacency[u]:
                if u < v:
                    yield u, v, w

    def is_connected(self) -> bool:
        """BFS connectivity check."""
        if self._n == 0:
            return True
        seen = np.zeros(self._n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v, _ in self._adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return bool(seen.all())

    @classmethod
    def from_edges(
        cls, n: int, edges: Sequence[Tuple[NodeId, NodeId, float]]
    ) -> "WeightedGraph":
        """Build a graph from an (u, v, weight) edge list."""
        graph = cls(n)
        for u, v, w in edges:
            graph.add_edge(u, v, w)
        return graph

    def to_adjacency_arrays(self) -> Dict[str, np.ndarray]:
        """Directed adjacency as CSR arrays, preserving link-index order.

        Persisting the *directed* adjacency (rather than a u<v edge list)
        keeps every node's link enumeration ``φ_u`` byte-identical on
        reload, so stored link indices stay valid.
        """
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        for u in range(self._n):
            indptr[u + 1] = indptr[u] + len(self._adjacency[u])
        targets = np.empty(int(indptr[-1]), dtype=np.int64)
        weights = np.empty(int(indptr[-1]), dtype=np.float64)
        cursor = 0
        for adj in self._adjacency:
            for v, w in adj:
                targets[cursor] = v
                weights[cursor] = w
                cursor += 1
        return {
            "adj_indptr": indptr,
            "adj_targets": targets,
            "adj_weights": weights,
        }

    @classmethod
    def from_adjacency_arrays(
        cls, arrays: Dict[str, np.ndarray], n: int
    ) -> "WeightedGraph":
        """Inverse of :meth:`to_adjacency_arrays` (same link order) for an
        n-node graph, once :func:`_check_adjacency_arrays` has passed the
        arrays."""
        _check_adjacency_arrays(arrays, n)
        indptr = np.asarray(arrays["adj_indptr"])
        targets = np.asarray(arrays["adj_targets"])
        weights = np.asarray(arrays["adj_weights"])
        graph = cls(n)
        for u in range(graph._n):
            lo, hi = int(indptr[u]), int(indptr[u + 1])
            adj = [
                (int(targets[k]), float(weights[k])) for k in range(lo, hi)
            ]
            graph._adjacency[u] = adj
            graph._edge_index[u] = {v: i for i, (v, _) in enumerate(adj)}
            graph._max_out_degree = max(graph._max_out_degree, len(adj))
        return graph

    def to_scipy_csr(self):
        """Sparse CSR adjacency matrix (for Dijkstra)."""
        from scipy.sparse import csr_matrix

        rows, cols, data = [], [], []
        for u in range(self._n):
            for v, w in self._adjacency[u]:
                rows.append(u)
                cols.append(v)
                data.append(w)
        return csr_matrix((data, (rows, cols)), shape=(self._n, self._n))
