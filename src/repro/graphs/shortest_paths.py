"""Shortest paths, first-hop pointers and shortest-path trees.

Theorem 2.1's routing forwards packets along *first-hop pointers*: "the
first edge of some shortest uv-path in G", stored as a local link index
(``ceil(log Dout)`` bits).  :class:`FirstHopTable` materializes those
pointers for all pairs from one Dijkstra run per source, with the crucial
consistency property the proof of Claim 2.4(c) relies on: if the first hop
from u toward w is v, then following first hops from v also reaches w along
a shortest path (shortest-path subpath optimality, which holds because all
pointers are derived from the same predecessor forest).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro._types import NodeId
from repro.graphs.graph import WeightedGraph


def all_pairs_shortest_paths(graph: WeightedGraph) -> np.ndarray:
    """Dense APSP distance matrix via scipy Dijkstra."""
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(graph.to_scipy_csr(), directed=False)


def _predecessors(graph: WeightedGraph) -> Tuple[np.ndarray, np.ndarray]:
    """Distances and predecessor matrix (pred[s, v] = parent of v in the
    shortest-path tree rooted at s)."""
    from scipy.sparse.csgraph import dijkstra

    dist, pred = dijkstra(graph.to_scipy_csr(), directed=False, return_predecessors=True)
    return dist, pred


def _check_dense_arrays(graph: WeightedGraph, arrays: Dict[str, np.ndarray]) -> None:
    """Refuse a persisted dense first-hop table that would route wrong,
    with a :class:`~repro.serve.container.ContainerError` naming the
    check.  ``first_hop`` is an (n, n) integer array whose diagonal is
    the node itself and whose other entries are neighbors of their row's
    node, matched as ``u·n + v`` keys against the adjacency CSR's in one
    vectorized ``np.isin``.  ``first_hop_dist`` is (n, n), finite, >= 0
    and 0 on the diagonal; it is not checked for symmetry, because the
    two orientations of a shortest-path sum may differ in the last ulp."""
    # Local import: repro.serve sits above repro.graphs.
    from repro.serve.container import ContainerError

    def fail(check: str) -> None:
        raise ContainerError(f"malformed first-hop table: {check}")

    n = graph.n
    hops = np.asarray(arrays["first_hop"])
    if hops.dtype.kind not in "iu" or hops.shape != (n, n):
        fail(f"first_hop must be an integer array of shape (n, n) = {(n, n)} "
             f"(has {hops.dtype} {hops.shape})")
    if hops.size and (hops.min() < 0 or hops.max() >= n):
        fail(f"first_hop entries must lie in [0, {n})")
    nodes = np.arange(n)
    adjacency = graph.to_adjacency_arrays()
    owners = np.repeat(nodes, np.diff(adjacency["adj_indptr"]))
    adjacent = np.isin(nodes[:, None] * n + hops, owners * n + adjacency["adj_targets"])
    adjacent[nodes, nodes] = True
    if not adjacent.all():
        fail("first_hop off-diagonal entries must be neighbors of their row's node")
    if not np.array_equal(hops[nodes, nodes], nodes):
        fail("first_hop must hold each node itself on the diagonal")
    dist = np.asarray(arrays["first_hop_dist"])
    if dist.dtype.kind != "f" or dist.shape != (n, n):
        fail(f"first_hop_dist must be a float array of shape (n, n) = {(n, n)} "
             f"(has {dist.dtype} {dist.shape})")
    if not np.isfinite(dist).all() or (dist < 0).any():
        fail("first_hop_dist entries must be finite and >= 0")
    if dist[nodes, nodes].any():
        fail("first_hop_dist must be 0 on the diagonal")


class FirstHopTable:
    """First hops of shortest paths for all (source, target) pairs.

    ``first_hop(u, t)`` is the neighbor of u on a shortest u-t path;
    ``first_hop_link(u, t)`` the corresponding local link index — the form
    Theorem 2.1 stores.  Hops are consistent across nodes (see module
    docstring), so chaining them always traces an exact shortest path.

    Two backends:

    * ``dense=True`` (default) — per-source predecessor trees for all n
      sources, Θ(n²) memory, O(1) lookups: right up to a few thousand
      nodes, and bit-for-bit the historical behaviour.
    * ``dense=False`` — **lazy, target-keyed**: one Dijkstra tree rooted
      at each *queried* target, kept in a byte-bounded LRU.  The hop from
      u toward t is u's parent in t's tree, so every hop along one
      packet's route reads the same cached row; memory never exceeds the
      cache budget.  A row is the tree's int32 predecessors alone, 4
      bytes per node, from one ``dijkstra(directed=True)`` call over the
      graph's symmetric CSR: every edge is stored in both directions, so
      it relaxes the same edges in the same order as ``directed=False``
      and gives the same hops, without the transposed copy of the graph
      that ``directed=False`` builds on every call.
      Hops remain consistent (all pointers toward t come from t's single
      predecessor forest), though tie-breaking between equal-length
      shortest paths may differ from the dense backend.  Lazy
      :meth:`distance`, which routing never calls, runs its own Dijkstra
      and caches nothing.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        dense: bool = True,
        row_cache_bytes: Optional[int] = None,
    ) -> None:
        # Local import: RowCache is metric-agnostic plumbing, but lives in
        # repro.metrics.base; keep the package layering acyclic-by-module.
        from repro.metrics.base import DEFAULT_ROW_CACHE_BYTES, RowCache

        self.graph = graph
        self.dense = bool(dense)
        if not self.dense:
            if not graph.is_connected():
                raise ValueError("graph is not connected")
            self.dist = None
            self._csr = graph.to_scipy_csr()
            self._rows = RowCache(
                DEFAULT_ROW_CACHE_BYTES if row_cache_bytes is None else row_cache_bytes
            )
            return
        self.dist, self._pred = _predecessors(graph)
        if not np.all(np.isfinite(self.dist)):
            raise ValueError("graph is not connected")
        n = graph.n
        # first[s, v] = first hop on the shortest s->v path.  From the
        # predecessor matrix of source s: walk v's ancestry toward s once,
        # memoizing along the way (amortized O(n) per source).
        self._first = np.full((n, n), -1, dtype=np.int64)
        for s in range(n):
            first_s = self._first[s]
            first_s[s] = s
            pred_s = self._pred[s]
            for v in range(n):
                if first_s[v] >= 0:
                    continue
                chain = []
                x = v
                while first_s[x] < 0:
                    chain.append(x)
                    x = pred_s[x]
                # x is now either s or a node with known first hop.
                hop = chain[-1] if x == s else first_s[x]
                for node in chain:
                    first_s[node] = hop
        # Symmetric view: hop from u toward t = first[u, t].
        # (dijkstra with directed=False on an undirected graph gives
        # per-source trees; first[u][t] is the hop out of u.)

    def to_arrays(self) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """(meta, arrays) inventory for the on-disk container.

        The dense backend persists its Θ(n²) ``first``/``dist`` matrices —
        the expensive part of a rebuild.  The lazy backend persists
        nothing: its rows are recomputed on demand from the graph CSR,
        which is exactly what a fresh instance would do (bit-for-bit,
        since rows derive from the same canonical CSR).
        """
        meta: Dict[str, object] = {"dense": self.dense}
        arrays: Dict[str, np.ndarray] = {}
        if self.dense:
            arrays["first_hop"] = self._first
            arrays["first_hop_dist"] = self.dist
        return meta, arrays

    @classmethod
    def from_arrays(
        cls,
        graph: WeightedGraph,
        meta: Dict[str, object],
        arrays: Dict[str, np.ndarray],
        row_cache_bytes: Optional[int] = None,
    ) -> "FirstHopTable":
        """Rehydrate from :meth:`to_arrays` without re-running Dijkstra.

        Dense tables keep the mapped arrays as-is (zero copy) once
        :func:`_check_dense_arrays` has passed them; lazy tables rebuild
        their empty row cache over the graph.
        """
        if not meta.get("dense", True):
            return cls(graph, dense=False, row_cache_bytes=row_cache_bytes)
        _check_dense_arrays(graph, arrays)
        table = cls.__new__(cls)
        table.graph = graph
        table.dense = True
        table._first = np.asarray(arrays["first_hop"])
        table.dist = np.asarray(arrays["first_hop_dist"])
        table._pred = None
        return table

    def _target_row(self, t: NodeId) -> np.ndarray:
        """Lazy backend: the int32 hops toward t, one per node.

        Entry u is u's parent in the shortest-path tree rooted at t, i.e.
        the first hop of a shortest u->t path (t itself at t)."""
        cached = self._rows.get(t)
        if cached is None:
            from scipy.sparse.csgraph import dijkstra

            _, pred = dijkstra(
                self._csr, directed=True, indices=t, return_predecessors=True
            )
            hops = pred.astype(np.int32, copy=False)
            hops[t] = t
            cached = self._rows.put(t, hops)
        return cached

    def distance(self, u: NodeId, t: NodeId) -> float:
        if self.dense:
            return float(self.dist[u, t])
        from scipy.sparse.csgraph import dijkstra

        return float(dijkstra(self._csr, directed=False, indices=t)[u])

    def first_hop(self, u: NodeId, t: NodeId) -> NodeId:
        """Neighbor of u on a shortest u->t path (u itself when u == t)."""
        if self.dense:
            return int(self._first[u, t])
        if u == t:
            return int(u)
        return int(self._target_row(t)[u])

    def first_hop_link(self, u: NodeId, t: NodeId) -> Optional[int]:
        """Local link index of the first hop, or None when u == t."""
        if u == t:
            return None
        return self.graph.link_index(u, self.first_hop(u, t))

    def trace_path(self, u: NodeId, t: NodeId) -> List[NodeId]:
        """The full shortest path from u to t following first hops."""
        path = [u]
        current = u
        while current != t:
            current = self.first_hop(current, t)
            path.append(current)
            if len(path) > self.graph.n:
                raise RuntimeError("first-hop pointers do not converge")
        return path

    def path_hops(self, u: NodeId, t: NodeId) -> int:
        """Number of edges on the traced shortest path."""
        return len(self.trace_path(u, t)) - 1


def shortest_path_tree(
    graph: WeightedGraph, root: NodeId, members: Optional[np.ndarray] = None
) -> Dict[NodeId, NodeId]:
    """Parent map of the shortest-path tree rooted at ``root``.

    When ``members`` is given, the tree is computed in the *induced
    subgraph* on those nodes (needed by Theorem 4.2's mode M2, where the
    nodes of a packing ball B maintain a tree among themselves).  Plain
    Dijkstra restricted to the member set.
    """
    import heapq

    n = graph.n
    allowed = np.ones(n, dtype=bool)
    if members is not None:
        allowed[:] = False
        allowed[np.asarray(members, dtype=int)] = True
        if not allowed[root]:
            raise ValueError("root must belong to members")
    dist = np.full(n, np.inf)
    parent: Dict[NodeId, NodeId] = {root: root}
    dist[root] = 0.0
    heap: List[Tuple[float, NodeId]] = [(0.0, root)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in graph.neighbors(u):
            if not allowed[v]:
                continue
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return parent
