"""Graph workload generators producing doubling graphs.

All generators return connected :class:`~repro.graphs.graph.WeightedGraph`
instances whose shortest-path metrics have low doubling dimension — the
input family of §2 and §4.  They also tend to contain near-shortest paths
with small hop counts, the extra hypothesis of Theorem 4.2.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.rng import SeedLike, ensure_rng

#: Max elements of the transient (rows × n × dim) difference block that
#: :func:`_distance_blocks` computes each row block from (~32 MB of
#: float64), so generation never holds an n×n×dim array or the n×n
#: distance matrix.
_BLOCK_ELEMS = 1 << 22


def grid_graph(side: int, dim: int = 2, jitter: float = 0.0, seed: SeedLike = None) -> WeightedGraph:
    """The ``side^dim`` lattice with unit (optionally jittered) edge weights."""
    if side < 2:
        raise ValueError("side must be at least 2")
    rng = ensure_rng(seed)
    n = side**dim
    graph = WeightedGraph(n)

    def node_id(coords: tuple[int, ...]) -> int:
        idx = 0
        for c in coords:
            idx = idx * side + c
        return idx

    for flat in range(n):
        coords = []
        rest = flat
        for _ in range(dim):
            coords.append(rest % side)
            rest //= side
        coords = tuple(reversed(coords))
        for axis in range(dim):
            if coords[axis] + 1 < side:
                other = list(coords)
                other[axis] += 1
                weight = 1.0 + (jitter * rng.random() if jitter else 0.0)
                graph.add_edge(node_id(coords), node_id(tuple(other)), weight)
    return graph


def _distance_blocks(points: np.ndarray, rows=None):
    """Yield ``(ids, block)`` over consecutive runs ``ids`` of ``rows``
    (all n points by default): ``block`` holds the Euclidean distances
    from each id to every point, +inf at the id itself, and a run spans
    at most :data:`_BLOCK_ELEMS` difference elements.  Every entry is
    the same sum of squares a single n×n×dim block would give."""
    n, dim = points.shape
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    step = max(1, _BLOCK_ELEMS // max(1, n * dim))
    for lo in range(0, rows.size, step):
        ids = rows[lo : lo + step]
        diff = points[ids, None, :] - points[None, :, :]
        block = np.einsum("ijk,ijk->ij", diff, diff)
        np.sqrt(block, out=block)
        block[np.arange(ids.size), ids] = np.inf
        yield ids, block


def _patch_connectivity(graph: WeightedGraph, points: np.ndarray) -> WeightedGraph:
    """Union components through their closest node pair until connected:
    the first minimum in row-major order over (first component × rest),
    read from the first component's rows block by block."""
    while not graph.is_connected():
        first = _components(graph) == 0
        others = np.flatnonzero(~first)
        best = (np.inf, -1, -1)
        for ids, block in _distance_blocks(points, np.flatnonzero(first)):
            sub = block[:, others]
            i, j = np.unravel_index(np.argmin(sub), sub.shape)
            if sub[i, j] < best[0]:
                best = (float(sub[i, j]), int(ids[i]), int(others[j]))
        weight, u, v = best
        graph.add_edge(u, v, weight)
    return graph


def _euclidean_points_graph(points: np.ndarray, k: int) -> WeightedGraph:
    """kNN graph on points, patched to connectivity with extra edges."""
    n = points.shape[0]
    graph = WeightedGraph(n)
    for ids, block in _distance_blocks(points):
        for u, row in zip(ids.tolist(), block):
            for v in np.argpartition(row, min(k, n - 2))[:k]:
                graph.add_edge(u, int(v), float(row[v]))
    return _patch_connectivity(graph, points)


def _components(graph: WeightedGraph) -> np.ndarray:
    comp = np.full(graph.n, -1, dtype=int)
    label = 0
    for start in range(graph.n):
        if comp[start] >= 0:
            continue
        stack = [start]
        comp[start] = label
        while stack:
            u = stack.pop()
            for v, _ in graph.neighbors(u):
                if comp[v] < 0:
                    comp[v] = label
                    stack.append(v)
        label += 1
    return comp


def knn_geometric_graph(
    n: int, dim: int = 2, k: int = 4, seed: SeedLike = None
) -> WeightedGraph:
    """k-nearest-neighbor graph on uniform points in the unit cube."""
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = ensure_rng(seed)
    points = rng.random((n, dim))
    return _euclidean_points_graph(points, k)


def random_geometric_graph(
    n: int, radius: float, dim: int = 2, seed: SeedLike = None
) -> WeightedGraph:
    """Unit-cube random geometric graph: edge iff distance <= radius.

    Patched to connectivity like the kNN generator.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = ensure_rng(seed)
    points = rng.random((n, dim))
    graph = WeightedGraph(n)
    for ids, block in _distance_blocks(points):
        for u, row in zip(ids.tolist(), block):
            for v in np.flatnonzero(row <= radius):
                if u < v:
                    graph.add_edge(u, int(v), float(row[v]))
    return _patch_connectivity(graph, points)


def ring_with_chords_graph(
    n: int, chords: int = 0, seed: SeedLike = None
) -> WeightedGraph:
    """A unit-weight cycle plus random chords (weights = hop distance)."""
    if n < 3:
        raise ValueError("ring needs at least 3 nodes")
    rng = ensure_rng(seed)
    graph = WeightedGraph(n)
    for u in range(n):
        graph.add_edge(u, (u + 1) % n, 1.0)
    for _ in range(chords):
        u, v = rng.integers(0, n, size=2)
        u, v = int(u), int(v)
        if u != v and not graph.has_edge(u, v):
            hop = min(abs(u - v), n - abs(u - v))
            graph.add_edge(u, v, float(hop))
    return graph


def internet_like_graph(
    n: int,
    tiers: int = 3,
    branching: int = 4,
    k: int = 3,
    seed: SeedLike = None,
) -> WeightedGraph:
    """kNN graph over hierarchically clustered points (AS-topology stand-in).

    See :func:`repro.metrics.synthetic.internet_like_metric` for the
    placement model, and :mod:`repro.metrics.synthetic` for why a
    synthetic stand-in replaces measured latencies.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = ensure_rng(seed)
    dim = 3
    points = np.zeros((n, dim))
    scale = 1.0
    group = np.zeros(n, dtype=int)
    for _ in range(tiers):
        n_groups = int(group.max()) + 1
        centers = rng.normal(scale=scale, size=(n_groups, branching, dim))
        sub = rng.integers(0, branching, size=n)
        points += centers[group, sub]
        group = group * branching + sub
        scale /= branching
    points += rng.normal(scale=scale, size=(n, dim))
    return _euclidean_points_graph(points, k)
