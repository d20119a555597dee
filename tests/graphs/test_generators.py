"""Graph workload generators — connectivity, shape and golden edge digests."""

import hashlib

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs import (
    grid_graph,
    internet_like_graph,
    knn_geometric_graph,
    random_geometric_graph,
    ring_with_chords_graph,
)


class TestGridGraph:
    def test_size_and_degree(self):
        g = grid_graph(4, dim=2)
        assert g.n == 16
        assert g.m == 2 * 4 * 3  # 2 * side * (side-1)
        assert g.max_out_degree() == 4

    def test_3d(self):
        g = grid_graph(3, dim=3)
        assert g.n == 27
        assert g.is_connected()

    def test_jitter_changes_weights(self):
        g = grid_graph(3, jitter=0.5, seed=1)
        weights = {w for _u, _v, w in g.edges()}
        assert len(weights) > 1
        assert all(1.0 <= w <= 1.5 for w in weights)

    def test_rejects_small_side(self):
        with pytest.raises(ValueError):
            grid_graph(1)


class TestGeometricGraphs:
    def test_knn_connected(self):
        for seed in (0, 1, 2):
            g = knn_geometric_graph(60, k=3, seed=seed)
            assert g.is_connected()

    def test_knn_deterministic(self):
        a = knn_geometric_graph(30, seed=7)
        b = knn_geometric_graph(30, seed=7)
        assert list(a.edges()) == list(b.edges())

    def test_rgg_connected(self):
        g = random_geometric_graph(50, radius=0.2, seed=3)
        assert g.is_connected()

    def test_rgg_edges_within_radius_mostly(self):
        g = random_geometric_graph(40, radius=0.25, seed=4)
        # Only connectivity-patch edges may exceed the radius.
        long_edges = sum(1 for _u, _v, w in g.edges() if w > 0.25)
        assert long_edges <= 5

    def test_internet_like_connected(self):
        g = internet_like_graph(80, seed=5)
        assert g.is_connected()

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            knn_geometric_graph(1)
        with pytest.raises(ValueError):
            random_geometric_graph(1, 0.1)
        with pytest.raises(ValueError):
            internet_like_graph(1)


class TestRing:
    def test_plain_ring(self):
        g = ring_with_chords_graph(10)
        assert g.m == 10
        assert g.is_connected()

    def test_chords_added(self):
        g = ring_with_chords_graph(20, chords=10, seed=0)
        assert g.m >= 20
        assert g.is_connected()

    def test_chord_weight_is_hop_distance(self):
        g = ring_with_chords_graph(12, chords=30, seed=1)
        for u, v, w in g.edges():
            hop = min(abs(u - v), 12 - abs(u - v))
            assert w == pytest.approx(float(hop))

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            ring_with_chords_graph(2)


#: case -> (generator call, sha256 of :func:`_edges_digest`).  Recorded
#: when each geometric generator built its whole n×n×dim difference
#: array at once.  The connectivity patch adds edges in the k=2 kNN case
#: (12 edges) and in both random geometric cases (15 and 7).
GOLDEN_EDGES = {
    "knn-n400-k4": (lambda: knn_geometric_graph(400, k=4, seed=0),
                    "410da49f250a377cf29b4ba9b02414d784bff40f29ee6780f33eb7d248946f05"),
    "knn-n300-k2-patched": (lambda: knn_geometric_graph(300, k=2, seed=3),
                            "f6a4cb8af68293d36e18e1244b9ad145f6ea0809c94d1ee2ed8cf3377e0b1005"),
    "knn-n150-k3-dim3": (lambda: knn_geometric_graph(150, dim=3, k=3, seed=1),
                         "43148632e271fb4775b348e1b37c9cfb20a6a4525263066739a0049410ed2037"),
    "rgg-n200-patched": (lambda: random_geometric_graph(200, 0.08, seed=1),
                         "5bde946b5788ef9f772edae1d784a98b7bbd0e2112de86c6d1542357186b1aae"),
    "rgg-n150-dim3-patched": (lambda: random_geometric_graph(150, 0.2, dim=3, seed=2),
                              "56c4fda6cb1d81a868fea2f80a540d38b31b95a7b5a4962c177c2d58e292ccd1"),
    "internet-n120": (lambda: internet_like_graph(120, seed=4),
                      "a153b1340388c7bf1e695be51385c37526af6557f345f49ee1a55bbe23ef20b8"),
}


def _edges_digest(graph) -> str:
    """sha256 over every node's adjacency in link order, weights by their bits."""
    digest = hashlib.sha256()
    for u in range(graph.n):
        row = graph.neighbors(u)
        digest.update(np.asarray([u, len(row)], dtype=np.int64).tobytes())
        digest.update(np.asarray([v for v, _ in row], dtype=np.int64).tobytes())
        digest.update(np.asarray([w for _, w in row], dtype=np.float64).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_EDGES))
@pytest.mark.parametrize("block_elems", [None, 1000])
def test_geometric_generators_golden(case, block_elems, monkeypatch):
    """Same edges and weights whether the distance matrix is filled in
    one block (the default at these sizes) or in many small ones."""
    if block_elems is not None:
        monkeypatch.setattr(generators, "_BLOCK_ELEMS", block_elems)
    make, golden = GOLDEN_EDGES[case]
    assert _edges_digest(make()) == golden
