"""The CSR ring builders pinned by golden digests, and packed reads.

Each builder × metric digest is a sha256 over the structure's ``keys``,
``radii``, ``indptr`` and ``members``.  They were recorded when a
per-node ``dict`` backend still stood beside the CSR one, in runs where
the two held identical rings for the same case (same keys, radii and
member order, the same RNG draws for the sampled builders), on a
euclidean and on a lazy-graph metric.  A second contract pins the packed
label path: ``estimate_many`` over packed labels equals the per-pair
``estimate`` decoder exactly.  ``with_sorted_members`` (one sort of
``ring·n + member`` keys) equals the two-key lexsort it replaced.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packed import PackedRings, exact_capped_rings
from repro.core.rings import cardinality_rings, measure_rings, net_rings
from repro.graphs.generators import knn_geometric_graph
from repro.metrics.graphmetric import ShortestPathMetric
from repro.metrics.measure import doubling_measure
from repro.metrics.nets import NestedNets
from repro.metrics.synthetic import random_hypercube_metric

#: (builder, metric) -> sha256 of :func:`rings_digest`
GOLDEN = {
    ("net_rings", "euclidean"):
        "fd24e310f63ef7176a428d5721e65bd4d99a45a7293724dfb18153f99b057b1f",
    ("net_rings", "graph-lazy"):
        "04d7f8aacb9782598f803cd381d9bfb17c237f4522fe8b86e852bde2c807f5f1",
    ("cardinality_rings", "euclidean"):
        "d11f4b582ae91f7f5f12de5ad1a60d42a1e2892c01c58e9f97a84520209bce8c",
    ("cardinality_rings", "graph-lazy"):
        "c3c8943836e7ac72a909930bd4d99709645030b7a66ea1b4f42684cb29c01551",
    ("measure_rings", "euclidean"):
        "09bd0845187e0e50a4925b1f503dc1cc9ad47b3b85273accfc34e90d69a6f1a2",
    ("measure_rings", "graph-lazy"):
        "37dd42e932b22dd04364b6a583f9cd637c3ef191e2644374f56b7b57c0b881b1",
}


def _metrics():
    graph = knn_geometric_graph(56, k=4, seed=9)
    return {
        "euclidean": random_hypercube_metric(48, dim=2, seed=5),
        "graph-lazy": ShortestPathMetric(
            graph, dense=False, row_cache_bytes=1 << 20
        ),
    }


def rings_digest(rings: PackedRings) -> str:
    """sha256 over the ring keys and the radii, indptr and members arrays."""
    digest = hashlib.sha256()
    digest.update(repr(rings.keys).encode())
    for name, array, dtype in (
        ("radii", rings.radii, np.float64),
        ("indptr", rings.indptr, np.int64),
        ("members", rings.members, np.int32),
    ):
        digest.update(f"{name} {array.shape}".encode())
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return digest.hexdigest()


class TestBuilderRoundTrip:
    @pytest.mark.parametrize("metric_name", ["euclidean", "graph-lazy"])
    def test_net_rings(self, metric_name):
        metric = _metrics()[metric_name]
        nets = NestedNets(metric, levels=4, base_radius=metric.min_distance())
        packed = net_rings(metric, nets, lambda j: 1.5 * nets.radius_of(j))
        assert rings_digest(packed) == GOLDEN[("net_rings", metric_name)]

    @pytest.mark.parametrize("metric_name", ["euclidean", "graph-lazy"])
    def test_cardinality_rings(self, metric_name):
        metric = _metrics()[metric_name]
        packed = cardinality_rings(metric, samples_per_ring=4, seed=11)
        assert rings_digest(packed) == GOLDEN[("cardinality_rings", metric_name)]

    @pytest.mark.parametrize("metric_name", ["euclidean", "graph-lazy"])
    def test_measure_rings(self, metric_name):
        metric = _metrics()[metric_name]
        mu = doubling_measure(metric)
        packed = measure_rings(metric, mu, samples_per_ring=3, seed=7)
        assert rings_digest(packed) == GOLDEN[("measure_rings", metric_name)]

    def test_level_subset_and_missing_key(self):
        metric = _metrics()["euclidean"]
        nets = NestedNets(metric, levels=4, base_radius=metric.min_distance())
        packed = net_rings(metric, nets, lambda j: 1.0, levels=[2, 3])
        assert packed.keys == (2, 3)
        assert packed.members_of(0, 2) is not None
        with pytest.raises(KeyError):
            packed.members_of(0, 0)

    def test_sorted_members_view(self):
        metric = _metrics()["euclidean"]
        nets = NestedNets(metric, levels=4, base_radius=metric.min_distance())
        packed = net_rings(metric, nets, lambda j: 2.0 * nets.radius_of(j))
        as_sorted = packed.with_sorted_members()
        for u in range(metric.n):
            for key in packed.keys:
                want = sorted(packed.members_of(u, key).tolist())
                assert as_sorted.members_of(u, key).tolist() == want

    def test_exact_capped_rings_match_bruteforce(self):
        metric = _metrics()["euclidean"]
        base = metric.min_distance()
        levels = metric.log_aspect_ratio() + 1
        cap = 5
        exact = exact_capped_rings(metric, base, levels, cap=cap)
        edges = base * np.exp2(np.arange(levels))
        for u in range(metric.n):
            row = metric.distances_from(u)
            scale = np.searchsorted(edges, row, side="left")
            order = np.argsort(row, kind="stable")
            for j in range(levels):
                annulus = order[
                    (scale[order] == j) & (order != u) & (row[order] > 0)
                ]
                want = [int(v) for v in annulus[:cap]]
                got = [int(v) for v in exact.members_of(u, j)]
                assert got == want


@st.composite
def ring_blocks(draw):
    """(n, K, indptr, members): n·K rings of distinct ids in [0, n), each
    in a drawn order, empty rings included."""
    n, K = draw(st.integers(1, 30)), draw(st.integers(1, 4))
    one_ring = st.lists(st.integers(0, n - 1), unique=True)
    rings = draw(st.lists(one_ring, min_size=n * K, max_size=n * K))
    indptr = np.concatenate([[0], np.cumsum([len(ring) for ring in rings])])
    members = np.asarray([v for ring in rings for v in ring], dtype=np.int32)
    return n, K, indptr, members


@given(ring_blocks())
@settings(max_examples=150, deadline=None)
def test_sorted_members_equal_the_two_key_lexsort(block):
    n, K, indptr, members = block
    rings = PackedRings(SimpleNamespace(n=n), range(K), np.zeros((n, K)), indptr, members)
    ring_of = np.repeat(np.arange(n * K), np.diff(indptr))
    want = members[np.lexsort((members, ring_of))]
    got = rings.with_sorted_members()
    assert got.members.dtype == np.int32
    np.testing.assert_array_equal(got.members, want)
    np.testing.assert_array_equal(got.indptr, indptr)


class TestPackedLabelEquivalence:
    """estimate_many over packed labels == per-pair estimate, exactly."""

    def _pairs(self, n):
        rng = np.random.default_rng(0)
        us = rng.integers(0, n, size=200)
        vs = rng.integers(0, n, size=200)
        return us, vs

    def test_triangulation(self):
        from repro.labeling.triangulation import RingTriangulation

        metric = random_hypercube_metric(40, dim=2, seed=3)
        tri = RingTriangulation(metric, delta=0.3)
        us, vs = self._pairs(metric.n)
        batched = tri.estimate_many(us, vs)
        singles = np.array([tri.estimate(int(u), int(v)) for u, v in zip(us, vs)])
        np.testing.assert_array_equal(batched, singles)

    def test_triangulation_dls(self):
        from repro.labeling.triangulation import (
            RingTriangulation,
            TriangulationDLS,
        )

        metric = random_hypercube_metric(40, dim=2, seed=3)
        dls = TriangulationDLS(RingTriangulation(metric, delta=0.3))
        us, vs = self._pairs(metric.n)
        batched = dls.estimate_many(us, vs)
        singles = np.array([dls.estimate(int(u), int(v)) for u, v in zip(us, vs)])
        np.testing.assert_array_equal(batched, singles)

    def test_ring_dls(self):
        from repro.labeling.dls import RingDLS

        metric = random_hypercube_metric(32, dim=2, seed=4)
        dls = RingDLS(metric, delta=0.3)
        us, vs = self._pairs(metric.n)
        batched = dls.estimate_many(us, vs)
        singles = np.array([dls.estimate(int(u), int(v)) for u, v in zip(us, vs)])
        np.testing.assert_array_equal(batched, singles)


class TestPackedSchemes:
    """The packed routing schemes keep their structural invariants."""

    def test_ring_routing_zeta_matches_bruteforce(self):
        graph = knn_geometric_graph(48, k=4, seed=2)
        from repro.routing.ring_scheme import RingRouting

        scheme = RingRouting(graph, delta=0.3)
        for u in range(0, graph.n, 7):
            for j in range(scheme.levels - 1):
                expected = {}
                ring_u_next = {
                    w: k for k, w in enumerate(scheme.ring(u, j + 1))
                }
                for fi, f in enumerate(scheme.ring(u, j)):
                    for wi, w in enumerate(scheme.ring(f, j + 1)):
                        if w in ring_u_next:
                            expected[(fi, wi)] = ring_u_next[w]
                assert dict(scheme.zeta_items(u, j)) == expected
                for (fi, wi), k in expected.items():
                    assert scheme.zeta_lookup(u, j, fi, wi) == k

    def test_ring_routing_storage_is_packed(self):
        graph = knn_geometric_graph(48, k=4, seed=2)
        from repro.core.packed import PackedRings
        from repro.routing.ring_scheme import RingRouting

        scheme = RingRouting(graph, delta=0.3)
        assert isinstance(scheme.rings_packed, PackedRings)
        assert scheme.rings_packed.members.dtype == np.int32
        account = scheme.rings_packed.storage_account()
        assert account.total_bits == scheme.rings_packed.resident_bytes() * 8

    def test_label_routing_neighbors_sorted_csr(self):
        graph = knn_geometric_graph(48, k=4, seed=2)
        from repro.routing.label_scheme import LabelRouting

        scheme = LabelRouting(graph, delta=0.3, estimator="exact")
        for u in range(graph.n):
            nbrs = scheme.neighbors_of(u)
            assert list(nbrs) == sorted(nbrs)
            assert u not in nbrs
