"""PackedRings round-trips bit-for-bit with the dict builders.

The contract of the CSR backend: ``backend="packed"`` and
``backend="dict"`` produce *identical* ring structures — same keys,
same radii, same member tuples in the same order, same RNG draws for
the sampled builders — for all three builders, on euclidean and on
lazy-graph metrics.  A second contract pins the packed label path:
``estimate_many`` over packed labels equals the per-pair ``estimate``
decoder exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.packed import PackedRings, exact_capped_rings
from repro.core.rings import (
    RingsOfNeighbors,
    cardinality_rings,
    measure_rings,
    net_rings,
)
from repro.graphs.generators import knn_geometric_graph
from repro.metrics.graphmetric import ShortestPathMetric
from repro.metrics.measure import doubling_measure
from repro.metrics.nets import NestedNets
from repro.metrics.synthetic import random_hypercube_metric


def _metrics():
    graph = knn_geometric_graph(56, k=4, seed=9)
    return {
        "euclidean": random_hypercube_metric(48, dim=2, seed=5),
        "graph-lazy": ShortestPathMetric(
            graph, dense=False, row_cache_bytes=1 << 20
        ),
    }


def assert_identical(packed, legacy):
    """Every observable of the two backends matches bit for bit."""
    assert isinstance(packed, PackedRings)
    assert isinstance(legacy, RingsOfNeighbors)
    n = packed.metric.n
    for u in range(n):
        assert packed.rings_of(u).keys() == legacy.rings_of(u).keys()
        for key, ring in legacy.rings_of(u).items():
            p = packed.ring(u, key)
            assert p.members == ring.members
            assert p.radius == ring.radius
            assert p.owner == ring.owner and p.key == ring.key
        assert packed.neighbors_of(u) == legacy.neighbors_of(u)
        assert packed.out_degree(u) == legacy.out_degree(u)
        assert (
            packed.pointer_bits(u).as_dict() == legacy.pointer_bits(u).as_dict()
        )
    assert packed.max_ring_cardinality() == legacy.max_ring_cardinality()
    assert packed.max_out_degree() == legacy.max_out_degree()


class TestBuilderRoundTrip:
    @pytest.mark.parametrize("metric_name", ["euclidean", "graph-lazy"])
    def test_net_rings(self, metric_name):
        metric = _metrics()[metric_name]
        nets = NestedNets(metric, levels=4, base_radius=metric.min_distance())
        packed = net_rings(metric, nets, lambda j: 1.5 * nets.radius_of(j))
        legacy = net_rings(
            metric, nets, lambda j: 1.5 * nets.radius_of(j), backend="dict"
        )
        assert_identical(packed, legacy)

    @pytest.mark.parametrize("metric_name", ["euclidean", "graph-lazy"])
    def test_cardinality_rings(self, metric_name):
        metric = _metrics()[metric_name]
        packed = cardinality_rings(metric, samples_per_ring=4, seed=11)
        legacy = cardinality_rings(
            metric, samples_per_ring=4, seed=11, backend="dict"
        )
        assert_identical(packed, legacy)

    @pytest.mark.parametrize("metric_name", ["euclidean", "graph-lazy"])
    def test_measure_rings(self, metric_name):
        metric = _metrics()[metric_name]
        mu = doubling_measure(metric)
        packed = measure_rings(metric, mu, samples_per_ring=3, seed=7)
        legacy = measure_rings(
            metric, mu, samples_per_ring=3, seed=7, backend="dict"
        )
        assert_identical(packed, legacy)

    def test_level_subset_and_missing_key(self):
        metric = _metrics()["euclidean"]
        nets = NestedNets(metric, levels=4, base_radius=metric.min_distance())
        packed = net_rings(metric, nets, lambda j: 1.0, levels=[2, 3])
        assert packed.ring(0, 2) is not None
        assert packed.ring(0, 0) is None

    def test_merged_matches_dict_merge(self):
        metric = _metrics()["euclidean"]
        a_p = cardinality_rings(metric, 3, seed=1)
        b_p = cardinality_rings(metric, 2, seed=2)
        a_d = cardinality_rings(metric, 3, seed=1, backend="dict")
        b_d = cardinality_rings(metric, 2, seed=2, backend="dict")
        merged_p = a_p.merged_with(b_p)
        merged_d = a_d.merged_with(b_d)
        for u in range(metric.n):
            assert merged_p.rings_of(u).keys() == merged_d.rings_of(u).keys()
            assert merged_p.neighbors_of(u) == merged_d.neighbors_of(u)

    def test_sorted_members_view(self):
        metric = _metrics()["euclidean"]
        nets = NestedNets(metric, levels=4, base_radius=metric.min_distance())
        packed = net_rings(metric, nets, lambda j: 2.0 * nets.radius_of(j))
        as_sorted = packed.with_sorted_members()
        for u in range(metric.n):
            for key in packed.keys:
                want = tuple(sorted(packed.ring(u, key).members))
                assert as_sorted.ring(u, key).members == want

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
