"""The batched net scan is bit-for-bit identical to the sequential scan.

A literal re-implementation of the pre-batching sequential greedy scan
is the reference.  These tests pin the batched builders to it:

* ``greedy_net`` must reproduce it exactly on euclidean, graph (dense and
  lazy backends) and synthetic matrix workloads, and so must scans that
  span several admission batches, on those metrics and on random integer
  point sets, where distances tie;
* whole ``NestedNets`` hierarchies (which additionally carry the
  distance-to-net array between levels) must match level-for-level;
* the one-pass ring and nearest-member scan must match the scalar
  one-row-per-center ring query and a brute-force nearest member read
  from the members' own rows (lowest id on ties), whatever the block
  size; each coarser net is a prefix of the finest net's admission list;
* a lazy Theorem 2.1 build computes each node's full row at most twice,
  and at most n + n/2 full rows in all: the diameter sweep reads a few.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.metrics.nets as nets_module
from repro import api
from repro.core.rings import net_rings
from repro.graphs.generators import grid_graph, knn_geometric_graph
from repro.metrics import EuclideanMetric
from repro.metrics.graphmetric import ShortestPathMetric
from repro.metrics.nets import NestedNets, greedy_net, greedy_scan, is_r_net
from repro.metrics.synthetic import (
    clustered_metric,
    exponential_line,
    random_hypercube_metric,
)


def sequential_greedy_net(metric, r, seed_points=None):
    """The pre-batching reference: one full distance row per admission."""
    n = metric.n
    net = list(seed_points) if seed_points else []
    min_dist = np.full(n, np.inf)
    for s in net:
        np.minimum(min_dist, metric.distances_from(s), out=min_dist)
    pos = 0
    while pos < n:
        candidates = np.flatnonzero(min_dist[pos:] >= r)
        if candidates.size == 0:
            break
        v = pos + int(candidates[0])
        net.append(v)
        np.minimum(min_dist, metric.distances_from(v), out=min_dist)
        pos = v + 1
    return net


def _metrics():
    graph = knn_geometric_graph(72, k=4, seed=3)
    return {
        "euclidean": random_hypercube_metric(80, dim=2, seed=1),
        "graph-dense": ShortestPathMetric(graph, dense=True),
        "graph-lazy": ShortestPathMetric(graph, dense=False),
        "synthetic-clustered": clustered_metric(
            64, clusters=6, dim=3, spread=0.05, seed=2
        ),
        "synthetic-expline": exponential_line(24, base=1.7),
    }


METRICS = _metrics()


def _radii(metric):
    lo, hi = metric.min_distance(), metric.diameter()
    return [lo * 1.5, (lo * hi) ** 0.5, hi / 3.0]


class TestGreedyNet:
    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_matches_sequential_scan(self, name):
        metric = METRICS[name]
        for r in _radii(metric):
            expected = sequential_greedy_net(metric, r)
            got = greedy_net(metric, r)
            assert got == expected
            assert is_r_net(metric, got, r)

    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_seeded_scan_matches(self, name):
        metric = METRICS[name]
        r = metric.diameter() / 4.0
        seed = sequential_greedy_net(metric, 2 * r)
        expected = sequential_greedy_net(metric, r, seed_points=seed)
        assert greedy_net(metric, r, seed_points=seed) == expected

    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_admission_batches_match_sequential(self, name):
        # These metrics have fewer nodes than the default batch, so only a
        # small batch makes the scan span several admission batches; on
        # the lazy graph the intra-batch blocks are the radius-capped rows.
        metric = METRICS[name]
        for r in _radii(metric):
            expected = sequential_greedy_net(metric, r)
            seed = sequential_greedy_net(metric, 2 * r)
            seeded = sequential_greedy_net(metric, r, seed_points=seed)
            for batch in (1, 2, 3, 7):
                assert greedy_scan(metric, r, batch=batch)[0] == expected
                coarse, carried = greedy_scan(metric, 2 * r, batch=batch)
                assert coarse == seed
                got, _ = greedy_scan(
                    metric, r, seed_points=seed, min_dist=carried, batch=batch
                )
                assert got == seeded


@st.composite
def scan_cases(draw):
    """An integer point set (so distances tie), a radius and an optional
    coarser radius drawn from its own distances, and an admission batch."""
    n = draw(st.integers(min_value=1, max_value=60))
    dim = draw(st.integers(min_value=1, max_value=2))
    coords = draw(
        st.lists(st.integers(min_value=0, max_value=12),
                 min_size=n * dim, max_size=n * dim)
    )
    metric = EuclideanMetric(np.array(coords, dtype=float).reshape(n, dim))
    ids = np.arange(n)
    dists = np.unique(metric.distances_between(ids, ids))
    radii = dists[dists > 0].tolist() or [1.0]
    r = draw(st.sampled_from(radii))
    coarse = draw(st.none() | st.sampled_from([x for x in radii if x >= r]))
    batch = draw(st.sampled_from([1, 2, 3, nets_module._ADMIT_BATCH]))
    return metric, r, coarse, batch


@settings(max_examples=120, deadline=None)
@given(scan_cases())
def test_every_admission_batch_matches_sequential(case):
    metric, r, coarse, batch = case
    if coarse is None:
        expected = sequential_greedy_net(metric, r)
        net, min_dist = greedy_scan(metric, r, batch=batch)
    else:
        seed, carried = greedy_scan(metric, coarse, batch=batch)
        assert seed == sequential_greedy_net(metric, coarse)
        expected = sequential_greedy_net(metric, r, seed_points=seed)
        assert greedy_scan(metric, r, seed_points=seed, batch=batch)[0] == expected
        net, min_dist = greedy_scan(
            metric, r, seed_points=seed, min_dist=carried, batch=batch
        )
    assert net == expected
    # Euclidean rows are never radius-capped: the carried array is the
    # exact distance to the final net.
    exact = metric.distances_between(np.asarray(net), np.arange(metric.n))
    np.testing.assert_array_equal(min_dist, exact.min(axis=0))


class TestNestedNets:
    def _reference_levels(self, metric, levels, base_radius, descending):
        """Levels built by seeding the reference scan coarsest-first."""
        def radius_of(j):
            return base_radius / 2.0**j if descending else base_radius * 2.0**j

        nets = {}
        seed = []
        for j in sorted(range(levels), key=radius_of, reverse=True):
            seed = sequential_greedy_net(metric, radius_of(j), seed_points=seed)
            nets[j] = seed
        return nets

    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_hierarchy_matches_reference(self, name):
        metric = METRICS[name]
        levels = min(6, metric.log_aspect_ratio() + 1)
        base = metric.min_distance()
        expected = self._reference_levels(metric, levels, base, False)
        nets = NestedNets(metric, levels=levels, base_radius=base)
        for j in range(levels):
            assert nets.net(j) == expected[j]

    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_descending_hierarchy_matches(self, name):
        metric = METRICS[name]
        levels = 5
        base = metric.diameter()
        expected = self._reference_levels(metric, levels, base, True)
        nets = NestedNets(metric, levels=levels, base_radius=base, descending=True)
        for j in range(levels):
            assert nets.net(j) == expected[j]

    def test_lazy_and_dense_backends_agree(self):
        dense, lazy = METRICS["graph-dense"], METRICS["graph-lazy"]
        levels = dense.log_aspect_ratio() + 1
        base = dense.min_distance()
        a = NestedNets(dense, levels=levels, base_radius=base)
        b = NestedNets(lazy, levels=levels, base_radius=base)
        for j in range(levels):
            assert a.net(j) == b.net(j)


def _nearest_reference(metric, net) -> Tuple[np.ndarray, np.ndarray]:
    """Each target's nearest member of ``net`` and its distance, read from
    the members' own rows one at a time, the lowest id on ties."""
    members = np.sort(np.asarray(net))
    rows = np.stack([metric.distances_from(int(m)) for m in members])
    best = rows.argmin(axis=0)
    return members[best], rows[best, np.arange(metric.n)]


def _tied_metrics():
    """Metrics whose distances tie often: a unit grid graph and integer
    points in the plane."""
    grid = np.stack(np.meshgrid(np.arange(7), np.arange(7)), axis=-1).reshape(-1, 2)
    return {
        "graph-grid": ShortestPathMetric(grid_graph(8), dense=False),
        "euclidean-integer": EuclideanMetric(grid.astype(float)),
    }


TIED = _tied_metrics()


class TestBatchedMemberQueries:
    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_net_rings_match_scalar_balls(self, name):
        metric = METRICS[name]
        nets = NestedNets(
            metric, levels=5, base_radius=metric.diameter(), descending=True
        )
        radius = lambda j: 2.0 * nets.radius_of(j)  # noqa: E731
        rings = net_rings(metric, nets, radius)
        for u in range(metric.n):
            for j in range(nets.levels):
                expected = nets.members_in_ball(j, u, radius(j))
                assert rings.members_of(u, j).tolist() == expected.tolist()

    @pytest.mark.parametrize("name", sorted(METRICS) + sorted(TIED))
    @pytest.mark.parametrize("descending", [False, True])
    def test_nearest_members_match_brute_force(self, name, descending):
        metric = {**METRICS, **TIED}[name]
        base = metric.diameter() if descending else metric.min_distance()
        levels = min(5, metric.log_aspect_ratio() + 1)
        nets = NestedNets(metric, levels=levels, base_radius=base,
                          descending=descending)
        # every level, then a subset out of order: a scan group may then
        # hold points admitted at several levels
        for asked in (list(range(levels)), [levels - 1, 0][: levels]):
            radii = [nets.radius_of(j) for j in asked]
            _, (nearest, dist) = nets.scan(asked, radii, nearest=True)
            assert nearest.shape == dist.shape == (metric.n, len(asked))
            for k, j in enumerate(asked):
                ids, d = _nearest_reference(metric, nets.net(j))
                np.testing.assert_array_equal(nearest[:, k], ids)
                np.testing.assert_array_equal(dist[:, k], d)

    @pytest.mark.parametrize("name", sorted(METRICS) + sorted(TIED))
    @pytest.mark.parametrize("descending", [False, True])
    def test_coarser_nets_are_prefixes_of_the_finest(self, name, descending):
        metric = {**METRICS, **TIED}[name]
        base = metric.diameter() if descending else metric.min_distance()
        nets = NestedNets(metric, levels=6, base_radius=base, descending=descending)
        finest = nets.net(5 if descending else 0)
        for j in range(nets.levels):
            assert nets.net(j) == finest[: len(nets.net(j))]

    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_tiny_blocks_change_nothing(self, name, monkeypatch):
        # Blocks of a few elements split every scan into many pieces, one
        # row each; min and per-row reads make that invisible.
        metric = METRICS[name]
        base = metric.min_distance()
        levels = min(6, metric.log_aspect_ratio() + 1)

        def build():
            nets = NestedNets(metric, levels=levels, base_radius=base)
            rings, nearest = net_rings(
                metric, nets, lambda j: 3.0 * nets.radius_of(j), return_nearest=True
            )
            nearest = np.stack(nearest)
            return nets, rings, nearest

        nets, rings, nearest = build()
        monkeypatch.setattr(nets_module, "_BLOCK_ELEMS", 5)
        tiny_nets, tiny_rings, tiny_nearest = build()
        for j in range(levels):
            assert tiny_nets.net(j) == nets.net(j)
        np.testing.assert_array_equal(tiny_nearest, nearest)
        np.testing.assert_array_equal(tiny_rings.members, rings.members)
        np.testing.assert_array_equal(tiny_rings.indptr, rings.indptr)


def test_a_lazy_routing_build_computes_each_full_row_at_most_twice(monkeypatch):
    # One full row per node for the diameter, one for the rings and the
    # zooming entries; a row cache far smaller than n rows forces every
    # other read of a row to compute it again.
    full_rows = []
    dijkstra = ShortestPathMetric._dijkstra

    def counted(self, sources, limit=np.inf):
        if not np.isfinite(limit):
            full_rows.append(np.size(sources))
        return dijkstra(self, sources, limit)

    monkeypatch.setattr(ShortestPathMetric, "_dijkstra", counted)
    n = 200
    fitted = api.build("route-thm2.1", "knn-graph", n=n, seed=0, delta=0.25,
                       dense=False, cache_mb=0.05, cache=api.BuildCache())
    assert fitted.inner.metric.row_cache_stats()["budget_bytes"] < n * n * 8
    assert 0 < sum(full_rows) <= 2 * n


def test_a_lazy_routing_build_reads_few_rows_for_the_diameter(monkeypatch):
    # The rings and zooming entries read each row once; the pruned
    # diameter sweep reads a few more where the all-rows pass read n.
    full_rows = []
    dijkstra = ShortestPathMetric._dijkstra

    def counted(self, sources, limit=np.inf):
        if not np.isfinite(limit):
            full_rows.append(np.size(sources))
        return dijkstra(self, sources, limit)

    monkeypatch.setattr(ShortestPathMetric, "_dijkstra", counted)
    n = 200
    api.build("route-thm2.1", "knn-graph", n=n, seed=0, delta=0.25,
              dense=False, cache_mb=0.05, cache=api.BuildCache())
    assert 0 < sum(full_rows) <= n + n // 2
