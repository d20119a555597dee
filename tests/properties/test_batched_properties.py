"""Batched queries agree with their per-pair definitions everywhere.

The engine leans on ``distances_between`` / ``pairwise`` being drop-in
replacements for ``distance`` loops; these properties pin that down for
every registered workload (covering the euclidean, matrix and
shortest-path metric backends plus the generic base implementation), for
the codec's vectorized roundtrip, and for the packed-label D+ kernel
against a plain per-pair loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.packed import pack_csr
from repro.labeling import _dplus
from repro.labeling._dplus import PackedLabels
from repro.labeling.encoding import DistanceCodec
from repro.metrics.base import RowCache

ALL_WORKLOADS = sorted(api.workload_names())


@pytest.fixture(scope="module")
def metrics():
    return {
        name: api.build_workload(name, n=20, seed=11).metric
        for name in ALL_WORKLOADS
    }


@pytest.mark.parametrize("name", ALL_WORKLOADS)
class TestBatchedAgreesWithScalar:
    def test_distances_between_matches_distance(self, metrics, name):
        metric = metrics[name]
        rng = np.random.default_rng(3)
        us = rng.integers(0, metric.n, size=7)
        vs = rng.integers(0, metric.n, size=9)
        block = metric.distances_between(us, vs)
        assert block.shape == (7, 9)
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                assert block[i, j] == pytest.approx(
                    metric.distance(int(u), int(v)), rel=1e-12, abs=1e-12
                )

    def test_pairwise_matches_distance(self, metrics, name):
        metric = metrics[name]
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, metric.n, size=(40, 2))
        got = metric.pairwise(pairs)
        for k, (u, v) in enumerate(pairs):
            assert got[k] == pytest.approx(
                metric.distance(int(u), int(v)), rel=1e-12, abs=1e-12
            )

    def test_pairwise_zero_on_diagonal(self, metrics, name):
        metric = metrics[name]
        pairs = np.stack([np.arange(metric.n), np.arange(metric.n)], axis=1)
        assert np.allclose(metric.pairwise(pairs), 0.0)

    def test_empty_batches(self, metrics, name):
        metric = metrics[name]
        assert metric.pairwise(np.empty((0, 2), dtype=int)).shape == (0,)
        assert metric.distances_between([], []).shape == (0, 0)


class TestRowCache:
    def test_eviction_keeps_results_correct(self):
        # A budget of ~3 rows forces constant eviction; every query must
        # still be answered correctly from recomputed rows.
        metric = api.build_workload("hypercube", n=64, seed=2).metric
        reference = np.array(
            [[metric.distance(u, v) for v in range(8)] for u in range(8)]
        )
        small = RowCache(budget_bytes=3 * 64 * 8)
        metric._sorted_rows = small
        for u in range(64):
            metric.ball_size(u, 0.5)  # touch every node: evictions happen
        assert len(small) <= 3 + 1
        block = metric.distances_between(np.arange(8), np.arange(8))
        assert np.allclose(block, reference)

    def test_budget_bounds_bytes(self):
        cache = RowCache(budget_bytes=1000)
        for key in range(50):
            cache.put(key, np.zeros(16))  # 128 bytes each
        assert cache.nbytes <= 1000
        assert len(cache) < 50

    def test_always_keeps_latest_row(self):
        cache = RowCache(budget_bytes=8)
        row = np.zeros(100)
        cache.put(0, row)
        assert cache.get(0) is row

    def test_evicted_reference_stays_valid(self):
        cache = RowCache(budget_bytes=900)
        first = cache.put(0, np.arange(16.0))
        cache.put(1, np.zeros(100))  # evicts key 0
        assert cache.get(0) is None
        assert np.array_equal(first, np.arange(16.0))


class TestCodecRoundtripMany:
    @pytest.mark.parametrize("mantissa_bits", [4, 8, 12])
    def test_matches_scalar_roundtrip(self, mantissa_bits):
        rng = np.random.default_rng(7)
        codec = DistanceCodec(0.01, 100.0, mantissa_bits)
        ds = np.concatenate([[0.0, 0.01, 100.0], rng.uniform(0.01, 100.0, 200)])
        batched = codec.roundtrip_many(ds)
        scalar = np.array([codec.roundtrip(float(d)) for d in ds])
        assert np.array_equal(batched, scalar)

    def test_rejects_negative(self):
        codec = DistanceCodec(0.5, 2.0, 6)
        with pytest.raises(ValueError):
            codec.roundtrip_many(np.array([-1.0]))


# -- packed-label D+ ---------------------------------------------------------

#: a few values drawn often, so common beacons tie on d_ub + d_vb
TIED = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])
DISTANCES = TIED | st.floats(min_value=0.0, max_value=1e6)


def _pack(rows):
    """``PackedLabels`` over per-node ``[(beacon, distance), ...]`` rows."""
    indptr, ids = pack_csr([[b for b, _ in row] for row in rows], dtype=np.int64)
    _, dist = pack_csr([[d for _, d in row] for row in rows], dtype=float)
    return PackedLabels(len(rows), indptr, ids, dist)


def _dplus_loop(rows, us, vs, inactive=()):
    """D+ pair by pair in plain Python: 0 on the diagonal, else the min
    of d_ub + d_vb over the common beacons b not in ``inactive`` (inf
    when there is none)."""
    gone = set(inactive)
    out = []
    for u, v in zip(us, vs):
        if u == v:
            out.append(0.0)
            continue
        d_u = {b: d for b, d in rows[u] if b not in gone}
        sums = [d_u[b] + d for b, d in rows[v] if b in d_u]
        out.append(min(sums, default=float("inf")))
    return np.array(out, dtype=float)


@st.composite
def label_batches(draw):
    """Random CSR labels (n in [1, 60], rows of 0..n sorted distinct ids),
    a pair batch with diagonal and repeated pairs, and a sorted set of
    inactive ids that often holds every beacon of some row."""
    n = draw(st.integers(min_value=1, max_value=60))
    rows = []
    for _ in range(n):
        ids = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
        dist = draw(st.lists(DISTANCES, min_size=len(ids), max_size=len(ids)))
        rows.append(list(zip(ids, dist)))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=40))
    pairs += [(u, u) for u in draw(st.lists(node, max_size=4))]
    pairs += pairs[: draw(st.integers(0, 5))]
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    inactive = set(draw(st.sets(node, max_size=n)))
    for u in draw(st.lists(node, max_size=2)):  # rows left with no beacon
        inactive |= {b for b, _ in rows[u]}
    return rows, us, vs, sorted(inactive)


@settings(max_examples=150, deadline=None)
@given(label_batches())
def test_dplus_many_matches_per_pair_loop(batch):
    rows, us, vs, inactive = batch
    packed = _pack(rows)
    expected = _dplus_loop(rows, us, vs)
    masked = _dplus_loop(rows, us, vs, inactive)
    assert np.array_equal(packed.dplus_many(us, vs), expected)
    assert np.array_equal(packed.dplus_many(us, vs, inactive), masked)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_dplus, "SCRATCH", 1)  # one pair per chunk
        assert np.array_equal(packed.dplus_many(us, vs), expected)
        assert np.array_equal(packed.dplus_many(us, vs, inactive), masked)


def test_dplus_many_full_rows_match_per_pair_loop():
    # Shaped like the churn-tri read batch: every row holds every node.
    n = 500
    rng = np.random.default_rng(9)
    dist = rng.random((n, n))
    rows = [list(zip(range(n), dist[u].tolist())) for u in range(n)]
    pairs = rng.integers(0, n, size=(272, 2))
    pairs[:4, 1] = pairs[:4, 0]
    us, vs = pairs[:, 0].tolist(), pairs[:, 1].tolist()
    assert np.array_equal(_pack(rows).dplus_many(us, vs), _dplus_loop(rows, us, vs))
