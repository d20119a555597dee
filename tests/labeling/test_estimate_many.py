"""Batched estimates of the ring structures match the per-pair decoders.

The engine's :func:`~repro.engine.evaluate.bulk_estimates` prefers a
vectorized ``estimate_many``; these tests pin down that the paper's own
schemes (Theorem 3.2 triangulation, its corollary DLS, and the Theorem
3.4 id-free labels) now provide one and that it reproduces the per-pair
``estimate`` bit for bit — including diagonal pairs and pairs repeated
within one batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.packed import pack_csr
from repro.engine import bulk_estimates
from repro.labeling import (
    BeaconTriangulation,
    RingDLS,
    RingTriangulation,
    ThorupZwickOracle,
    TriangulationDLS,
)
from repro.labeling import _dplus
from repro.labeling._dplus import PackedLabels

DELTA = 0.4


@pytest.fixture(scope="module")
def estimators(hypercube32, scales_hypercube32):
    tri = RingTriangulation(hypercube32, DELTA, scales=scales_hypercube32)
    return {
        "triangulation": tri,
        "triangulation-dls": TriangulationDLS(tri),
        "ring-dls": RingDLS(hypercube32, DELTA, scales=scales_hypercube32),
        "beacons": BeaconTriangulation(hypercube32, k=8, seed=0),
        "tz-oracle": ThorupZwickOracle(hypercube32, k=2, seed=0),
    }


def _packed(labels) -> PackedLabels:
    """Pack ``beacon -> distance`` dicts, ids ascending within each row."""
    rows = [sorted(label.items()) for label in labels]
    indptr, ids = pack_csr([[b for b, _ in row] for row in rows], dtype=np.int64)
    _, dist = pack_csr([[d for _, d in row] for row in rows], dtype=float)
    return PackedLabels(len(labels), indptr, ids, dist)


def _pair_batch(n: int) -> tuple:
    rng = np.random.default_rng(5)
    us = rng.integers(0, n, 300)
    vs = rng.integers(0, n, 300)
    us[:5] = vs[:5]  # diagonal pairs
    us[5:10], vs[5:10] = us[10:15], vs[10:15]  # repeated pairs
    return us, vs


@pytest.mark.parametrize("name", ["triangulation", "triangulation-dls", "ring-dls"])
def test_estimate_many_matches_per_pair(estimators, hypercube32, name):
    estimator = estimators[name]
    us, vs = _pair_batch(hypercube32.n)
    batched = estimator.estimate_many(us, vs)
    looped = np.array(
        [estimator.estimate(int(u), int(v)) for u, v in zip(us, vs)]
    )
    assert np.array_equal(batched, looped)


@pytest.mark.parametrize("name", ["triangulation", "triangulation-dls", "ring-dls"])
def test_bulk_estimates_takes_the_vectorized_path(estimators, hypercube32, name):
    estimator = estimators[name]
    us, vs = _pair_batch(hypercube32.n)
    pairs = np.stack([us, vs], axis=1)
    via_engine = bulk_estimates(estimator, pairs)
    assert np.array_equal(via_engine, estimator.estimate_many(us, vs))


@pytest.mark.parametrize(
    "name", ["triangulation", "triangulation-dls", "ring-dls", "beacons"]
)
@pytest.mark.parametrize(
    "us, vs, match",
    [
        ([0, 1, 2], [1], "differ in length"),
        ([0], [1, 2], "differ in length"),
        ([-2], [5], "out of range"),
        ([3], [-1], "out of range"),
        ([0, 32], [1, 2], "out of range"),
    ],
)
def test_estimate_many_rejects_malformed_batches(estimators, name, us, vs, match):
    # Unequal sides must not broadcast, nor a negative id wrap to another node.
    with pytest.raises(ValueError, match=match):
        estimators[name].estimate_many(us, vs)


@pytest.mark.parametrize(
    "name",
    ["triangulation", "triangulation-dls", "ring-dls", "beacons", "tz-oracle"],
)
def test_reads_reject_malformed_ids(estimators, hypercube32, name):
    # A negative id would read another node's label (or, on CSR labels,
    # offsets from two different rows) and a float or bool id would be
    # truncated to another node: every read refuses them instead.
    estimator = estimators[name]

    def reads(*names):
        return [getattr(estimator, a) for a in names if hasattr(estimator, a)]

    scalar_reads = reads("estimate", "bounds")
    batched_reads = reads("estimate_many", "bounds_many")
    n = hypercube32.n
    for bad in (-2, n, 1.9, True, np.float64(3.0), np.bool_(False)):
        for read in scalar_reads:
            for u, v in ((bad, 5), (5, bad), (bad, bad)):
                with pytest.raises(ValueError):
                    read(u, v)
    for us, vs in (([1.9], [2.7]), ([True], [2]), ([1, True], [2, 3])):
        for read in batched_reads:
            with pytest.raises(ValueError, match="integers"):
                read(us, vs)
    # Integer ids of any integer type still read the same node.
    assert estimator.estimate(np.int64(5), np.int32(3)) == estimator.estimate(5, 3)


def test_packed_labels_edge_cases():
    packed = _packed([{1: 1.0}, {2: 2.0}, {}, {1: 0.5, 2: 0.25}])
    got = packed.dplus_many([0, 0, 2, 3, 1], [1, 3, 3, 3, 1])
    assert got[0] == np.inf  # no common beacon
    assert got[1] == pytest.approx(1.5)  # beacon 1: 1.0 + 0.5
    assert got[2] == np.inf  # empty label
    assert got[3] == 0.0  # diagonal
    assert got[4] == 0.0  # diagonal, even with a shared beacon
    assert packed.dplus_many([], []).shape == (0,)
    # Masking beacon 1 leaves pair (0, 3) none in common; every beacon of
    # row 3 inactive reads inf off the diagonal and 0 on it.
    masked = packed.dplus_many([0, 1, 3, 3], [3, 3, 3, 0], inactive=[1])
    assert masked.tolist() == [np.inf, 2.25, 0.0, np.inf]
    assert packed.dplus_many([3, 3], [1, 3], inactive=[1, 2]).tolist() == [np.inf, 0.0]


def test_packed_labels_chunking_is_transparent(monkeypatch):
    labels = [{j: float(j + u) for j in range(u % 7 + 1)} for u in range(40)]
    packed = _packed(labels)
    rng = np.random.default_rng(0)
    us = rng.integers(0, 40, 500)
    vs = rng.integers(0, 40, 500)
    expected = packed.dplus_many(us, vs)
    monkeypatch.setattr(_dplus, "SCRATCH", 100)  # chunks of 2 pairs
    assert np.array_equal(packed.dplus_many(us, vs), expected)
