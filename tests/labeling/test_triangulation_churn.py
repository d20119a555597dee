"""Theorem 3.2 triangulation reads under churn, pinned end to end.

Batched reads come from the pristine label block masked by the live
active set.  A golden digest replays a churn trace with auto-merge on
and holds every batched and scalar answer, plus the compacted container
arrays, to the values the CSR-scatter kernel produced before the dense
block replaced it.  A second replay keeps every patch pending and checks
that each off-diagonal pair touching a dirty row is IVL-checked, and
that every batched answer equals the per-pair live answer.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import api
from repro.core import patch as patch_policy
from repro.distributed.trace import ChurnTrace

N = 200
BATCHED = 64
SCALAR = 8

#: sha256 of :func:`test_golden_digest`'s replay, recorded with the
#: CSR-scatter D+ kernel and the per-pair dirty-row fallback.
GOLDEN = "a860ce4cd48b90d0e11b988746abd45f4e8ed37685fa30f8329d522691bf7e17"


def _pairs(active: np.ndarray, k: int, rng) -> np.ndarray:
    """``k`` pairs of distinct active ids, drawn uniformly."""
    ids = np.flatnonzero(active)
    a = rng.integers(0, ids.size, k)
    b = (a + rng.integers(1, ids.size, k)) % ids.size
    return np.stack([ids[a], ids[b]], axis=1)


def _replay(fitted, read) -> None:
    """Stream the trace through ``api.update``; after each event call
    ``read(event, pairs)`` with 72 fixed-seed pairs of active nodes."""
    trace = ChurnTrace.generate(n=N, events=100, rate=0.01, seed=0)
    active = np.ones(N, dtype=bool)
    rng = np.random.default_rng(7)
    for event in trace.events:
        api.update(fitted, joins=event.joins, leaves=event.leaves)
        active[list(event.joins)] = True
        active[list(event.leaves)] = False
        read(event, _pairs(active, BATCHED + SCALAR, rng))


def _build():
    return api.build("triangulation", "hypercube", n=N, seed=0, delta=0.3,
                     cache=api.BuildCache())


def test_golden_digest():
    fitted = _build()
    tri = fitted.inner
    digest = hashlib.sha256()

    def read(event, pairs):
        batched = tri.estimate_many(pairs[:BATCHED, 0], pairs[:BATCHED, 1])
        scalar = [tri.estimate(int(u), int(v)) for u, v in pairs[BATCHED:]]
        digest.update(np.asarray(batched, dtype=np.float64).tobytes())
        digest.update(np.asarray(scalar, dtype=np.float64).tobytes())

    _replay(fitted, read)
    tri.compact()
    _, arrays = tri.to_arrays()
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    assert tri.ivl_violations == 0
    assert digest.hexdigest() == GOLDEN


@pytest.fixture()
def no_auto_merge(monkeypatch):
    # the merge policy reads these at call time: every patch stays pending
    monkeypatch.setattr(patch_policy, "MERGE_DIRTY_FRACTION", 1.1)
    monkeypatch.setattr(patch_policy, "MERGE_STALENESS", 10**9)


@pytest.mark.usefixtures("no_auto_merge")
def test_every_off_diagonal_dirty_pair_is_ivl_checked():
    fitted = _build()
    tri = fitted.inner
    # A row is dirty once its pristine label names a node that joined or
    # left since the last merge; with auto-merge off there is none.
    _, arrays = tri.to_arrays()
    ids = np.asarray(arrays["label_ids"])
    row_of = np.repeat(np.arange(N), np.diff(arrays["label_indptr"]))
    changed = np.zeros(N, dtype=bool)
    seen = {"dirty": 0, "checked": 0}

    def read(event, pairs):
        changed[list(event.joins) + list(event.leaves)] = True
        dirty_rows = np.zeros(N, dtype=bool)
        dirty_rows[row_of[changed[ids]]] = True
        us, vs = pairs[:, 0].copy(), pairs[:, 1].copy()
        us[:4] = vs[:4]  # diagonal pairs read 0 and are never checked
        dirty = (dirty_rows[us] | dirty_rows[vs]) & (us != vs)
        before = tri.ivl_checks
        served = tri.estimate_many(us, vs)
        seen["checked"] += tri.ivl_checks - before
        seen["dirty"] += int(dirty.sum())
        looped = [tri.estimate(int(u), int(v)) for u, v in zip(us, vs)]
        assert np.array_equal(served, looped)

    _replay(fitted, read)
    assert seen["dirty"] > 0
    assert seen["checked"] == seen["dirty"]
    assert tri.ivl_violations == 0
    assert tri.pending_patch_stats().merges == 0


def _dplus_reference(labels, us, vs, gone):
    """D+ pair by pair over the pristine label dicts without ``gone``."""
    out = []
    for u, v in zip(us.tolist(), vs.tolist()):
        lu, lv = labels[u], labels[v]
        sums = [lu[b] + lv[b] for b in lu if b in lv and b not in gone]
        out.append(0.0 if u == v else min(sums, default=float("inf")))
    return np.array(out)


@pytest.mark.parametrize("compact", [False, True])
def test_a_departed_best_beacon_drops_out_of_batched_reads(compact):
    # On expline a label holds about half of n, so many pairs' best
    # common beacon is a third node.  Once it leaves, a batched read must
    # fall to the next-best active beacon, pending or merged.
    n = 32
    tri = api.build("triangulation", "expline", n=n, seed=0, delta=0.3,
                    cache=api.BuildCache()).inner
    labels = [tri.beacons_of(u) for u in range(n)]
    us, vs = np.triu_indices(n, 1)
    before = tri.estimate_many(us, vs)
    best = {}
    for u, v in zip(us.tolist(), vs.tolist()):
        sums = {b: labels[u][b] + labels[v][b] for b in labels[u] if b in labels[v]}
        b = min(sums, key=sums.get)
        if b not in (u, v) and sorted(sums.values())[:2].count(sums[b]) == 1:
            best.setdefault(b, (u, v))
    gone = set(list(best)[:3])
    assert len(gone) == 3
    tri.apply_update(leaves=sorted(gone))
    if compact:
        tri.compact()
    keep = ~np.isin(us, list(gone)) & ~np.isin(vs, list(gone))
    us, vs = us[keep], vs[keep]
    served = tri.estimate_many(us, vs)
    assert np.array_equal(served, _dplus_reference(labels, us, vs, gone))
    assert np.any(served != before[keep])
    assert tri.ivl_violations == 0
