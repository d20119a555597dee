"""Theorem 2.1 routing under churn: the checked-ring table, pinned end to end.

A dirty ring enumeration is filtered and containment-checked once per
revision; later reads of that row in the same revision get the stored,
read-only array.  The tests below count ``filtered_row`` calls and
``ivl_checks`` across reads, updates and compactions, and show that a
bad filtered row is counted once per revision and served as checked.

A golden digest replays a churn trace with the default merge policy and
holds the zooming sequences, every label, routes among active nodes and
the compacted rings to the values recorded before the table existed,
when every read was filtered and checked anew.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import api
from repro.core import patch as patch_policy
from repro.core.patch import CSRPatch
from repro.distributed.trace import ChurnTrace
from repro.routing import RingRouting

N = 120
ROUTES = 16

#: sha256 of :func:`test_golden_digest`'s replay, recorded when every
#: dirty ring read was filtered and checked anew.
GOLDEN = "dcdc8601b96bd779cc0652708507c5c7a64f592d14c46ba8775c0e237a746649"


def _build():
    return api.build("route-thm2.1", "knn-graph", n=N, seed=0, delta=0.3,
                     dense=False, cache_mb=0.05, cache=api.BuildCache())


def _pairs(active: np.ndarray, k: int, rng) -> np.ndarray:
    """``k`` pairs of distinct active ids, drawn uniformly."""
    ids = np.flatnonzero(active)
    a = rng.integers(0, ids.size, k)
    b = (a + rng.integers(1, ids.size, k)) % ids.size
    return np.stack([ids[a], ids[b]], axis=1)


def test_golden_digest():
    fitted = _build()
    scheme = fitted.inner
    digest = hashlib.sha256()
    active = np.ones(N, dtype=bool)
    rng = np.random.default_rng(3)
    for event in ChurnTrace.generate(n=N, events=40, rate=0.02, seed=5).events:
        api.update(fitted, joins=event.joins, leaves=event.leaves)
        active[list(event.joins)] = True
        active[list(event.leaves)] = False
        digest.update(np.ascontiguousarray(scheme._zoom, dtype=np.int64).tobytes())
        for label in scheme.labels:
            digest.update(np.asarray((len(label.indices), *label.indices),
                                     dtype=np.int64).tobytes())
        for u, v in _pairs(active, ROUTES, rng).tolist():
            result = scheme.route(u, v)
            digest.update(np.asarray((result.reached, len(result.path), *result.path),
                                     dtype=np.int64).tobytes())
    scheme.compact()
    digest.update(np.ascontiguousarray(scheme._indptr, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(scheme._members, dtype=np.int64).tobytes())
    assert scheme.ivl_violations == 0
    assert digest.hexdigest() == GOLDEN


@pytest.fixture()
def no_auto_merge(monkeypatch):
    # the merge policy reads these at call time: every patch stays pending
    monkeypatch.setattr(patch_policy, "MERGE_DIRTY_FRACTION", 1.1)
    monkeypatch.setattr(patch_policy, "MERGE_STALENESS", 10**9)


@pytest.fixture()
def filtered(monkeypatch):
    """The rows ``CSRPatch.filtered_row`` was called for, in call order;
    the rows in ``bad`` are served with the departed node 10 appended."""
    calls = {"rows": [], "bad": set()}
    original = CSRPatch.filtered_row

    def filtered_row(self, r):
        calls["rows"].append(int(r))
        keys, payloads = original(self, r)
        if int(r) in calls["bad"]:
            keys = np.append(keys, 10).astype(keys.dtype)
        return keys, payloads

    monkeypatch.setattr(CSRPatch, "filtered_row", filtered_row)
    return calls


@pytest.fixture()
def churned(knn_graph64, no_auto_merge):
    """A structure with node 10's departure pending and a dirty ring row
    of 10's that the update's label encoding did not read."""
    scheme = RingRouting(knn_graph64, delta=0.25)
    scheme.apply_update(leaves=[10])
    patch = scheme._patch
    row = next(
        r for r in range(patch.rows)
        if patch.row_dirty(r) and r not in scheme._checked
    )
    return scheme, divmod(row, scheme.levels), row


def test_a_dirty_row_is_filtered_and_checked_once_per_revision(churned, filtered):
    scheme, (u, j), row = churned
    checks = scheme.ivl_checks
    first = scheme._ring_arr(u, j)
    second = scheme._ring_arr(u, j)
    assert filtered["rows"].count(row) == 1
    assert scheme.ivl_checks == checks + 1
    assert second is first
    assert not first.flags.writeable
    assert 10 not in first
    with pytest.raises(ValueError):
        first[0] = 10


def test_the_next_update_filters_and_checks_again(churned, filtered):
    scheme, (u, j), row = churned
    first = scheme._ring_arr(u, j)
    checks = scheme.ivl_checks
    scheme.apply_update(leaves=[11])
    again = scheme._ring_arr(u, j)
    assert scheme._patch.row_dirty(row)
    assert filtered["rows"].count(row) == 2
    assert scheme.ivl_checks > checks
    assert again is not first
    assert scheme._ring_arr(u, j) is again


def test_compact_empties_the_table(churned, filtered):
    scheme, (u, j), row = churned
    first = scheme._ring_arr(u, j)
    scheme.compact()
    assert scheme._checked == {}
    checks, calls = scheme.ivl_checks, len(filtered["rows"])
    merged = scheme._ring_arr(u, j)
    assert merged is not first and np.array_equal(merged, first)
    assert (scheme.ivl_checks, len(filtered["rows"])) == (checks, calls)
    # the next update that dirties the row checks it anew
    scheme.apply_update(joins=[10])
    assert scheme._patch.row_dirty(row)
    scheme._ring_arr(u, j)
    assert filtered["rows"].count(row) == 2
    assert scheme.ivl_violations == 0


def test_clean_rows_are_never_stored(knn_graph64, no_auto_merge):
    scheme = RingRouting(knn_graph64, delta=0.25)
    for u, v in [(0, 50), (7, 33)]:
        scheme.route(u, v)
    assert scheme._checked == {}
    scheme.apply_update(leaves=[10])
    for u, v in [(0, 50), (7, 33), (21, 2)]:
        scheme.route(u, v)
    patch = scheme._patch
    assert scheme._checked
    assert all(patch.row_dirty(r) for r in scheme._checked)
    clean = next(r for r in range(patch.rows) if not patch.row_dirty(r))
    scheme._ring_arr(*divmod(clean, scheme.levels))
    assert clean not in scheme._checked
    assert scheme.ivl_checks == len(scheme._checked)


def test_a_bad_row_counts_once_per_revision_and_is_served_as_checked(churned, filtered):
    scheme, (u, j), row = churned
    filtered["bad"].add(row)
    violations = scheme.ivl_violations
    first = scheme._ring_arr(u, j)
    assert 10 in first
    assert scheme.ivl_violations == violations + 1
    assert scheme._ring_arr(u, j) is first
    assert scheme.ivl_violations == violations + 1
    # the next update starts a revision: the row is checked and counted again
    scheme.apply_update(leaves=[11])
    scheme._ring_arr(u, j)
    assert filtered["rows"].count(row) == 2
    assert scheme.ivl_violations == violations + 2
