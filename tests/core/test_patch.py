"""Unit tests for the membership patch substrate (repro.core.patch).

The contracts the mutable structures rely on: validated membership
batches over a fixed universe, an exact inverted index from changed ids
to dirty CSR rows, live filtered reads bit-identical to what the next
merge produces, merges that always filter the pristine block (so
leave/rejoin cycles reconverge) and build it only on the first merged
read, and threshold/staleness auto-merge.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.core import CSRPatch, InactiveNode, Membership, PatchStats
from repro.core import patch as patch_policy
from repro.core.packed import PackedRings
from repro.core.rings import cardinality_rings
from repro.metrics.synthetic import random_hypercube_metric


def _toy_patch() -> CSRPatch:
    # Rows: 0 -> [0, 1, 2], 1 -> [2, 3], 2 -> [] , 3 -> [1, 4]
    indptr = np.array([0, 3, 5, 5, 7], dtype=np.int64)
    keys = np.array([0, 1, 2, 2, 3, 1, 4], dtype=np.int64)
    dist = np.array([0.0, 1.0, 2.0, 0.5, 1.5, 2.5, 3.5])
    return CSRPatch(indptr, keys, payloads=(dist,), universe=5)


def _merged_row(patch: CSRPatch, r: int):
    """Row ``r`` of the merged block: ``(keys, (payload, ...))``."""
    lo, hi = patch.merged_indptr[r], patch.merged_indptr[r + 1]
    return patch.merged_keys[lo:hi], tuple(p[lo:hi] for p in patch.merged_payloads)


class TestMembership:
    def test_starts_all_active_and_clean(self):
        m = Membership(6)
        assert m.active_count == 6
        assert m.is_clean()
        assert m.pending_ids().size == 0

    def test_apply_validates_ranges_and_state(self):
        m = Membership(6)
        with pytest.raises(ValueError, match="out of range"):
            m.apply(leaves=[9])
        with pytest.raises(InactiveNode, match="already-active"):
            m.apply(joins=[2])
        m.apply(leaves=[2])
        with pytest.raises(InactiveNode, match="inactive"):
            m.apply(leaves=[2])
        with pytest.raises(ValueError, match="both join and leave"):
            m.apply(joins=[2], leaves=[2])

    @pytest.mark.parametrize("batch", [
        {"leaves": [3.7]},
        {"leaves": [3, True]},
        {"leaves": np.array([1.0, 3.0])},
        {"joins": [2.0]},
        {"joins": [False]},
        {"joins": np.array([0.0])},
    ])
    def test_apply_rejects_non_integer_ids(self, batch):
        # nodes 0 and 2 are away, so each join above would be valid if
        # its ids were silently truncated to integers
        m = Membership(6)
        m.apply(leaves=[0, 2])
        before = m.active.copy()
        with pytest.raises(ValueError, match="must be integers"):
            m.apply(**batch)
        assert np.array_equal(m.active, before)
        assert m.updates == 1

    def test_apply_accepts_integer_tuples_and_arrays(self):
        m = Membership(6)
        m.apply(joins=(), leaves=(1, 4))
        m.apply(joins=np.array([4], dtype=np.int64), leaves=[np.int32(5)])
        assert m.active_ids().tolist() == [0, 2, 3, 4]

    def test_update_rejects_non_integer_ids(self):
        fitted = api.build("beacons", "hypercube", n=64)
        with pytest.raises(ValueError, match=r"leave ids must be integers.*3\.7.*True"):
            api.update(fitted, leaves=[3.7, True])
        assert fitted.pending_patch_stats().active_nodes == 64

    def test_segments_and_commit(self):
        m = Membership(6)
        m.apply(leaves=[1, 4])
        m.apply(joins=[4])
        assert m.pending_joins() == 0  # 4 left then rejoined: net zero
        assert m.pending_leaves() == 1
        assert sorted(m.pending_ids().tolist()) == [1]
        assert len(m.leave_segments) == 1 and len(m.join_segments) == 1
        m.commit()
        assert m.is_clean()
        assert m.merges == 1
        assert np.array_equal(m.snapshot, m.active)

    def test_active_ids(self):
        m = Membership(4)
        m.apply(leaves=[0, 3])
        assert m.active_ids().tolist() == [1, 2]
        assert not m.is_active(0) and m.is_active(1)


class TestCSRPatch:
    def test_rows_containing_exact(self):
        patch = _toy_patch()
        assert patch.rows_containing(np.array([2])).tolist() == [0, 1]
        assert patch.rows_containing(np.array([1])).tolist() == [0, 3]
        assert patch.rows_containing(np.array([4])).tolist() == [3]
        assert patch.rows_containing(np.empty(0, dtype=np.int64)).size == 0

    def test_apply_flags_only_touched_rows(self):
        patch = _toy_patch()
        patch.apply(leaves=[4])
        assert patch.row_dirty(3)
        assert not patch.row_dirty(0)
        assert patch.dirty_row_count == 1
        assert [patch.row_dirty(r) for r in range(4)] == [
            False, False, False, True,
        ]

    def test_filtered_row_masks_by_live_active(self):
        patch = _toy_patch()
        patch.apply(leaves=[1, 2])
        keys, (dist,) = patch.filtered_row(0)
        assert keys.tolist() == [0]
        assert dist.tolist() == [0.0]
        # empty row stays empty
        keys, (dist,) = patch.filtered_row(2)
        assert keys.size == 0 and dist.size == 0
        # merged (pre-update) row still shows the pristine contents
        keys, (dist,) = _merged_row(patch, 0)
        assert keys.tolist() == [0, 1, 2]

    def test_merge_matches_filtered_rows_bit_for_bit(self):
        patch = _toy_patch()
        patch.apply(leaves=[2, 3])
        served = [patch.filtered_row(r) for r in range(patch.rows)]
        patch.merge()
        for r, (keys, (dist,)) in enumerate(served):
            mkeys, (mdist,) = _merged_row(patch, r)
            assert np.array_equal(keys, mkeys)
            assert np.array_equal(dist, mdist)
        assert patch.dirty_row_count == 0
        assert patch.is_clean()

    @pytest.mark.parametrize(
        "indptr, keys",
        [([0, 0, 2, 2, 3, 3], [1, 3, 0]),  # empty rows first, inside, last
         ([0, 0, 0], []),  # no entries at all
         ([0, 2], [0, 4])],
    )
    def test_live_indptr_counts_live_entries_per_row(self, indptr, keys):
        keys = np.asarray(keys, dtype=np.int64)
        patch = CSRPatch(np.asarray(indptr), keys, payloads=(keys * 0.5,), universe=5)
        patch.apply(leaves=[0, 3])
        live_indptr, live_keys, (live_dist,) = patch.live_arrays()
        rows = [keys[a:b] for a, b in zip(indptr, indptr[1:])]
        expected = np.cumsum([0] + [int(np.isin(r, [1, 2, 4]).sum()) for r in rows])
        assert live_indptr.dtype == np.int64
        assert live_indptr.tolist() == expected.tolist()
        assert live_keys.tolist() == [k for k in keys.tolist() if k in (1, 2, 4)]
        assert np.array_equal(live_dist, live_keys * 0.5)

    def test_leave_rejoin_reconverges_to_pristine(self):
        patch = _toy_patch()
        patch.apply(leaves=[1, 2])
        patch.merge()
        patch.apply(joins=[1, 2])
        patch.merge()
        assert np.array_equal(patch.merged_indptr, patch.pristine_indptr)
        assert np.array_equal(patch.merged_keys, patch.pristine_keys)
        assert np.array_equal(
            patch.merged_payloads[0], patch.pristine_payloads[0]
        )

    def test_merge_builds_no_block_until_a_merged_read(self, monkeypatch):
        filters = []
        real = CSRPatch._filtered

        def counted(self, active):
            filters.append(active)
            return real(self, active)

        monkeypatch.setattr(CSRPatch, "_filtered", counted)
        patch = _toy_patch()
        patch.apply(leaves=[2])
        patch.merge()
        assert filters == []
        keys, _ = _merged_row(patch, 0)
        assert len(filters) == 1
        # one block serves every merged read until the next merge
        assert patch.merged_keys[: keys.size].tolist() == keys.tolist()
        assert patch.merged_indptr.size == patch.rows + 1
        assert len(filters) == 1
        patch.apply(leaves=[4])
        patch.merge()
        assert len(filters) == 1

    def test_derived_block_equals_live_arrays_before_the_merge(self):
        patch = _toy_patch()
        patch.apply(leaves=[1, 3])
        indptr, keys, (dist,) = patch.live_arrays()
        patch.merge()
        assert patch.merged_indptr.tobytes() == indptr.tobytes()
        assert patch.merged_keys.tobytes() == keys.tobytes()
        assert patch.merged_payloads[0].tobytes() == dist.tobytes()

    def test_pending_update_after_merge_leaves_merged_block(self):
        patch = _toy_patch()
        patch.apply(leaves=[2])
        patch.merge()
        patch.apply(joins=[2])  # pending: the block is read only now
        assert _merged_row(patch, 0)[0].tolist() == [0, 1]
        assert patch.filtered_row(0)[0].tolist() == [0, 1, 2]

    def test_two_merges_without_a_read_give_the_second_block(self):
        patch = _toy_patch()
        patch.apply(leaves=[2])
        patch.merge()
        patch.apply(joins=[2], leaves=[1])
        indptr, keys, (dist,) = patch.live_arrays()
        patch.merge()
        assert patch.merged_indptr.tolist() == indptr.tolist()
        assert patch.merged_keys.tolist() == keys.tolist() == [0, 2, 2, 3, 4]
        assert patch.merged_payloads[0].tolist() == dist.tolist()

    def test_auto_merge_on_dirty_fraction(self, monkeypatch):
        monkeypatch.setattr(patch_policy, "MERGE_STALENESS", 10**9)
        patch = _toy_patch()
        patch.apply(leaves=[4])  # 1/4 rows dirty: below threshold
        assert not patch.maybe_merge()
        patch.apply(leaves=[2])  # rows 0, 1 join row 3: 3/4 dirty
        assert patch.maybe_merge()
        assert patch.auto_merges == 1
        assert patch.stats().merges == 1

    def test_auto_merge_on_staleness(self, monkeypatch):
        monkeypatch.setattr(patch_policy, "MERGE_DIRTY_FRACTION", 1.1)
        monkeypatch.setattr(patch_policy, "MERGE_STALENESS", 3)
        patch = _toy_patch()
        patch.apply(leaves=[4])
        assert not patch.maybe_merge()
        patch.apply(joins=[4])
        assert not patch.maybe_merge()
        patch.apply(leaves=[4])
        assert patch.maybe_merge()

    def test_stats_roundtrip(self):
        patch = _toy_patch()
        patch.apply(leaves=[0, 4])
        stats = patch.stats()
        assert isinstance(stats, PatchStats)
        d = stats.to_dict()
        assert d["universe"] == 5
        assert d["active_nodes"] == 3
        assert d["pending_leaves"] == 2
        assert d["dirty_rows"] == patch.dirty_row_count
        assert PatchStats(**d) == stats

    def test_stats_of_never_updated_structure(self):
        stats = patch_policy.patch_stats(None, universe=7, rows=3)
        assert stats == PatchStats(
            universe=7, active_nodes=7, rows=3, dirty_rows=0,
            pending_joins=0, pending_leaves=0, updates=0,
            updates_since_merge=0, merges=0, auto_merges=0,
        )

    def test_payload_misalignment_rejected(self):
        indptr = np.array([0, 2], dtype=np.int64)
        keys = np.array([0, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="align"):
            CSRPatch(indptr, keys, payloads=(np.zeros(3),), universe=2)


class TestPackedRingsIntegration:
    def test_membership_patch_covers_ring_rows(self):
        metric = random_hypercube_metric(24, dim=2, seed=3)
        rings = cardinality_rings(metric, samples_per_ring=3, seed=0,
                                  backend="packed")
        assert isinstance(rings, PackedRings)
        patch = rings.membership_patch()
        assert patch.rows == rings.indptr.size - 1
        patch.apply(leaves=[5])
        dirty = patch.rows_containing(np.array([5]))
        # every flagged row's pristine contents really mention node 5
        for r in dirty.tolist():
            lo, hi = patch.pristine_indptr[r], patch.pristine_indptr[r + 1]
            assert 5 in patch.pristine_keys[lo:hi].tolist()
        # filtered rows never serve the departed node
        for r in range(patch.rows):
            keys, _ = patch.filtered_row(r)
            assert 5 not in keys.tolist()
