"""Theorem 2.1 routing scheme."""

import numpy as np
import pytest

from repro import api
from repro.core import patch as patch_policy
from repro.routing import RingRouting, evaluate_scheme


@pytest.fixture(scope="module")
def scheme(knn_graph64):
    return RingRouting(knn_graph64, delta=0.25)


class TestDeliveryAndStretch:
    def test_all_pairs_delivered(self, scheme, knn_metric64):
        stats = evaluate_scheme(scheme, knn_metric64.matrix, sample_pairs=500, seed=1)
        assert stats.delivery_rate == 1.0

    def test_stretch_bound(self, scheme, knn_metric64):
        """Claim 2.5: stretch 1 + O(delta); assert 1 + 4*delta."""
        stats = evaluate_scheme(scheme, knn_metric64.matrix, sample_pairs=500, seed=1)
        assert stats.max_stretch <= 1 + 4 * scheme.delta

    def test_smaller_delta_smaller_stretch(self, knn_graph64, knn_metric64):
        tight = RingRouting(knn_graph64, delta=0.1, metric=knn_metric64)
        loose = RingRouting(knn_graph64, delta=0.45, metric=knn_metric64)
        s_tight = evaluate_scheme(tight, knn_metric64.matrix, sample_pairs=200, seed=2)
        s_loose = evaluate_scheme(loose, knn_metric64.matrix, sample_pairs=200, seed=2)
        assert s_tight.max_stretch <= s_loose.max_stretch + 0.05

    def test_self_route(self, scheme):
        result = scheme.route(9, 9)
        assert result.reached and result.hops == 0

    def test_path_edges_exist(self, scheme, knn_graph64):
        result = scheme.route(0, 50)
        for a, b in zip(result.path, result.path[1:]):
            assert knn_graph64.has_edge(a, b)


class TestStructuralClaims:
    def test_claim_2_3_zooming_membership(self, scheme):
        """f_tj lies in the ring Y_fj of the previous element f."""
        for t in (0, 17, 63):
            zoom = scheme._zoom[t]
            for j in range(1, scheme.levels):
                assert zoom[j] in set(scheme.ring(zoom[j - 1], j))

    def test_level0_rings_coincide(self, scheme, knn_graph64):
        rings = {scheme.ring(u, 0) for u in range(knn_graph64.n)}
        assert len(rings) == 1

    def test_ring_members_in_ball_and_net(self, scheme, knn_metric64):
        for u in (0, 40):
            for j in range(scheme.levels):
                net_set = set(scheme.nets.net(j))
                row = knn_metric64.distances_from(u)
                for v in scheme.ring(u, j):
                    assert v in net_set
                    assert row[v] <= scheme._ring_radius[j] + 1e-9

    def test_decode_matches_direct_indices(self, scheme):
        """Claim 2.2: the translation decode recovers phi_uj(f_tj)."""
        for u, t in [(0, 63), (25, 3)]:
            decoded = scheme._decode(u, scheme.labels[t])
            zoom = scheme._zoom[t]
            for j, m in enumerate(decoded):
                assert scheme.ring(u, j)[m] == zoom[j]

    def test_decode_depth_grows_for_close_pairs(self, scheme, knn_metric64):
        """j_ut >= log(Delta / (delta d)) - ish: closer targets decode deeper."""
        u = 0
        far = int(np.argmax(knn_metric64.distances_from(u)))
        near = knn_metric64.nearest_neighbor(u)
        assert len(scheme._decode(u, scheme.labels[near])) >= len(
            scheme._decode(u, scheme.labels[far])
        )


class TestAccounting:
    def test_header_bits_positive(self, scheme):
        result = scheme.route(0, 1)
        assert result.header_bits > 0

    def test_table_components(self, scheme):
        account = scheme.table_bits(0)
        assert "first_hop_pointers" in account.components
        assert "translation_triples" in account.components

    def test_dense_accounting_larger(self, scheme):
        sparse = scheme.table_bits(0).total_bits
        dense = scheme.table_bits(0, dense_translation=True).total_bits
        assert dense >= sparse

    def test_max_ring_cardinality_bounded(self, scheme, knn_graph64):
        assert scheme.max_ring_cardinality() <= knn_graph64.n

    def test_rejects_bad_delta(self, knn_graph64):
        with pytest.raises(ValueError):
            RingRouting(knn_graph64, delta=0.0)

    def test_zeta_triples_count_live_rings_while_rejoin_pending(self, monkeypatch):
        # Leave, compact, rejoin: every node is active again, but the
        # merged rings still lack the three nodes until the next merge.
        # The sparse ζ count must read the live rings, as zeta_items does.
        monkeypatch.setattr(patch_policy, "MERGE_DIRTY_FRACTION", 1.1)
        monkeypatch.setattr(patch_policy, "MERGE_STALENESS", 10**9)

        def build():
            return api.build("route-thm2.1", workload="knn-graph", n=40,
                             seed=1, delta=0.3, cache=api.BuildCache()).inner

        scheme, fresh = build(), build()
        scheme.apply_update(leaves=[5, 9, 14])
        scheme.compact()
        scheme.apply_update(joins=[5, 9, 14])
        assert scheme._patch.dirty_row_count > 0
        counts = scheme._zeta_triple_counts()
        for u in range(scheme.graph.n):
            for j in range(scheme.levels - 1):
                assert counts[u, j] == sum(1 for _ in scheme.zeta_items(u, j))
        assert np.array_equal(counts, fresh._zeta_triple_counts())
        for u in range(scheme.graph.n):
            assert scheme.table_bits(u).total_bits == fresh.table_bits(u).total_bits


class TestIVLRingCheck:
    """The containment check on a dirty ring read counts exactly one
    violation for each way a served enumeration can leave its hull."""

    @pytest.fixture()
    def pending(self, knn_graph64, monkeypatch):
        """(scheme, row, served): a pending departure of node 10 and one
        ring row of 10's that holds it, an active non-member and at least
        two more members."""
        monkeypatch.setattr(patch_policy, "MERGE_DIRTY_FRACTION", 1.1)
        monkeypatch.setattr(patch_policy, "MERGE_STALENESS", 10**9)
        scheme = RingRouting(knn_graph64, delta=0.25)
        scheme.apply_update(leaves=[10])
        patch = scheme._patch

        def pristine(row):
            lo, hi = patch.pristine_indptr[row], patch.pristine_indptr[row + 1]
            return patch.pristine_keys[lo:hi]

        row = next(
            row for row in 10 * scheme.levels + np.arange(scheme.levels)
            if 10 in pristine(row) and 3 <= pristine(row).size < knn_graph64.n - 1
        )
        assert patch.row_dirty(row)
        keys = pristine(row)
        return scheme, row, keys[keys != 10], keys

    def _violations(self, scheme, row, served):
        checks, violations = scheme.ivl_checks, scheme.ivl_violations
        scheme._ivl_ring_check(row, np.asarray(served, dtype=np.int32))
        assert scheme.ivl_checks == checks + 1
        return scheme.ivl_violations - violations

    def test_filtered_row_passes(self, pending):
        scheme, row, served, _ = pending
        u, j = divmod(int(row), scheme.levels)
        assert np.array_equal(scheme._ring_arr(u, j), served)
        assert self._violations(scheme, row, served) == 0

    def test_inactive_id_counts(self, pending):
        scheme, row, served, _ = pending
        assert self._violations(scheme, row, np.sort(np.append(served, 10))) == 1

    def test_id_outside_pristine_row_counts(self, pending):
        scheme, row, served, pristine = pending
        outsider = next(v for v in range(scheme.graph.n) if v != 10 and v not in pristine)
        assert self._violations(scheme, row, np.sort(np.append(served, outsider))) == 1

    def test_dropped_active_member_counts(self, pending):
        scheme, row, served, _ = pending
        assert self._violations(scheme, row, served[1:]) == 1
