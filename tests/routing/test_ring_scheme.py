"""Theorem 2.1 routing scheme."""

import numpy as np
import pytest

from repro import api
from repro.core import patch as patch_policy
from repro.core.patch import CSRPatch
from repro.distributed.trace import ChurnTrace
from repro.engine import UniformSamplePlan, evaluate_routing
from repro.routing import RingRouting


@pytest.fixture(scope="module")
def scheme(knn_graph64):
    return RingRouting(knn_graph64, delta=0.25)


class TestDeliveryAndStretch:
    def test_all_pairs_delivered(self, scheme, knn_metric64):
        stats = evaluate_routing(scheme, knn_metric64.matrix, UniformSamplePlan(size=500, seed=1))
        assert stats.delivery_rate == 1.0

    def test_stretch_bound(self, scheme, knn_metric64):
        """Claim 2.5: stretch 1 + O(delta); assert 1 + 4*delta."""
        stats = evaluate_routing(scheme, knn_metric64.matrix, UniformSamplePlan(size=500, seed=1))
        assert stats.max_stretch <= 1 + 4 * scheme.delta

    def test_smaller_delta_smaller_stretch(self, knn_graph64, knn_metric64):
        tight = RingRouting(knn_graph64, delta=0.1, metric=knn_metric64)
        loose = RingRouting(knn_graph64, delta=0.45, metric=knn_metric64)
        s_tight = evaluate_routing(tight, knn_metric64.matrix, UniformSamplePlan(size=200, seed=2))
        s_loose = evaluate_routing(loose, knn_metric64.matrix, UniformSamplePlan(size=200, seed=2))
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

    def test_zooming_entries_within_net_radius(self, scheme):
        """f_tj lies within Δ/2^j of t (Claim 2.3's premise)."""
        for t in (0, 13, 31, 63):
            row = scheme.metric.distances_from(t)
            for j in range(scheme.levels):
                assert row[scheme._zoom[t, j]] <= scheme.nets.radius_of(j)

    def test_zooming_entries_converge_to_target(self, scheme, knn_graph64):
        """At the finest level the net holds every node, so f_tj = t."""
        assert scheme._zoom[:, -1].tolist() == list(range(knn_graph64.n))

    def test_zooming_entries_are_net_points(self, scheme):
        for j in range(scheme.levels):
            assert set(scheme._zoom[:, j].tolist()) <= set(scheme.nets.net(j))

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

    @pytest.mark.parametrize("events", [0, 10])
    def test_decode_equals_the_zeta_walk(self, events, monkeypatch):
        """Claim 2.2's walk, step by step through the translation
        functions: ``m_0 = n_t0`` when u's level-0 ring has it, then
        ``m_j = ζ_{u,j-1}(m_{j-1}, n_tj)`` until a null.  The decode, read
        from the label's zooming chain, must give the same indices for
        every pair of active nodes, fresh and under pending churn."""
        monkeypatch.setattr(patch_policy, "MERGE_DIRTY_FRACTION", 1.1)
        monkeypatch.setattr(patch_policy, "MERGE_STALENESS", 10**9)
        fitted = api.build("route-thm2.1", workload="knn-graph", n=64, seed=0,
                           delta=0.25, cache=api.BuildCache())
        scheme = fitted.inner
        active = np.ones(64, dtype=bool)
        for event in ChurnTrace.generate(n=64, events=events, rate=0.03, seed=2).events:
            api.update(fitted, joins=event.joins, leaves=event.leaves)
            active[list(event.joins)] = True
            active[list(event.leaves)] = False
        if events:
            assert scheme._patch.dirty_row_count > 0 and not active.all()

        def zeta_walk(u, indices):
            if not indices or indices[0] >= len(scheme.ring(u, 0)):
                return []
            walk = [indices[0]]
            for j in range(1, len(indices)):
                m = scheme.zeta_lookup(u, j - 1, walk[-1], indices[j])
                if m is None:
                    break
                walk.append(m)
            return walk

        nodes = np.flatnonzero(active).tolist()
        for t in nodes:
            label = scheme.labels[t]
            for u in nodes:
                assert scheme._decode(u, label) == zeta_walk(u, label.indices)
        assert scheme.ivl_violations == 0

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
    """The batched containment check on dirty ring reads counts exactly
    one violation for each row whose served enumeration leaves its hull,
    whatever else the batch holds."""

    @pytest.fixture()
    def pending(self, knn_graph64, monkeypatch):
        """(scheme, row, served, pristine): a pending departure of node 10
        and one ring row of 10's that holds it, an active non-member and
        at least two more members."""
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

    @staticmethod
    def _mutants(scheme, served, pristine):
        """The three ways out of the hull: an inactive id, an id outside
        the pristine row, a dropped active member."""
        outsider = next(v for v in range(scheme.graph.n) if v != 10 and v not in pristine)
        return [
            np.sort(np.append(served, 10)),
            np.sort(np.append(served, outsider)),
            served[1:],
        ]

    def _violations(self, scheme, rows, served):
        checks, violations = scheme.ivl_checks, scheme.ivl_violations
        scheme._ivl_ring_checks(
            rows, [np.asarray(s, dtype=np.int32) for s in served]
        )
        assert scheme.ivl_checks == checks + len(rows)
        return scheme.ivl_violations - violations

    def test_filtered_row_passes(self, pending):
        scheme, row, served, _ = pending
        u, j = divmod(int(row), scheme.levels)
        assert np.array_equal(scheme._ring_arr(u, j), served)
        assert self._violations(scheme, [row], [served]) == 0

    def test_inactive_id_counts(self, pending):
        scheme, row, served, pristine = pending
        inactive = self._mutants(scheme, served, pristine)[0]
        assert self._violations(scheme, [row], [inactive]) == 1

    def test_id_outside_pristine_row_counts(self, pending):
        scheme, row, served, pristine = pending
        outside = self._mutants(scheme, served, pristine)[1]
        assert self._violations(scheme, [row], [outside]) == 1

    def test_dropped_active_member_counts(self, pending):
        scheme, row, served, pristine = pending
        dropped = self._mutants(scheme, served, pristine)[2]
        assert self._violations(scheme, [row], [dropped]) == 1

    def test_one_batch_counts_each_bad_row_once(self, pending):
        scheme, row, served, pristine = pending
        batch = [served, *self._mutants(scheme, served, pristine)]
        assert self._violations(scheme, [row] * 4, batch) == 3
        # the verdicts belong to the rows, not to their place in the batch
        assert self._violations(scheme, [row] * 4, batch[::-1]) == 3
        assert self._violations(scheme, [row], [served]) == 0

    def test_a_row_failing_two_ways_counts_once(self, pending):
        scheme, row, served, _ = pending
        both = np.sort(np.append(served[1:], 10))  # inactive id, dropped member
        assert self._violations(scheme, [row, row], [served, both]) == 1

    def test_each_row_is_held_to_its_own_hull(self, pending):
        """A batch of two different rows: an id only the other row's
        pristine ring holds, or a member dropped that only the other row
        serves, still leaves the row's own hull."""
        scheme, row, served, pristine = pending
        patch = scheme._patch
        other, theirs = next(
            (r, ring) for r in range(patch.rows)
            if r != row and patch.row_dirty(r)
            for ring in [patch.filtered_row(r)[0]]
            if np.setdiff1d(ring, pristine).size and np.intersect1d(ring, served).size
        )
        stranger = np.setdiff1d(theirs, pristine)[0]
        assert self._violations(
            scheme, [row, other], [np.sort(np.append(served, stranger)), theirs]
        ) == 1
        kept = served[served != np.intersect1d(served, theirs)[0]]
        assert self._violations(scheme, [row, other], [kept, theirs]) == 1

    def test_violations_are_counted_before_the_call_returns(
        self, knn_graph64, monkeypatch
    ):
        """Every filtered row here misses its first active member, so each
        nonempty one checked is a violation, and it is counted by the time
        the ``apply_update`` or ``route`` that first read it returns."""
        monkeypatch.setattr(patch_policy, "MERGE_DIRTY_FRACTION", 1.1)
        monkeypatch.setattr(patch_policy, "MERGE_STALENESS", 10**9)
        original = CSRPatch.filtered_row

        def drop_first(self, r):
            keys, payloads = original(self, r)
            return keys[1:], payloads

        monkeypatch.setattr(CSRPatch, "filtered_row", drop_first)
        scheme = RingRouting(knn_graph64, delta=0.25)
        scheme.apply_update(leaves=[10])
        assert scheme.ivl_checks > 0 and scheme.ivl_violations > 0
        rng = np.random.default_rng(0)
        active = np.setdiff1d(np.arange(knn_graph64.n), [10])
        for u, v in rng.choice(active, size=(200, 2)).tolist():
            checks, violations = scheme.ivl_checks, scheme.ivl_violations
            scheme.route(u, v)
            if scheme.ivl_checks > checks:
                assert scheme.ivl_violations > violations
                break
        else:
            pytest.fail("no route read a dirty ring the update had not")
