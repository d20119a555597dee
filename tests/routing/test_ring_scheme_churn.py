"""Theorem 2.1 routing under churn: the checked-ring table, the
incremental zooming entries and the batched label encoder, pinned end to
end.

A dirty ring enumeration is filtered and containment-checked once per
revision; later reads of that row in the same revision get the stored,
read-only array.  The tests below count ``filtered_row`` calls and
``ivl_checks`` across reads, updates and compactions, and show that a
bad filtered row is counted once per revision and served as checked.

A golden digest replays a churn trace with the default merge policy and
holds the zooming sequences, every label, routes among active nodes and
the compacted rings to the values recorded before the table existed,
when every read was filtered and checked anew.  On the same replay the
zooming entries, kept incrementally, must equal a whole recompute of
every level touched so far after every event, and the encoder must
check as many rings per event as the walk target by target it replaced
(the counts recorded with that walk).  A metric whose row of one target
is one ulp off shows that a value read from the target's row never
decides a new entry.  On graphs whose distances tie, a fresh build
holds the entries a whole recompute gives, and leaving and rejoining
restores a fresh build's state.
"""

from __future__ import annotations

import copy
import hashlib

import numpy as np
import pytest

from repro import api
from repro.core import patch as patch_policy
from repro.core.patch import CSRPatch
from repro.distributed.trace import ChurnTrace
from repro.graphs.generators import knn_geometric_graph
from repro.graphs.graph import WeightedGraph
from repro.metrics.graphmetric import ShortestPathMetric
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


def _trace() -> ChurnTrace:
    return ChurnTrace.generate(n=N, events=40, rate=0.02, seed=5)


def test_golden_digest():
    fitted = _build()
    scheme = fitted.inner
    digest = hashlib.sha256()
    active = np.ones(N, dtype=bool)
    rng = np.random.default_rng(3)
    for event in _trace().events:
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


#: ``ivl_checks`` added by each event's update and by its routes on the
#: golden replay, recorded when labels were encoded target by target.
UPDATE_CHECKS = [
    72, 114, 148, 181, 225, 0, 0, 316, 143, 217, 245, 263, 275, 118, 169,
    227, 233, 252, 271, 303, 320, 0, 0, 346, 153, 222, 245, 279, 303, 308,
    315, 131, 211, 246, 268, 137, 176, 180, 216, 255,
]
ROUTE_CHECKS = [
    63, 149, 146, 153, 144, 0, 0, 0, 220, 232, 201, 199, 0, 38, 51, 97, 94,
    92, 96, 103, 98, 0, 0, 0, 83, 144, 167, 150, 190, 157, 0, 69, 207, 163,
    0, 135, 126, 145, 165, 147,
]


@pytest.fixture()
def zoom_steps(monkeypatch):
    """``(level, joined, lost)`` sizes of every incremental zoom step."""
    steps = []
    original = RingRouting._zoom_step

    def step(self, j, joined, lost, rows):
        steps.append((j, joined.size, lost.size))
        return original(self, j, joined, lost, rows)

    monkeypatch.setattr(RingRouting, "_zoom_step", step)
    return steps


def test_zoom_equals_a_whole_recompute_after_every_event(zoom_steps):
    fitted = _build()
    scheme = fitted.inner
    everyone = np.arange(N)
    for event in _trace().events:
        api.update(fitted, joins=event.joins, leaves=event.leaves)
        touched = np.flatnonzero(scheme._zoom_touched)
        reference = copy.deepcopy(scheme)
        reference._recompute_zoom(touched.tolist())
        assert np.array_equal(scheme._zoom, reference._zoom)
        assert np.array_equal(
            scheme._zoom_dist[:, touched], reference._zoom_dist[:, touched]
        )
        # each stored distance is d(f_tj, t) read from f_tj's row
        for j in touched:
            f = scheme._zoom[:, j].astype(np.int64)
            has = f >= 0
            points = np.unique(f[has])
            block = scheme.metric.distances_between(points, everyone)
            entries = block[points.searchsorted(f[has]), everyone[has]]
            assert np.array_equal(scheme._zoom_dist[has, j], entries)
            assert np.isinf(scheme._zoom_dist[~has, j]).all()
    # the replay takes both incremental paths, not only whole recomputes
    assert any(joined for _, joined, _ in zoom_steps)
    assert any(lost for _, _, lost in zoom_steps)


def test_encoder_checks_as_many_rings_per_event_as_before():
    fitted = _build()
    scheme = fitted.inner
    active = np.ones(N, dtype=bool)
    rng = np.random.default_rng(3)
    updates, routes = [], []
    for event in _trace().events:
        before = scheme.ivl_checks
        api.update(fitted, joins=event.joins, leaves=event.leaves)
        updates.append(scheme.ivl_checks - before)
        active[list(event.joins)] = True
        active[list(event.leaves)] = False
        before = scheme.ivl_checks
        for u, v in _pairs(active, ROUTES, rng).tolist():
            scheme.route(u, v)
        routes.append(scheme.ivl_checks - before)
    assert updates == UPDATE_CHECKS
    assert routes == ROUTE_CHECKS
    assert scheme.ivl_violations == 0


class _NudgedRow:
    """A metric whose row of ``t`` reads d(t, w) one ulp long; every
    other value is the wrapped metric's."""

    def __init__(self, metric, t: int, w: int) -> None:
        self.metric, self.t, self.w = metric, t, w

    def distances_between(self, us, vs):
        us, vs = np.atleast_1d(us), np.atleast_1d(vs)
        block = np.array(self.metric.distances_between(us, vs))
        hit = np.ix_(us == self.t, vs == self.w)
        block[hit] = np.nextafter(block[hit], np.inf)
        return block


def _integer_graph(n: int) -> WeightedGraph:
    """A k-NN graph with small integer weights: every path length is
    exact in both orientations, so equidistant net points are common."""
    graph = WeightedGraph(n)
    for u, v, w in knn_geometric_graph(n, k=4, seed=3).edges():
        graph.add_edge(u, v, float(max(1, round(80 * w))))
    return graph


def _tied_departure(scheme: RingRouting):
    """``(j, x, t, e, w, c)``: once x has left, t's entry at level j is
    e.  Once e leaves too, w < c are the nearest active net points to t,
    at the same distance, and no more targets lost their entry than G_j
    has active points, so that update takes the incremental step."""
    n = scheme.graph.n
    dist = scheme.metric.distances_between(np.arange(n), np.arange(n))
    for j, net in enumerate(scheme._pristine_nets()):
        for x in net[::-1]:
            rest = net[net != x]
            if rest.size < 3:
                continue
            zoom = rest[dist[rest].argmin(axis=0)]
            for t in np.setdiff1d(np.arange(n), net):
                e = zoom[t]
                if np.count_nonzero(zoom == e) > rest.size - 1:
                    continue
                left = rest[rest != e]
                d = dist[left, t]
                tied = left[d == d.min()]
                if tied.size >= 2:
                    return j, int(x), int(t), int(e), int(tied[0]), int(tied[1])
    raise AssertionError("no tied departure in the graph")


def test_a_target_row_one_ulp_off_never_decides_the_entry(zoom_steps):
    graph = _integer_graph(40)
    scheme = RingRouting(graph, delta=0.45,
                         metric=ShortestPathMetric(graph, dense=False))
    j, x, t, e, w, c = _tied_departure(scheme)
    scheme.metric = _NudgedRow(scheme.metric, t, w)
    scheme.apply_update(leaves=[x])  # level j's first touch: whole
    assert scheme._zoom_touched[j] and scheme._zoom[t, j] == e
    del zoom_steps[:]
    scheme.apply_update(leaves=[e])
    assert any(level == j and lost for level, _, lost in zoom_steps)
    # an argmin over t's own row would pick c, the candidates' rows pick w
    net = scheme._level_members0[j]
    live = net[scheme._patch.membership.active[net]]
    own = scheme.metric.distances_between([t], live)[0]
    assert live[own.argmin()] == c
    assert scheme._zoom[t, j] == w
    reference = copy.deepcopy(scheme)
    touched = np.flatnonzero(scheme._zoom_touched).tolist()
    reference._recompute_zoom(touched)
    assert np.array_equal(scheme._zoom, reference._zoom)
    assert np.array_equal(scheme._zoom_dist[:, touched],
                          reference._zoom_dist[:, touched])


def _grid_build():
    return api.build("route-thm2.1", "grid-graph", n=100, seed=0, delta=0.45,
                     cache=api.BuildCache())


def _zoom_after_a_whole_recompute(scheme: RingRouting) -> np.ndarray:
    scheme._ensure_mutable()
    scheme._recompute_zoom(list(range(scheme.levels)))
    return scheme._zoom


@pytest.mark.parametrize("graph", ["grid", "integer"])
def test_a_fresh_build_holds_the_recomputed_zoom(graph):
    # Both graphs have equidistant net points; the build breaks those ties
    # as an update does, by the members' own rows and then the lower id.
    if graph == "grid":
        scheme = _grid_build().inner
    else:
        weighted = _integer_graph(120)
        scheme = RingRouting(weighted, delta=0.45,
                             metric=ShortestPathMetric(weighted, dense=False))
    built = scheme._zoom.copy()
    assert np.array_equal(_zoom_after_a_whole_recompute(scheme), built)


def test_leaving_and_rejoining_restores_a_fresh_build():
    """The same active set gives the same state: once the last net point
    of every level has left and rejoined, the grid graph's zooming
    entries, labels and routes are a fresh build's."""
    fitted, fresh = _grid_build(), _grid_build()
    scheme = fitted.inner
    last = sorted({scheme.nets.net(j)[-1] for j in range(scheme.levels)})
    api.update(fitted, leaves=last)
    api.update(fitted, joins=last)
    assert scheme._zoom_touched.any()
    assert np.array_equal(scheme._zoom, fresh.inner._zoom)
    assert [label.indices for label in scheme.labels] == [
        label.indices for label in fresh.inner.labels
    ]
    n = scheme.graph.n
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    assert [scheme.route(u, v).path for u, v in pairs] == [
        fresh.inner.route(u, v).path for u, v in pairs
    ]


def test_strict_encoder_raises_on_a_ring_missing_the_entry(knn_graph64):
    scheme = RingRouting(knn_graph64, delta=0.25)
    t, j = 5, 3
    owner = int(scheme._zoom[t, j - 1])
    ring = scheme._ring_arr(owner, j)
    scheme._zoom[t, j] = np.setdiff1d(np.arange(knn_graph64.n), ring)[0]
    with pytest.raises(RuntimeError, match=rf"Claim 2.3 violated: f_\({t},{j}\)"):
        scheme._encode_labels(strict=True)
    # the churn path cuts the label there instead
    assert len(scheme._encode_labels(strict=False)[t].indices) == j
    scheme._zoom[t, 0] = -1
    with pytest.raises(RuntimeError, match="level-0 ring must contain f_t0"):
        scheme._encode_labels(strict=True)


def test_net_scan_equals_the_nets(knn_graph64):
    scheme = RingRouting(knn_graph64, delta=0.25)
    nets = scheme._pristine_nets()
    assert len(nets) == scheme.levels
    for j in range(scheme.levels):
        assert nets[j].tolist() == sorted(scheme.nets.net(j))
