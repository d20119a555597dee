"""The label schemes under churn, read after every update.

A hypothesis state machine drives one structure through random join and
leave batches: Theorem 3.2's triangulation on expline, where a label
holds only about half of the nodes, so a departed beacon changes D+ and
D- of the pairs that shared it; and the common-beacon baseline on
hypercube, with a rule that removes beacons.

After every update nothing is pending: no dirty row, no pending join or
leave.  ``estimate_many`` (and the beacons' ``bounds_many``) on every
active pair, and ``estimate`` and ``bounds`` on sampled active pairs,
equal D+ and D- over the active common beacons, bit for bit.  The
reference is computed here in plain NumPy from the label arrays saved
before any churn, without ``PackedLabels``.  Every read that names a
departed node raises ``InactiveNode``.  A save writes the pristine
labels without the departed beacons, and ``compact`` changes nothing.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule, run_state_machine_as_test

from repro import api
from repro.core.patch import InactiveNode

SETTINGS = settings(max_examples=20, stateful_step_count=10, deadline=None)


def _reference(labels: np.ndarray, us: np.ndarray, vs: np.ndarray):
    """(D-, D+) per pair over the columns of ``labels`` (inf where a
    label lacks the beacon) that both labels hold: (0, inf) without one."""
    lu, lv = labels[us], labels[vs]
    common = np.isfinite(lu) & np.isfinite(lv)
    with np.errstate(invalid="ignore"):  # inf - inf off the common ones
        lower = np.where(common, np.abs(lu - lv), 0.0).max(axis=1, initial=0.0)
    return lower, np.where(common, lu + lv, np.inf).min(axis=1, initial=np.inf)


class _LabelChurn(RuleBasedStateMachine):
    """Subclasses set ``PRISTINE`` (a built structure, copied per run)
    and ``_dense``: saved arrays as a new (n, k) label matrix with inf
    where a label lacks a beacon, and the beacon id of each column."""

    PRISTINE = None

    def __init__(self) -> None:
        super().__init__()
        self.tri = copy.deepcopy(self.PRISTINE)
        self.labels, self.columns = self._dense(self.tri.to_arrays()[1])
        self.active = np.ones(self.labels.shape[0], dtype=bool)

    def _dense(self, arrays):
        raise NotImplementedError

    def _update(self, data, joins=(), leaves=()) -> None:
        self.tri.apply_update(joins=joins, leaves=leaves)
        self.active[list(joins)] = True
        self.active[list(leaves)] = False
        stats = self.tri.pending_patch_stats()
        assert (stats.dirty_rows, stats.pending_joins, stats.pending_leaves) == (0, 0, 0)
        self._check_reads(data)

    def _check_reads(self, data) -> None:
        tri, ids = self.tri, np.flatnonzero(self.active)
        a, b = np.triu_indices(ids.size, 1)
        us, vs = ids[a], ids[b]
        lower, upper = _reference(self.labels[:, self.active[self.columns]], us, vs)
        assert tri.estimate_many(us, vs).tobytes() == upper.tobytes()
        assert not tri.estimate_many(ids, ids).any()
        if hasattr(tri, "bounds_many"):
            got = tri.bounds_many(us, vs)
            assert got[0].tobytes() == lower.tobytes()
            assert got[1].tobytes() == upper.tobytes()
        picks = data.draw(st.lists(st.integers(0, us.size - 1), min_size=1, max_size=8))
        for i in picks:
            u, v = int(us[i]), int(vs[i])
            assert tri.estimate(u, v) == upper[i]
            assert tri.bounds(u, v) == (lower[i], upper[i])
        gone = np.flatnonzero(~self.active)
        if gone.size:
            g, u = data.draw(st.sampled_from(gone.tolist())), int(ids[0])
            reads = [lambda: tri.estimate(g, u), lambda: tri.bounds(u, g),
                     lambda: tri.estimate(g, g), lambda: tri.estimate_many([u], [g])]
            if hasattr(tri, "bounds_many"):
                reads.append(lambda: tri.bounds_many([g], [u]))
            for read in reads:
                with pytest.raises(InactiveNode):
                    read()

    def _leave_from(self, data, pool: np.ndarray, k: int) -> None:
        if pool.size < k or np.count_nonzero(self.active) <= k + 2:
            return
        gone = data.draw(st.lists(st.sampled_from(pool.tolist()), min_size=k,
                                  max_size=k, unique=True))
        self._update(data, leaves=gone)

    @rule(data=st.data(), k=st.integers(1, 3))
    def leave(self, data, k):
        self._leave_from(data, np.flatnonzero(self.active), k)

    @rule(data=st.data())
    def leave_a_beacon(self, data):
        self._leave_from(data, self.columns[self.active[self.columns]], 1)

    @rule(data=st.data())
    def join(self, data):
        away = np.flatnonzero(~self.active)
        if away.size == 0:
            return
        back = data.draw(st.lists(st.sampled_from(away.tolist()), min_size=1,
                                  max_size=2, unique=True))
        self._update(data, joins=back)

    @rule()
    def save_and_compact(self):
        _, saved = self.tri.to_arrays()
        labels, columns = self._dense(saved)
        live = self.active[self.columns]
        # a departed beacon's column is gone (beacons) or empty (triangulation)
        keep = np.isin(columns, self.columns[live])
        assert np.isinf(labels[:, ~keep]).all()
        assert np.array_equal(columns[keep], self.columns[live])
        assert np.array_equal(labels[:, keep], self.labels[:, live])
        self.tri.compact()
        _, again = self.tri.to_arrays()
        for name, array in saved.items():
            assert np.array_equal(again[name], array), name


class TriangulationChurn(_LabelChurn):
    PRISTINE = api.build("triangulation", "expline", n=32, seed=0, delta=0.3,
                         cache=api.BuildCache()).inner

    def _dense(self, arrays):
        n = self.PRISTINE.metric.n
        indptr, ids = arrays["label_indptr"], arrays["label_ids"]
        labels = np.full((n, n), np.inf)
        labels[np.repeat(np.arange(n), np.diff(indptr)), ids] = arrays["label_dist"]
        return labels, np.arange(n)


class BeaconChurn(_LabelChurn):
    PRISTINE = api.build("beacons", "hypercube", n=48, seed=4, beacons=6,
                         cache=api.BuildCache()).inner

    def _dense(self, arrays):
        return np.array(arrays["labels"]), np.array(arrays["beacons"])


def test_partial_labels():
    # the reference is only a check where some pairs lack a common label
    # entry, so a departed third node can decide their D+
    labels = TriangulationChurn().labels
    assert np.isinf(labels).mean() > 0.3


def test_triangulation_churn_machine():
    run_state_machine_as_test(TriangulationChurn, settings=SETTINGS)


def test_beacon_churn_machine():
    run_state_machine_as_test(BeaconChurn, settings=SETTINGS)
