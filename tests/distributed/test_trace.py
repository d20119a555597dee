"""ChurnTrace — the one join/leave schedule every churn consumer shares.

Covers: seeded generation semantics (replacement model, disjoint
joins/leaves, rejoin cohorts, exclusions), JSON round-trip + digest
stability, ChurnSimulation replaying a trace, and the netsim fault
planner deriving its crash windows from — and recording — the same
trace.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api.facade import build_workload
from repro.distributed import ChurnSimulation, ChurnTrace
from repro.distributed.trace import ChurnEvent
from repro.meridian import MeridianOverlay
from repro.metrics import internet_like_metric
from repro.netsim import SCENARIOS, Scenario, measure_scenario


class TestGenerate:
    def test_deterministic_for_seed(self):
        a = ChurnTrace.generate(n=50, events=12, rate=0.05, seed=9)
        b = ChurnTrace.generate(n=50, events=12, rate=0.05, seed=9)
        assert a == b
        assert a.digest() == b.digest()
        c = ChurnTrace.generate(n=50, events=12, rate=0.05, seed=10)
        assert a.digest() != c.digest()

    def test_validation(self):
        with pytest.raises(ValueError, match="n >= 2"):
            ChurnTrace.generate(n=1, events=4)
        with pytest.raises(ValueError, match="rate"):
            ChurnTrace.generate(n=10, events=4, rate=0.0)
        with pytest.raises(ValueError, match="rate"):
            ChurnTrace.generate(n=10, events=4, rate=1.0)
        with pytest.raises(ValueError, match="out of range"):
            ChurnTrace.generate(n=10, events=4, rate=0.1, exclude=(10,))

    def test_joins_and_leaves_disjoint_per_event(self):
        trace = ChurnTrace.generate(n=30, events=40, rate=0.2, seed=3)
        for event in trace.events:
            assert not set(event.joins) & set(event.leaves)
            assert list(event.leaves) == sorted(event.leaves)

    def test_rejoin_cohort_returns_after_exactly_two_events(self):
        trace = ChurnTrace.generate(
            n=40, events=10, rate=0.1, seed=5, rejoin_after=2
        )
        for i, event in enumerate(trace.events):
            if i >= 2:
                assert event.joins == trace.events[i - 2].leaves
            else:
                assert event.joins == ()

    def test_exclude_pins_protected_nodes(self):
        trace = ChurnTrace.generate(
            n=20, events=30, rate=0.3, seed=1, exclude=(0, 19)
        )
        for event in trace.events:
            assert 0 not in event.leaves and 19 not in event.leaves

    def test_final_active_matches_replay(self):
        trace = ChurnTrace.generate(n=25, events=9, rate=0.15, seed=2)
        active = np.ones(25, dtype=bool)
        for event in trace.events:
            active[list(event.joins)] = True
            active[list(event.leaves)] = False
        assert np.array_equal(trace.final_active(), active)


class TestSerialization:
    def test_json_roundtrip(self):
        trace = ChurnTrace.generate(n=16, events=6, rate=0.2, seed=4)
        data = json.loads(json.dumps(trace.to_dict()))
        again = ChurnTrace.from_dict(data)
        assert again == trace
        assert again.digest() == trace.digest()

    def test_event_roundtrip(self):
        event = ChurnEvent(at=3.0, leaves=(1, 5), joins=(2,))
        assert ChurnEvent.from_dict(event.to_dict()) == event

    @pytest.mark.parametrize(
        "events, match",
        [
            ([{"at": 0, "leaves": [1.9, True], "joins": [5]}],
             r"trace event 0: churn event at=0.0: leave ids must be integers"),
            ([{"at": 0, "leaves": [2]}, {"at": 1, "joins": [True]}],
             r"trace event 1: .*join ids must be integers"),
            ([{"at": 0, "leaves": [1], "joins": [57]}],
             r"trace event 0: .*join ids out of range \[0, 10\): \[57\]"),
            ([{"at": 0, "leaves": [-1]}],
             r"trace event 0: .*leave ids out of range \[0, 10\): \[-1\]"),
            ([{"at": 0, "leaves": [2]}, {"at": 1, "leaves": [3, 4], "joins": [2, 4]}],
             r"trace event 1: churn event at=1.0: nodes both leave and join: \[4\]"),
        ],
    )
    def test_bad_ids_are_refused_naming_the_event(self, events, match):
        with pytest.raises(ValueError, match=match):
            ChurnTrace.from_dict({"n": 10, "events": events})

    @pytest.mark.parametrize(
        "scalars, match",
        [
            ({"n": 10.7, "seed": 2}, r"trace n must be an integer, got 10.7"),
            ({"n": True}, r"trace n must be an integer, got True"),
            ({"n": "10"}, r"trace n must be an integer"),
            ({"n": 10, "seed": 2.9}, r"trace seed must be an integer, got 2.9"),
            ({"n": 10, "seed": False}, r"trace seed must be an integer, got False"),
        ],
    )
    def test_scalars_must_be_integers(self, scalars, match):
        """A float or bool count or seed would otherwise be truncated
        (``10.7`` to 10, ``true`` to 1)."""
        with pytest.raises(ValueError, match=match):
            ChurnTrace.from_dict({**scalars, "events": [{"at": 0, "leaves": [1]}]})

    def test_event_ids_are_python_ints_and_digests_hold(self):
        for seed in range(4):
            trace = ChurnTrace.generate(n=40, events=12, rate=0.1, seed=seed)
            again = ChurnTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
            assert again == trace and again.digest() == trace.digest()
            assert all(type(x) is int for e in again.events for x in e.leaves + e.joins)
            assert type(again.n) is int and type(again.seed) is int

    def test_describe_carries_digest(self):
        trace = ChurnTrace.generate(n=16, events=6, rate=0.2, seed=4)
        desc = trace.describe()
        assert desc["n"] == 16
        assert desc["events"] == 6
        assert desc["seed"] == 4
        assert desc["digest"] == trace.digest()

    def test_crash_windows_pair_leave_with_next_rejoin(self):
        trace = ChurnTrace(
            n=6,
            events=(
                ChurnEvent(at=0.0, leaves=(2, 4)),
                ChurnEvent(at=1.0, leaves=(1,)),
                ChurnEvent(at=2.0, joins=(2, 4)),
            ),
        )
        windows = dict(
            (node, (down, up))
            for node, down, up in trace.crash_windows(start=10.0, spacing=2.0)
        )
        assert windows[2] == (10.0, 14.0)
        assert windows[4] == (10.0, 14.0)
        assert windows[1] == (12.0, float("inf"))


@pytest.fixture(scope="module")
def metric():
    return internet_like_metric(48, seed=77)


class TestChurnSimulationTrace:
    def test_trace_drives_replacements(self, metric):
        trace = ChurnTrace.generate(n=48, events=3, rate=0.1, seed=6)
        overlay = MeridianOverlay(metric, seed=0)
        sim = ChurnSimulation(metric, overlay, churn_rate=0.5, seed=1,
                              trace=trace)
        report = sim.run_epoch(0)
        event = trace.events[0]
        assert report.replaced_nodes == len(event.leaves) + len(event.joins)
        for node in overlay.nodes:
            for members in node.rings.values():
                assert not set(members) & set(event.leaves)

    def test_trace_n_mismatch_rejected(self, metric):
        trace = ChurnTrace.generate(n=8, events=2, rate=0.2, seed=0)
        with pytest.raises(ValueError, match="trace covers"):
            ChurnSimulation(metric, MeridianOverlay(metric, seed=0),
                            trace=trace)


class TestNetsimIntegration:
    def test_crash_churn_plan_carries_trace(self):
        sc = SCENARIOS.get("crash-churn").obj
        plan = sc.faults(32, seed=5)
        trace = plan.churn_trace
        assert trace is not None
        # the Crash windows are exactly the trace's crash windows
        windows = {node: (down, up) for node, down, up in trace.crash_windows()}
        assert len(windows) == len(plan.crashes)
        for crash in plan.crashes:
            assert windows[crash.node] == (crash.down_at, crash.up_at)
            assert crash.down_at == sc.crash_at
            assert crash.up_at == sc.crash_at + sc.restart_after
        # and the plan's dict form records the trace for provenance
        data = plan.to_dict()
        assert data["churn_trace"]["n"] == 32
        assert ChurnTrace.from_dict(data["churn_trace"]) == trace

    def test_no_crash_scenario_has_no_trace(self):
        plan = Scenario("calm").faults(16, seed=0)
        assert plan.churn_trace is None
        assert "churn_trace" not in plan.to_dict()

    def test_measure_scenario_records_trace_provenance(self):
        metric = build_workload("hypercube", n=32, seed=7).metric
        out = measure_scenario(
            metric, SCENARIOS.get("crash-churn").obj, seed=3,
            gossip_rounds=2, audit_pairs=8,
        )
        desc = out["churn_trace"]
        assert desc["n"] == 32
        assert set(desc) == {"n", "events", "rate", "seed", "digest"}
        ideal = measure_scenario(
            metric, SCENARIOS.get("ideal").obj, seed=3,
            gossip_rounds=2, audit_pairs=8,
        )
        assert "churn_trace" not in ideal
