"""Suffix-walk ring audits: honest tables pass, liars get flagged."""

import pytest

from repro.api.facade import build_workload
from repro.distributed import GossipRingProtocol
from repro.netsim import (
    Byzantine,
    EventNetwork,
    FaultPlan,
    RoundAdapter,
    run_audit,
    suffix_walk,
)


class TestSuffixWalk:
    def test_forward_scan_from_start(self):
        assert suffix_walk([2, 5, 9, 12], start=5, length=2) == [5, 9]
        assert suffix_walk([2, 5, 9, 12], start=6, length=2) == [9, 12]

    def test_wraps_past_the_end(self):
        assert suffix_walk([2, 5, 9], start=10, length=2) == [2, 5]

    def test_short_tables_and_empty(self):
        assert suffix_walk([4], start=0, length=3) == [4]
        assert suffix_walk([], start=0, length=3) == []
        assert suffix_walk([1, 2], start=0, length=0) == []


def gossip_tables(metric, seed=3):
    proto = GossipRingProtocol(bootstrap=3, exchange=8, ring_capacity=6, rounds=8)
    adapter = RoundAdapter(EventNetwork(metric, seed=seed), proto, max_rounds=100)
    adapter.run()
    return {u: proto.rings_of(adapter.ctx, u) for u in range(metric.n)}


@pytest.fixture(scope="module")
def metric():
    return build_workload("hypercube", n=40, seed=9).metric


class TestAudit:
    def test_honest_network_flags_nobody(self, metric):
        rings = gossip_tables(metric)
        net = EventNetwork(metric, seed=21)
        audit = run_audit(net, rings, base=metric.min_distance(),
                          levels=metric.log_aspect_ratio() + 1)
        report = audit.report()
        assert report["flagged"] == []
        assert report["false_positive_rate"] == 0.0
        assert report["mean_overlap_honest"] == pytest.approx(1.0)
        assert report["audits_answered"] == report["audits_issued"]

    def test_distance_liars_detected(self, metric):
        liars = (4, 11, 17)
        faults = FaultPlan(
            byzantine=Byzantine(liars, mode="distance"), seed=5
        )
        # Tables built under the same liars: everyone filed the liars at
        # inflated distances, and the liars' own tables hold truths the
        # verifiers' re-measurements contradict.
        net = EventNetwork(metric, faults=faults, seed=21)
        rings = gossip_tables(metric)
        audit = run_audit(net, rings, base=metric.min_distance(),
                          levels=metric.log_aspect_ratio() + 1,
                          audits_per_node=6)
        report = audit.report(byzantine=frozenset(liars))
        assert report["detection_rate"] == 1.0
        assert report["mean_overlap_byzantine"] < 0.5
        assert report["mean_overlap_honest"] > 0.8

    def test_membership_liars_detected(self, metric):
        liars = (7, 23)
        faults = FaultPlan(
            byzantine=Byzantine(liars, mode="membership"), seed=5
        )
        net = EventNetwork(metric, faults=faults, seed=21)
        audit = run_audit(net, gossip_tables(metric),
                          base=metric.min_distance(),
                          levels=metric.log_aspect_ratio() + 1,
                          audits_per_node=6)
        report = audit.report(byzantine=frozenset(liars))
        assert report["detection_rate"] == 1.0
        assert report["false_positive_rate"] < 0.15

    def test_report_counts_consistent(self, metric):
        net = EventNetwork(metric, seed=2)
        audit = run_audit(net, gossip_tables(metric),
                          base=metric.min_distance())
        report = audit.report()
        assert report["audits_issued"] == metric.n * audit.audits_per_node
        assert report["checks_total"] == sum(audit.checks.values())
        assert report["provers_audited"] <= metric.n
