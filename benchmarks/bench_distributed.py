"""Experiment ``sec6-gap`` — distributed construction and the coverage gap.

§6: "rings of neighbors that we can define theoretically provide a much
better coverage than the ones that we know how to construct and maintain
in a distributed fashion.  Bridging this gap is an interesting open
question."  Three measurements operationalize the sentence:

1. distributed r-net construction cost (rounds/messages/probes) and
   validity vs the centralized greedy;
2. gossip ring discovery: coverage/recall vs rounds against the exact
   (theoretical) rings — the gap itself;
3. Meridian overlay quality under churn, with and without repair probes.
"""

from __future__ import annotations

import math


from benchmarks.conftest import record_table
from repro.distributed import (
    ChurnSimulation,
    DistributedNetProtocol,
    GossipRingProtocol,
    ring_coverage,
)
from repro import api
from repro.meridian import MeridianOverlay
from repro.metrics.nets import greedy_net, is_r_net
from repro.netsim import EventNetwork, RoundAdapter


def _run(metric, proto, seed, max_rounds):
    """Run a round protocol on an ideal event network: (stats, ctx)."""
    adapter = RoundAdapter(EventNetwork(metric, seed=seed), proto, max_rounds=max_rounds)
    return adapter.run(), adapter.ctx


def test_distributed_net_cost(benchmark):
    metric = api.build_workload("hypercube", n=64, dim=2, seed=130).metric
    rows = []
    for r in (0.4, 0.2, 0.1):
        proto = DistributedNetProtocol(r=r)
        stats, ctx = _run(metric, proto, seed=1, max_rounds=100)
        members = proto.net_members(ctx)
        central = greedy_net(metric, r)
        rows.append(
            (
                r,
                stats.rounds,
                f"{stats.messages:,}",
                f"{stats.probes:,}",
                len(members),
                len(central),
                is_r_net(metric, members, r),
            )
        )
        assert stats.converged and is_r_net(metric, members, r)
        assert stats.rounds <= 4 * math.log2(metric.n)
    benchmark(lambda: _run(metric, DistributedNetProtocol(r=0.4), seed=2, max_rounds=100))
    record_table(
        "sec6_distributed_net",
        "Distributed r-net construction (Luby-style, hypercube n=64)",
        ["r", "rounds", "messages", "probes", "dist. net size", "central size", "valid"],
        rows,
        note="Valid r-nets in O(log n) rounds; the Θ(n²) probe bill is the "
        "price of starting with zero distance knowledge.",
    )


def test_gossip_coverage_gap(benchmark):
    metric = api.build_workload("hypercube", n=56, dim=2, seed=131).metric
    rows = []
    for rounds in (1, 3, 6, 12, 24):
        proto = GossipRingProtocol(
            bootstrap=3, exchange=8, ring_capacity=6, rounds=rounds
        )
        stats, ctx = _run(metric, proto, seed=3, max_rounds=10 * rounds + 10)
        scale_cov, recall = ring_coverage(metric, proto, ctx)
        rows.append(
            (
                rounds,
                f"{stats.messages:,}",
                f"{stats.probes:,}",
                f"{scale_cov:.2f}",
                f"{recall:.2f}",
            )
        )
    benchmark(lambda: _run(metric, GossipRingProtocol(rounds=2), seed=4, max_rounds=40))
    record_table(
        "sec6_gossip_gap",
        "Gossip ring discovery vs the theoretical rings (hypercube n=56)",
        ["gossip rounds", "messages", "probes", "scale coverage", "member recall"],
        rows,
        note="Coverage climbs quickly but member recall plateaus below 1.0 at "
        "bounded ring state — the Section-6 gap between theoretical and "
        "distributedly-maintained rings.",
    )
    recalls = [float(r[4]) for r in rows]
    assert recalls[-1] >= recalls[0]
    assert recalls[-1] < 1.0  # the gap persists


def test_churn_quality(benchmark):
    metric = api.build_workload("internet", n=72, seed=132).metric
    rows = []
    runs = {}
    for name, repair in (("no repair", 0), ("repair 6 probes/epoch", 6)):
        sim = ChurnSimulation(
            metric,
            MeridianOverlay(metric, seed=5),
            churn_rate=0.15,
            repair_probes=repair,
            seed=6,
        )
        reports = sim.run(6, quality_queries=80)
        runs[name] = reports
        for report in (reports[0], reports[-1]):
            rows.append(
                (
                    name,
                    report.epoch,
                    f"{report.mean_approximation:.2f}",
                    f"{report.exact_rate:.0%}",
                    f"{report.mean_ring_members:.1f}",
                )
            )
    benchmark(lambda: ChurnSimulation(
        metric, MeridianOverlay(metric, seed=7), churn_rate=0.1, seed=8
    ).run_epoch(0, quality_queries=20))
    record_table(
        "sec6_churn",
        "Meridian overlay under 15%/epoch churn (internet-like n=72)",
        ["maintenance", "epoch", "mean approx", "exact rate", "ring members"],
        rows,
        note="Ring membership decays under churn and search quality follows; "
        "a handful of repair probes per epoch stabilizes both.",
    )
    assert (
        runs["repair 6 probes/epoch"][-1].mean_ring_members
        >= runs["no repair"][-1].mean_ring_members
    )
