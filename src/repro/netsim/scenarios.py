"""Named degradation scenarios and the measurement harness over them.

A :class:`Scenario` is a declarative description of one network
environment — loss, latency, jitter, crash schedules, partitions,
Byzantine fractions — that expands into a concrete
:class:`~repro.netsim.links.LinkModel` + :class:`~repro.netsim.faults.FaultPlan`
for a given node count and seed.  The registry (:data:`SCENARIOS`) holds
the suite cells: ``ideal`` (the parity baseline), ``lossy``,
``partition``, ``byzantine`` and ``crash-churn``.

:func:`measure_scenario` is the whole §6 story under one environment:
gossip ring discovery (coverage/recall + wall-clock + delivery rate),
distributed r-net construction (validity + decided fraction), the ring
audit (Byzantine detection/false-positive rates) and ring-table distance
estimates scored against the fitted scheme's ``(stretch, δ)`` guarantee.

Seeding: every random choice derives from the one ``seed`` argument.
The protocol generator is ``ensure_rng(seed)`` itself — so the ``ideal``
scenario at seed ``s`` replays a bare ``EventNetwork(metric, seed=s)``
round run exactly — and the link model and fault plan get spawned children of the same
entropy, so they perturb the environment without touching the protocol
stream.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.metrics.base import MetricSpace
from repro.registry import Registry
from repro.rng import SeedLike, ensure_rng, rng_entropy

from repro.netsim.audit import RingAuditProtocol
from repro.netsim.faults import Byzantine, Crash, FaultPlan, Partition, sample_nodes
from repro.netsim.links import LinkModel, make_latency
from repro.netsim.network import EventNetwork
from repro.netsim.protocol import EventDriver, RoundAdapter

__all__ = ["SCENARIOS", "Scenario", "measure_scenario"]


@dataclass(frozen=True)
class Scenario:
    """One network environment, expandable for any (n, seed)."""

    name: str
    summary: str = ""
    # link behaviour
    drop_rate: float = 0.0
    latency: str = "constant"
    latency_mean: float = 0.0
    jitter: float = 0.0
    # crash/restart schedule
    crash_fraction: float = 0.0
    crash_at: float = 2.0
    restart_after: Optional[float] = None
    # partition window
    partition_fraction: float = 0.0
    partition_start: float = 2.0
    partition_end: float = 6.0
    # Byzantine population
    byzantine_fraction: float = 0.0
    byzantine_mode: str = "mixed"
    inflate: Tuple[float, float] = (2.0, 4.0)

    # -- expansion ------------------------------------------------------

    def link(self, seed: SeedLike = None) -> LinkModel:
        if self.latency == "constant":
            latency = make_latency("constant", value=self.latency_mean)
        elif self.latency == "uniform":
            latency = make_latency("uniform", lo=0.0, hi=2.0 * self.latency_mean)
        else:
            latency = make_latency(self.latency, mean=self.latency_mean)
        return LinkModel(
            latency=latency,
            drop_rate=self.drop_rate,
            jitter=self.jitter,
            seed=seed,
        )

    def faults(
        self, n: int, seed: SeedLike = None, protect: Iterable[int] = ()
    ) -> FaultPlan:
        """Draw the concrete fault schedule for ``n`` nodes.

        ``protect`` shields nodes from crash/Byzantine selection — the
        round adapter protects node ``n-1``, whose step advances the
        gossip protocol's round counter; crashing it would stall the
        round clock rather than degrade the protocol.
        """
        from repro.distributed.trace import ChurnEvent, ChurnTrace

        rng = ensure_rng(seed)
        shielded = frozenset(protect)
        eligible = [u for u in range(n) if u not in shielded]

        # Crash churn is expressed as a shared ChurnTrace (leave at
        # crash_at, rejoin restart_after later) and the Crash windows are
        # derived from it — the same spec the distributed epoch
        # simulation and the churn-stream suite consume.
        crashes = []
        churn_trace = None
        k = int(round(self.crash_fraction * n))
        if k:
            victims = sample_nodes(rng, eligible, k)
            events = [ChurnEvent(at=self.crash_at, leaves=victims)]
            if self.restart_after is not None:
                events.append(
                    ChurnEvent(
                        at=self.crash_at + self.restart_after, joins=victims
                    )
                )
            churn_trace = ChurnTrace(
                n=n,
                events=tuple(events),
                seed=None,
                rate=float(self.crash_fraction),
            )
            crashes = [
                Crash(node, down_at, up_at)
                for node, down_at, up_at in churn_trace.crash_windows()
            ]

        partitions = []
        k = int(round(self.partition_fraction * n))
        if k:
            group = sample_nodes(rng, range(n), k)
            partitions = [
                Partition(group, self.partition_start, self.partition_end)
            ]

        byzantine = None
        k = int(round(self.byzantine_fraction * n))
        if k:
            byzantine = Byzantine(
                sample_nodes(rng, eligible, k),
                mode=self.byzantine_mode,
                inflate=self.inflate,
            )

        return FaultPlan(
            crashes=tuple(crashes),
            partitions=tuple(partitions),
            byzantine=byzantine,
            seed=int(rng.integers(2**31)),
            churn_trace=churn_trace,
        )

    def network(self, metric: MetricSpace, seed: SeedLike = None) -> EventNetwork:
        """A ready event network: protocol RNG on the main stream, link
        and fault randomness on spawned children of the same entropy."""
        rng = ensure_rng(seed)
        link_ss, fault_ss = np.random.SeedSequence(rng_entropy(rng)).spawn(2)
        return EventNetwork(
            metric,
            link=self.link(np.random.default_rng(link_ss)),
            faults=self.faults(
                metric.n, np.random.default_rng(fault_ss), protect=(metric.n - 1,)
            ),
            seed=rng,
        )

    def to_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        out["inflate"] = list(self.inflate)
        return out


#: The scenario cells the netsim suites sweep.
SCENARIOS = Registry("scenario")

SCENARIOS.register(
    "ideal",
    Scenario("ideal", "zero-latency lossless baseline (parity with the "
                      "synchronous simulator)"),
    summary="zero-latency lossless baseline",
)
SCENARIOS.register(
    "lossy",
    Scenario(
        "lossy",
        "8% loss, uniform latency, reordering jitter",
        drop_rate=0.08,
        latency="uniform",
        latency_mean=0.4,
        jitter=0.2,
    ),
    summary="8% loss, uniform latency, reordering jitter",
)
SCENARIOS.register(
    "partition",
    Scenario(
        "partition",
        "35% of nodes split off during rounds [2, 6)",
        partition_fraction=0.35,
        partition_start=2.0,
        partition_end=6.0,
    ),
    summary="35% of nodes split off during rounds [2, 6)",
)
SCENARIOS.register(
    "byzantine",
    Scenario(
        "byzantine",
        "12% Byzantine nodes (half distance liars, half membership liars)",
        byzantine_fraction=0.12,
        byzantine_mode="mixed",
    ),
    summary="12% Byzantine: distance + membership liars",
)
SCENARIOS.register(
    "crash-churn",
    Scenario(
        "crash-churn",
        "25% of nodes crash at round 2 and warm-restart 3 rounds later",
        crash_fraction=0.25,
        crash_at=2.0,
        restart_after=3.0,
    ),
    summary="25% crash at round 2, warm restart 3 rounds later",
)


def _net_radius(metric: MetricSpace) -> float:
    """A mid-scale r-net radius for the metric (half the scale ladder)."""
    return metric.min_distance() * 2.0 ** max(0, metric.log_aspect_ratio() // 2)


def measure_scenario(
    metric: MetricSpace,
    scenario: Scenario,
    seed: int = 0,
    gossip_rounds: int = 8,
    ring_capacity: int = 6,
    audit_pairs: int = 64,
    stretch: Optional[float] = None,
    delta: Optional[float] = None,
) -> Dict[str, Any]:
    """Run the full §6 measurement battery under one scenario.

    Returns a flat dict (probe-friendly): gossip convergence/coverage,
    r-net construction health, audit detection statistics and ring-table
    estimate quality vs the scheme guarantee when ``(stretch, delta)``
    is given.
    """
    from repro.distributed import (
        DistributedNetProtocol,
        GossipRingProtocol,
        ring_coverage,
    )
    from repro.metrics.nets import is_r_net

    out: Dict[str, Any] = {"scenario": scenario.to_dict(), "seed": seed}

    # 1. Gossip ring discovery: coverage under degradation + wall-clock.
    gossip = GossipRingProtocol(
        bootstrap=3, exchange=8, ring_capacity=ring_capacity, rounds=gossip_rounds
    )
    net = scenario.network(metric, seed)
    # Churn provenance: the exact schedule this run's crash windows came
    # from (every later network at the same seed replays it bit-for-bit).
    if net.faults.churn_trace is not None:
        out["churn_trace"] = net.faults.churn_trace.describe()
    adapter = RoundAdapter(net, gossip, max_rounds=10 * gossip_rounds + 10)
    stats = adapter.run()
    coverage, recall = ring_coverage(metric, gossip, adapter.ctx)
    out.update(
        gossip_converged=bool(stats.converged),
        gossip_wall_clock=float(stats.wall_clock),
        gossip_rounds=int(stats.rounds),
        gossip_messages=int(stats.messages),
        gossip_delivery_rate=float(net.delivery_rate()),
        gossip_dropped=int(stats.dropped),
        gossip_coverage=float(coverage),
        gossip_recall=float(recall),
        resolved_seed=stats.seed,
    )

    # 2. Distributed r-net construction: does symmetry breaking survive?
    radius = _net_radius(metric)
    netproto = DistributedNetProtocol(r=radius)
    net2 = scenario.network(metric, seed)
    adapter2 = RoundAdapter(net2, netproto, max_rounds=120)
    stats2 = adapter2.run()
    members = netproto.net_members(adapter2.ctx)
    decided = sum(
        1 for u in range(metric.n) if adapter2.ctx.state[u]["status"] != "live"
    )
    out.update(
        net_converged=bool(stats2.converged),
        net_wall_clock=float(stats2.wall_clock),
        net_delivery_rate=float(net2.delivery_rate()),
        net_decided_fraction=decided / metric.n,
        net_size=len(members),
        net_valid=bool(members and is_r_net(metric, members, radius)),
    )

    # 3. Ring audit on the gossip tables — the same seed replays the
    # identical fault plan, so the audited Byzantine set is the one that
    # corrupted the tables in step 1.
    audit_net = scenario.network(metric, seed)
    audit = RingAuditProtocol(
        {u: gossip.rings_of(adapter.ctx, u) for u in range(metric.n)},
        base=metric.min_distance(),
        levels=metric.log_aspect_ratio() + 1,
    )
    EventDriver(audit_net, audit).run()
    report = audit.report(byzantine=audit_net.faults.byzantine_nodes())
    out.update(
        audit_detection_rate=float(report["detection_rate"]),
        audit_false_positive_rate=float(report["false_positive_rate"]),
        audit_flagged=report["flagged"],
        audit_issued=int(report["audits_issued"]),
        audit_answered=int(report["audits_answered"]),
        audit_mean_overlap_honest=float(report["mean_overlap_honest"]),
        audit_mean_overlap_byzantine=float(report["mean_overlap_byzantine"]),
    )

    # 4. Estimate quality: common-ring-member triangulation vs the truth.
    pair_rng = np.random.default_rng([seed, 97])
    ratios = []
    covered = within = 0
    for _ in range(audit_pairs):
        u = int(pair_rng.integers(metric.n))
        v = int(pair_rng.integers(metric.n - 1))
        if v >= u:
            v += 1
        known_u = _known_of(adapter.ctx, u)
        known_v = _known_of(adapter.ctx, v)
        common = known_u.keys() & known_v.keys()
        if not common:
            continue
        covered += 1
        est = min(known_u[w] + known_v[w] for w in common)
        ratio = est / metric.distance(u, v)
        ratios.append(ratio)
        if stretch is not None and ratio <= stretch:
            within += 1
    out.update(
        estimate_coverage=covered / audit_pairs,
        estimate_mean_ratio=float(np.mean(ratios)) if ratios else float("nan"),
        estimate_max_ratio=float(np.max(ratios)) if ratios else float("nan"),
    )
    if stretch is not None:
        out["estimate_within_stretch"] = within / audit_pairs
        out["guarantee_stretch"] = float(stretch)
    if delta is not None:
        out["guarantee_delta"] = float(delta)
        if stretch is not None:
            out["estimate_meets_guarantee"] = bool(
                within / audit_pairs >= 1.0 - delta
            )
    return out


def _known_of(ctx, u: int) -> Dict[int, float]:
    """All (node, measured distance) pairs ``u`` filed into rings."""
    merged: Dict[int, float] = {}
    for ring in ctx.state[u]["rings"].values():
        merged.update(ring)
    return merged
