#!/usr/bin/env python3
"""Distributed construction of rings of neighbors (§6's open question).

Three acts:

1. build an r-net with a Luby-style message-passing protocol and compare
   it to the centralized greedy construction;
2. discover rings by gossip and watch coverage climb — and plateau below
   the theoretical rings (the §6 gap);
3. run a Meridian overlay through churn, with and without repair.

Run:  python examples/distributed_rings.py
"""

from __future__ import annotations

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


def main() -> None:
    metric = api.build_workload("hypercube", n=64, dim=2, seed=17).metric

    print("=== 1. distributed r-net (r = 0.2) ===")
    proto = DistributedNetProtocol(r=0.2)
    network = RoundAdapter(EventNetwork(metric, seed=1), proto, max_rounds=100)
    stats = network.run()
    members = proto.net_members(network.ctx)
    central = greedy_net(metric, 0.2)
    print(f"  converged in {stats.rounds} rounds, "
          f"{stats.messages:,} messages, {stats.probes:,} probes")
    print(f"  distributed net: {len(members)} nodes "
          f"(valid r-net: {is_r_net(metric, members, 0.2)}); "
          f"centralized greedy: {len(central)} nodes")

    print("\n=== 2. gossip ring discovery vs theoretical rings ===")
    print(f"  {'rounds':>7s} {'messages':>9s} {'scale coverage':>15s} {'member recall':>14s}")
    for rounds in (1, 4, 16):
        gossip = GossipRingProtocol(bootstrap=3, exchange=8, ring_capacity=6,
                                    rounds=rounds)
        network = RoundAdapter(EventNetwork(metric, seed=2), gossip,
                               max_rounds=10 * rounds + 10)
        gstats = network.run()
        scale_cov, recall = ring_coverage(metric, gossip, network.ctx)
        print(f"  {rounds:>7d} {gstats.messages:>9,d} {scale_cov:>15.2f} {recall:>14.2f}")
    print("  -> recall plateaus below 1.0: the paper's Section-6 coverage gap.")

    print("\n=== 3. Meridian overlay under 15% churn per epoch ===")
    latency = api.build_workload("internet", n=72, seed=18).metric
    for label, repair in (("no repair", 0), ("6 repair probes/epoch", 6)):
        sim = ChurnSimulation(latency, MeridianOverlay(latency, seed=3),
                              churn_rate=0.15, repair_probes=repair, seed=4)
        reports = sim.run(6, quality_queries=80)
        first, last = reports[0], reports[-1]
        print(f"  {label:<24s} approx {first.mean_approximation:.2f} -> "
              f"{last.mean_approximation:.2f}   ring members "
              f"{first.mean_ring_members:.1f} -> {last.mean_ring_members:.1f}")


if __name__ == "__main__":
    main()
