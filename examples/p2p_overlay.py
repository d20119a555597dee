#!/usr/bin/env python3
"""Peer-to-peer overlay design: small-world models head to head (§5).

A P2P network whose node latencies form a doubling metric with a *huge*
aspect ratio (the exponential line — think a few nodes per continent,
per city, per rack, per host).  The designer picks a contact
distribution and a routing rule; we compare:

* naive single-scale contacts (uniform random) — greedy stalls;
* Theorem 5.2(a) rings — greedy, O(log n) hops, degree ~ log n · log Δ;
* Theorem 5.2(b) pruned rings + Z-contacts — the non-greedy step (**),
  degree ~ log² n · sqrt(log Δ);
* Theorem 5.5 — one long-range link per node over a local ring.

Run:  python examples/p2p_overlay.py
"""

from __future__ import annotations

import math


from repro import api
from repro.engine import UniformSamplePlan
from repro.smallworld import ContactGraph, evaluate_model
from repro.smallworld.base import SmallWorldModel
from repro.rng import ensure_rng


class UniformContactsModel(SmallWorldModel):
    """Strawman: k contacts uniform over the node set, greedy routing."""

    def __init__(self, metric, k: int) -> None:
        self.metric = metric
        self.k = k

    def sample_contacts(self, seed=None) -> ContactGraph:
        rng = ensure_rng(seed)
        contacts = []
        for u in range(self.metric.n):
            picks = set(int(x) for x in rng.choice(self.metric.n, size=self.k))
            picks.discard(u)
            contacts.append(tuple(sorted(picks)))
        return ContactGraph(contacts=contacts)


def report(name: str, stats) -> None:
    """Accepts either a facade stats dict or a SmallWorldStats object."""
    if not isinstance(stats, dict):
        stats = {key: getattr(stats, key) for key in
                 ("completion_rate", "max_hops", "mean_hops", "max_out_degree")}
    print(f"  {name:<28s} completion {stats['completion_rate']:6.1%}   "
          f"max hops {stats['max_hops']:4d}   mean {stats['mean_hops']:6.1f}   "
          f"degree {stats['max_out_degree']:4d}")


def main() -> None:
    n = 192
    workload = api.build_workload("expline", n=n, base=1.7)
    metric = workload.metric
    log_delta = math.log2(metric.aspect_ratio())
    print(f"latency metric: exponential line, n={n}, "
          f"log2 Δ = {log_delta:.0f}, log2 n = {math.log2(n):.1f}\n")

    print("routing 500 random queries per model:")
    uniform = UniformContactsModel(metric, k=24)
    report("uniform contacts (k=24)",
           evaluate_model(uniform, uniform.sample_contacts(seed=3),
                          UniformSamplePlan(size=500, seed=3)))
    for name, key in (("Thm 5.2(a) greedy rings", "sw-5.2a"),
                      ("Thm 5.2(b) pruned + (**)", "sw-5.2b")):
        fitted = api.build(key, workload=workload, seed=3, c=1.5)
        report(name, fitted.stats(samples=500, seed=3))

    print("\nTheorem 5.5 needs a local-contact graph; use a nearest-"
          "neighbor chain:")
    from repro.graphs import WeightedGraph
    from repro.smallworld import SingleLinkModel

    chain = WeightedGraph(n)
    for i in range(n - 1):
        chain.add_edge(i, i + 1, metric.distance(i, i + 1))
    single = SingleLinkModel(metric, chain)
    report("Thm 5.5 single long link",
           evaluate_model(single, single.sample_contacts(seed=4),
                          UniformSamplePlan(size=300, seed=4)))
    print(f"\n  (5.5's bound is 2^O(α) log² Δ ≈ {log_delta ** 2:.0f} hops — "
          "cheap per node, slow per query;\n   the ring models trade degree "
          "for O(log n)-hop queries.)")


if __name__ == "__main__":
    main()
