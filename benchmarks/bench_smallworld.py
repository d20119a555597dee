"""Experiment ``thm52-hops`` / ``thm55-singlelink`` — small-world results.

Theorem 5.2: O(log n)-hop queries even when Δ is exponential in n —
measured as max/mean hops vs n on the exponential line for models (a) and
(b), with out-degrees.  A naive Y-only walker (the "relatively
straightforward solution" the paper improves on) shows the O(log Δ)
behaviour it suffers from.

Theorem 5.5: one long-range link per node on a grid graph: hops ~
2^O(α) log² Δ.
"""

from __future__ import annotations

import math


from benchmarks.conftest import record_table
from repro import api
from repro.engine import UniformSamplePlan
from repro.metrics.measure import doubling_measure
from repro.smallworld import (
    GreedyRingsModel,
    PrunedRingsModel,
    SingleLinkModel,
    evaluate_model,
)
from repro.smallworld.base import ContactGraph, SmallWorldModel
from repro.rng import ensure_rng


class YOnlyModel(SmallWorldModel):
    """Only the measure-based Y-rings with ONE sample per scale: makes
    constant progress per scale, hence Θ(log Δ) hops — the baseline the
    paper's property (*) improves to O(log n)."""

    def __init__(self, metric) -> None:
        self.metric = metric
        self.mu = doubling_measure(metric)
        self._levels = metric.log_aspect_ratio() + 1
        self._base = metric.min_distance()

    def sample_contacts(self, seed=None) -> ContactGraph:
        rng = ensure_rng(seed)
        contacts = []
        for u in range(self.metric.n):
            chosen = set()
            for j in range(self._levels):
                radius = self._base * 2.0**j
                chosen.add(int(self.mu.sample_from_ball(u, radius, 1, rng)[0]))
            chosen.discard(u)
            contacts.append(tuple(sorted(chosen)))
        return ContactGraph(contacts=contacts)


def test_hops_vs_n_exponential_line(benchmark):
    rows = []
    for n in (48, 96, 192):
        workload = api.build_workload("expline", n=n, base=1.7)
        metric, mu = workload.metric, workload.measure()
        for name, model in (
            ("Y-only walker", YOnlyModel(metric)),
            ("Thm 5.2(a)", GreedyRingsModel(metric, c=1.5, mu=mu)),
            ("Thm 5.2(b)", PrunedRingsModel(metric, c=1.5, mu=mu)),
        ):
            stats = evaluate_model(
                model, model.sample_contacts(seed=5), UniformSamplePlan(size=250, seed=5)
            )
            rows.append(
                (
                    n,
                    name,
                    f"{stats.completion_rate:.0%}",
                    stats.max_hops,
                    f"{stats.mean_hops:.1f}",
                    stats.max_out_degree,
                    f"{math.log2(metric.aspect_ratio()):.0f}",
                )
            )
    model = GreedyRingsModel(api.build_workload("expline", n=48, base=1.7).metric, c=1.5)
    graph = model.sample_contacts(seed=0)
    from repro.smallworld import route_query

    benchmark(route_query, model, graph, 0, 47)
    record_table(
        "thm52_hops",
        "Theorem 5.2: hops vs n on the exponential line (log D = Theta(n))",
        ["n", "model", "completion", "max hops", "mean hops", "out-degree", "log2 D"],
        rows,
        note="5.2(a)/(b) hop counts stay O(log n) as log D grows linearly in n; "
        "the Y-only walker's hops track log D instead.",
    )
    by = {(r[0], r[1]): r for r in rows}
    for n in (48, 96, 192):
        assert by[(n, "Thm 5.2(a)")][3] <= 3 * math.log2(n)
        assert by[(n, "Thm 5.2(b)")][3] <= 4 * math.log2(n)
    # The naive walker's hops grow with n (through log D), the ring models' don't.
    assert by[(192, "Y-only walker")][3] > by[(192, "Thm 5.2(a)")][3]


def test_theorem55_grid(benchmark):
    rows = []
    for side in (6, 10, 14):
        workload = api.build_workload("grid-graph", n=side * side)
        graph, metric = workload.graph, workload.metric
        model = SingleLinkModel(metric, graph)
        stats = evaluate_model(
            model, model.sample_contacts(seed=6), UniformSamplePlan(size=250, seed=6)
        )
        log_delta = math.log2(metric.aspect_ratio())
        rows.append(
            (
                f"{side}x{side}",
                f"{stats.completion_rate:.0%}",
                stats.max_hops,
                f"{stats.mean_hops:.1f}",
                f"{log_delta ** 2:.0f}",
                stats.max_out_degree,
            )
        )
        assert stats.completion_rate == 1.0
        assert stats.max_hops <= 10 * log_delta**2
    workload = api.build_workload("grid-graph", n=64)
    graph, metric = workload.graph, workload.metric
    model = SingleLinkModel(metric, graph)
    contact_graph = model.sample_contacts(seed=1)
    from repro.smallworld import route_query

    benchmark(route_query, model, contact_graph, 0, graph.n - 1)
    record_table(
        "thm55_singlelink",
        "Theorem 5.5: one long-range link per node (unit grids)",
        ["grid", "completion", "max hops", "mean hops", "log^2 D", "out-degree"],
        rows,
        note="Hops stay within a small multiple of log^2 D, at out-degree <= 5.",
    )
