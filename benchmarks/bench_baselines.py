"""Experiment ``baselines`` — the paper's §1 comparison points, measured.

* **Thorup–Zwick** (2k−1)-approximate oracles [53]: the general-graph DLS
  the doubling-metric schemes of §3 improve on.  We compare label bits
  and worst-case estimate quality against Theorem 3.2's DLS and Theorem
  3.4 at matched workloads.
* **Lookahead (NoN) routing** [41]: the non-strongly-local algorithm
  family of §1's related work, vs the strongly local greedy on identical
  contact graphs — quantifying what the strongly-local restriction costs.
* **Kleinberg's exponent sweep** [30]: the r-sweep sanity anchor.
* **Lower-bound family** ([44]-style scale-coded metrics): measured label
  sizes against the embedded code entropy Ω(log n · log M).
"""

from __future__ import annotations

import math

import numpy as np

from benchmarks.conftest import record_table
from repro import api
from repro.engine import UniformSamplePlan
from repro.labeling import RingDLS, RingTriangulation, ThorupZwickOracle, TriangulationDLS
from repro.metrics import label_entropy_bits, scale_coded_metric
from repro.smallworld import (
    GreedyRingsModel,
    KleinbergGridModel,
    evaluate_model,
    route_query,
    route_query_lookahead,
)


def test_thorup_zwick_vs_ring_schemes(benchmark):
    workload = api.build_workload("hypercube", n=96, dim=2, seed=140)
    metric = workload.metric
    tri = RingTriangulation(metric, delta=0.4, scales=workload.scales(0.4))
    schemes = {
        "TZ k=2 (stretch<=3)": ThorupZwickOracle(metric, k=2, seed=0),
        "TZ k=3 (stretch<=5)": ThorupZwickOracle(metric, k=3, seed=0),
        "Thm 3.2 DLS (1.8-approx)": TriangulationDLS(tri),
        "Thm 3.4 (1.8-approx)": RingDLS(metric, delta=0.4, scales=tri.scales),
    }
    rows = []
    for name, scheme in schemes.items():
        worst = 1.0
        for u, v in metric.pairs():
            worst = max(worst, scheme.estimate(u, v) / metric.distance(u, v))
        rows.append((name, f"{scheme.max_label_bits():,}", f"{worst:.3f}"))
    benchmark(schemes["TZ k=2 (stretch<=3)"].estimate, 0, 95)
    record_table(
        "baseline_tz",
        "General-metric TZ oracles vs the doubling-aware schemes (hypercube n=96)",
        ["scheme", "max label bits", "worst est/d"],
        rows,
        note="TZ guarantees only (2k-1)-stretch; the doubling-aware schemes are "
        "(1+O(delta))-accurate on every pair — the §3 improvement the paper "
        "claims for low doubling dimension.",
    )
    by = dict((r[0], float(r[2])) for r in rows)
    assert by["Thm 3.2 DLS (1.8-approx)"] < by["TZ k=2 (stretch<=3)"] or by[
        "Thm 3.2 DLS (1.8-approx)"
    ] <= 1.9
    assert by["TZ k=2 (stretch<=3)"] <= 3.1
    assert by["TZ k=3 (stretch<=5)"] <= 5.1


def test_lookahead_vs_greedy(benchmark):
    metric = api.build_workload("expline", n=96, base=1.7).metric
    model = GreedyRingsModel(metric, c=0.5, alpha_factor=0.5)  # sparse contacts
    graph = model.sample_contacts(seed=1)
    pairs = [(s, t) for s in range(0, 96, 5) for t in range(2, 96, 9) if s != t]

    def run_greedy():
        return [route_query(model, graph, s, t) for s, t in pairs]

    greedy_results = run_greedy()
    lookahead_results = [route_query_lookahead(model, graph, s, t) for s, t in pairs]
    benchmark(route_query_lookahead, model, graph, 0, 95)

    def summarize(results):
        completed = [r for r in results if r.reached]
        return (
            f"{len(completed) / len(results):.1%}",
            max((r.hops for r in completed), default=0),
            f"{np.mean([r.hops for r in completed]):.2f}" if completed else "-",
        )

    rows = [
        ("greedy (strongly local)",) + summarize(greedy_results),
        ("lookahead / NoN [41]",) + summarize(lookahead_results),
    ]
    record_table(
        "baseline_lookahead",
        "Strongly local greedy vs lookahead on identical sparse contact graphs",
        ["algorithm", "completion", "max hops", "mean hops"],
        rows,
        note="Lookahead inspects contacts-of-contacts (not strongly local) and "
        "completes at least as many queries — the §1 related-work trade-off.",
    )
    assert float(rows[1][1].rstrip("%")) >= float(rows[0][1].rstrip("%")) - 1.0


def test_kleinberg_exponent_sweep(benchmark):
    rows = []
    for exponent in (0.0, 1.0, 2.0, 3.0, 4.0):
        model = KleinbergGridModel(14, exponent=exponent, q=1)
        stats = evaluate_model(
            model, model.sample_contacts(seed=2), UniformSamplePlan(size=250, seed=2)
        )
        rows.append(
            (exponent, f"{stats.completion_rate:.0%}", stats.max_hops,
             f"{stats.mean_hops:.1f}")
        )
    benchmark(lambda: KleinbergGridModel(8, exponent=2.0).sample_contacts(seed=0))
    record_table(
        "baseline_kleinberg",
        "Kleinberg grid [30]: greedy hops vs long-link exponent r (14x14)",
        ["exponent r", "completion", "max hops", "mean hops"],
        rows,
        note="r=2 is the navigable regime; r>=4 long links are too local to "
        "help (the visible side of the phase transition at laptop scale).",
    )
    by = {r[0]: float(r[3]) for r in rows}
    assert by[2.0] < by[4.0]


def test_lower_bound_family(benchmark):
    rows = []
    for m in (2, 4, 8):
        metric, code_bits = scale_coded_metric(depth=4, scales_per_level=m, seed=3)
        dls = RingDLS(metric, delta=0.3)
        entropy = label_entropy_bits(metric.n, m)
        rows.append(
            (
                m,
                f"{math.log2(metric.aspect_ratio()):.0f}",
                f"{entropy:.0f}",
                f"{dls.max_label_bits():,}",
                f"{dls.max_label_bits() / entropy:.0f}x",
            )
        )
        assert dls.max_label_bits() >= entropy
    benchmark(lambda: scale_coded_metric(depth=3, scales_per_level=2, seed=4))
    record_table(
        "baseline_lowerbound",
        "[44]-style scale-coded family: label bits vs embedded code entropy (n=16)",
        ["scales/level M", "log2 D", "entropy bits/label", "Thm 3.4 label bits", "ratio"],
        rows,
        note="Any accurate labeling must recover ~log2 n * log2 M bits; our "
        "labels always respect that floor.  Measured label bits *shrink* as M "
        "grows because wider scale separation sparsifies the rings — the "
        "entropy floor, not the total, is the lower bound's content.",
    )
