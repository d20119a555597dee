"""Experiment ``thm54-structures`` — Theorem 5.4: rings ≈ STRUCTURES.

On UL-constrained metrics the paper's ring models share STRUCTURES'
defining properties: (a) O(log n)-hop queries, (b) greedy routing (the
5.2(b) non-greedy step never fires), (c) Θ(log² n) degree, and (d)
``Pr[v is a contact of u] = Θ(log n)/x_uv``.  All four are measured on
the uniform line.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from benchmarks.conftest import record_table
from repro import api
from repro.engine import UniformSamplePlan
from repro.smallworld import (
    GreedyRingsModel,
    GroupStructuresModel,
    PrunedRingsModel,
    evaluate_model,
)


@pytest.fixture(scope="module")
def metric():
    return api.build_workload("uline", n=128).metric


def test_properties_a_b_c(benchmark, metric):
    models = {
        "STRUCTURES": GroupStructuresModel(metric),
        "Thm 5.2(a)": GreedyRingsModel(metric, c=2),
        "Thm 5.2(b)": PrunedRingsModel(metric, c=2),
    }
    rows = []
    for name, model in models.items():
        stats = evaluate_model(
            model, model.sample_contacts(seed=7), UniformSamplePlan(size=300, seed=7)
        )
        rows.append(
            (
                name,
                f"{stats.completion_rate:.1%}",
                stats.max_hops,
                f"{stats.mean_hops:.1f}",
                f"{stats.mean_out_degree:.0f}",
            )
        )
        assert stats.completion_rate >= 0.98
        assert stats.max_hops <= 4 * math.log2(metric.n)
    benchmark(models["STRUCTURES"].contact_probabilities, 0)
    record_table(
        "thm54_properties",
        "Theorem 5.4(a-c): ring models vs STRUCTURES on a UL-constrained metric (n=128)",
        ["model", "completion", "max hops", "mean hops", "mean degree"],
        rows,
        note="All complete in O(log n) hops; log2^2 n = "
        f"{math.log2(metric.n) ** 2:.0f} is the STRUCTURES degree scale.",
    )


def test_property_d_contact_probability(benchmark, metric):
    """Pr[v contact of u] * x_uv flat in Θ(log n) across distance scales."""
    model = GreedyRingsModel(metric, c=2)
    u = metric.n // 2
    trials = 60

    def measure():
        counts = np.zeros(metric.n)
        for s in range(trials):
            graph = model.sample_contacts(seed=2000 + s)
            for v in graph.contacts[u]:
                counts[v] += 1
        return counts / trials

    probs = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = []
    products = []
    row_u = metric.distances_from(u)
    for v in (u + 1, u + 4, u + 16, u + 60):
        d = float(row_u[v])
        x_uv = min(metric.ball_size(u, d), metric.ball_size(v, d))
        product = max(probs[v], 1.0 / trials) * x_uv
        products.append(product)
        rows.append((v, f"{d:.0f}", x_uv, f"{probs[v]:.3f}", f"{product:.2f}"))
    record_table(
        "thm54_contact_prob",
        "Theorem 5.4(d): Pr[v contact of u] * x_uv across distance scales (u=64)",
        ["v", "d(u,v)", "x_uv", "Pr[contact]", "Pr * x_uv"],
        rows,
        note="The product stays within a constant factor of Theta(log n) = "
        f"{math.log2(metric.n):.1f} across scales, matching pi_u(v) ~ 1/x_uv.",
    )
    assert max(products) / min(products) <= 40.0
