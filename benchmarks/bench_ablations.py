"""Experiment ``ablations`` — five design choices, each against its alternative.

1. **X+Y vs X-only vs Y-only rings** (Thm 5.2a): property (*) needs both
   families — X alone loses the long-range jumps, Y alone loses the
   cardinality-scale landing.
2. **Doubling measure vs counting measure** for Y-ring sampling: on the
   exponential line the counting measure undersamples sparse regions.
3. **Non-greedy step (**)** (Thm 5.2b): disabling it on a gap metric
   strands queries whose neighborhoods are "bad".
4. **Strict vs behavioral goodness** (Thm 4.2): the literal Appendix-B
   constants push (almost) every packet to mode M2.
5. **Y-ball factor** (Thm 3.2): the paper's constant 12/δ vs smaller
   factors — order shrinks long before the (0,δ) guarantee breaks.
"""

from __future__ import annotations



from benchmarks.conftest import record_table
from repro import api
from repro.labeling import RingTriangulation
from repro.labeling._scales import ScaleStructure
from repro.metrics.measure import counting_measure, doubling_measure
from repro.routing import TwoModeRouting, evaluate_scheme
from repro.smallworld import GreedyRingsModel, PrunedRingsModel, evaluate_model
from repro.smallworld.base import ContactGraph
from repro.rng import ensure_rng


class _RingSubsetModel(GreedyRingsModel):
    """Theorem 5.2(a) with one ring family disabled."""

    def __init__(self, metric, families: str, **kwargs) -> None:
        super().__init__(metric, **kwargs)
        self.families = families

    def sample_contacts(self, seed=None) -> ContactGraph:
        import numpy as np

        rng = ensure_rng(seed)
        metric = self.metric
        contacts = []
        for u in range(metric.n):
            chosen: set[int] = set()
            row = metric.distances_from(u)
            if "x" in self.families:
                for i in range(self._levels_n):
                    members = np.flatnonzero(row <= metric.rui(u, i))
                    picks = rng.choice(members, size=self.x_samples, replace=True)
                    chosen.update(int(x) for x in picks)
            if "y" in self.families:
                for j in range(self._levels_d):
                    picks = self.mu.sample_from_ball(
                        u, self._base * 2.0**j, self.y_samples, rng
                    )
                    chosen.update(int(x) for x in picks)
            chosen.discard(u)
            contacts.append(tuple(sorted(chosen)))
        return ContactGraph(contacts=contacts)


def test_ring_family_ablation(benchmark):
    workload = api.build_workload("expline", n=128, base=1.7)
    metric, mu = workload.metric, workload.measure()
    rows = []
    for families, label in (("xy", "X+Y (paper)"), ("x", "X only"), ("y", "Y only")):
        model = _RingSubsetModel(metric, families, c=1.5, mu=mu)
        stats = evaluate_model(model, sample_queries=250, seed=8)
        rows.append(
            (label, f"{stats.completion_rate:.1%}", stats.max_hops,
             f"{stats.mean_hops:.1f}", stats.max_out_degree)
        )
    benchmark(lambda: _RingSubsetModel(metric, "xy", c=1.5, mu=mu).x_samples)
    record_table(
        "ablation_ring_families",
        "Ablation: ring families in Theorem 5.2(a) (exponential line, n=128)",
        ["rings", "completion", "max hops", "mean hops", "degree"],
        rows,
        note="Property (*) needs both families: each alone either stalls or "
        "needs more hops.",
    )
    full = rows[0]
    assert float(full[1].rstrip("%")) == 100.0


def test_measure_ablation(benchmark):
    """Doubling vs counting measure for Y-ring sampling (§5: 'we need to
    oversample nodes that lie in very sparse neighborhoods')."""
    workload = api.build_workload("expline", n=128, base=1.7)
    metric = workload.metric
    rows = []
    results = {}
    for name, mu in (
        ("doubling measure", workload.measure()),
        ("counting measure", counting_measure(metric)),
    ):
        model = GreedyRingsModel(metric, c=1.5, mu=mu)
        stats = evaluate_model(model, sample_queries=250, seed=9)
        results[name] = stats
        rows.append(
            (name, f"{stats.completion_rate:.1%}", stats.max_hops,
             f"{stats.mean_hops:.2f}")
        )
    benchmark(lambda: doubling_measure(metric).weights.sum())
    record_table(
        "ablation_measure",
        "Ablation: Y-ring sampling measure (exponential line, n=128)",
        ["measure", "completion", "max hops", "mean hops"],
        rows,
        note="The doubling measure oversamples sparse regions; the counting "
        "measure concentrates samples at the dense end of the line.",
    )
    assert results["doubling measure"].completion_rate == 1.0


def test_nongreedy_step_ablation(benchmark):
    """Theorem 5.2(b) with step (**) replaced by plain greedy."""
    workload = api.build_workload("expline", n=128, base=1.7)
    metric, mu = workload.metric, workload.measure()

    class GreedyOnlyPruned(PrunedRingsModel):
        def next_hop(self, u, d_ut, contacts, d_uc, d_ct):
            import numpy as np

            if len(contacts) == 0:
                return None
            k = int(np.argmin(d_ct))
            return contacts[k] if d_ct[k] < d_ut else None

    rows = []
    results = {}
    for name, model in (
        ("with step (**)", PrunedRingsModel(metric, c=1.5, mu=mu)),
        ("greedy only", GreedyOnlyPruned(metric, c=1.5, mu=mu)),
    ):
        stats = evaluate_model(model, sample_queries=250, seed=10)
        results[name] = stats
        rows.append(
            (name, f"{stats.completion_rate:.1%}", stats.max_hops,
             f"{stats.mean_hops:.2f}")
        )
    benchmark(lambda: PrunedRingsModel(metric, c=1.5, mu=mu).x_param)
    record_table(
        "ablation_nongreedy",
        "Ablation: Theorem 5.2(b)'s non-greedy step (**) (exponential line)",
        ["routing", "completion", "max hops", "mean hops"],
        rows,
        note="With pruned rings, pure greedy can stall in 'bad' neighborhoods; "
        "the sideways step recovers them.",
    )
    assert (
        results["with step (**)"].completion_rate
        >= results["greedy only"].completion_rate
    )


def test_goodness_ablation(benchmark):
    """Strict Appendix-B constants vs the behavioral condition."""
    workload = api.build_workload("knn-graph", n=56, k=4, seed=120)
    graph, metric = workload.graph, workload.metric
    rows = []
    for name, strict in (("behavioral (default)", False), ("strict App-B", True)):
        scheme = TwoModeRouting(graph, delta=0.2, metric=metric, strict_goodness=strict)
        stats = evaluate_scheme(scheme, metric.matrix, sample_pairs=200, seed=11)
        switches = sum(
            scheme.route(u, v).mode_switches
            for u in range(0, 56, 8)
            for v in range(56)
            if u != v
        )
        rows.append(
            (name, f"{stats.delivery_rate:.0%}", f"{stats.max_stretch:.3f}", switches)
        )
        assert stats.delivery_rate == 1.0
    scheme = TwoModeRouting(graph, delta=0.2, metric=metric)
    benchmark(scheme.route, 0, 55)
    record_table(
        "ablation_goodness",
        "Ablation: Theorem 4.2 goodness conditions (kNN graph, n=56)",
        ["goodness", "delivery", "max stretch", "M2 switches (7x55 pairs)"],
        rows,
        note="The literal (c4)-(c5) constants almost never admit a good node at "
        "laptop n, so nearly every packet pays the M2 detour; the behavioral "
        "condition keeps M1 in play (an honest finding about the constants).",
    )


def test_y_ball_factor_ablation(benchmark):
    """Theorem 3.2's Y-ball constant 12/δ vs smaller factors."""
    metric = api.build_workload("expline", n=96, base=1.6).metric
    rows = []
    for factor in (12.0, 6.0, 3.0, 1.5):
        scales = ScaleStructure(metric, delta=0.4, y_ball_factor=factor)
        tri = RingTriangulation(metric, delta=0.4, scales=scales)
        missing = sum(
            1 for u, v in metric.pairs() if not tri.has_close_common_beacon(u, v)
        )
        rows.append((factor, tri.order, missing, f"{tri.worst_ratio():.3f}"))
    benchmark(lambda: ScaleStructure(metric, delta=0.4, y_ball_factor=3.0).levels_n)
    record_table(
        "ablation_y_ball_factor",
        "Ablation: Theorem 3.2 Y-ball constant (exponential line, n=96, delta=0.4)",
        ["ball factor", "order", "pairs missing close beacon", "worst D+/D-"],
        rows,
        note="The paper's constant 12 is conservative: the order drops with the "
        "factor while the all-pairs guarantee only starts failing at small "
        "factors.",
    )
    paper_row = rows[0]
    assert paper_row[2] == 0  # the paper's constant certifies everything
