"""Named experiment suites: the paper's artifacts as declarative grids.

Each suite is a zero-argument factory returning the
:class:`~repro.experiments.spec.ExperimentSpec` that regenerates one
paper artifact (Tables 1–3, Figures 1–2, the stretch-vs-δ sweep, the
labeling bit counts, the §6 distributed measurements) plus a fast
``smoke`` suite CI runs on every push.  The pytest benches under
``benchmarks/`` are thin wrappers: they call
:func:`repro.experiments.run` on these specs and assert the paper's
shape claims over the returned rows, so the pytest tables, the CLI
(``repro run table1``) and any persisted artifact all come from one
code path.
"""

from __future__ import annotations

from repro.api.configs import PlanConfig
from repro.api.workloads import Workload
from repro.registry import Registry

from repro.experiments.spec import CellOverride, ExperimentSpec, SchemeSpec

__all__ = ["SUITES", "get_suite", "render_index", "suite_names"]

#: Registered suite factories, keyed by the names the CLI accepts.
SUITES = Registry("suite")


def get_suite(name: str) -> ExperimentSpec:
    """The spec for a registered suite name (KeyError lists the names)."""
    return SUITES.get(name).obj()


def suite_names() -> tuple:
    return SUITES.names()


@SUITES.register("smoke", summary="fast cross-family sanity grid (CI gate)")
def _smoke() -> ExperimentSpec:
    return ExperimentSpec.make(
        "smoke",
        description=(
            "One small hypercube instance across the problem families — "
            "estimation, labeling, routing — with a sampled plan; runs in "
            "seconds and exercises the whole build/evaluate/persist path."
        ),
        workloads=[Workload.make("hypercube", n=32, dim=2, seed=0)],
        schemes=[
            SchemeSpec.make("triangulation", delta=0.3),
            SchemeSpec.make("beacons", beacons=8),
            SchemeSpec.make("labels", delta=0.3),
            SchemeSpec.make("route-thm2.1", delta=0.3),
        ],
        plans=[PlanConfig(kind="uniform", pairs=100, seed=0)],
    )


@SUITES.register("serve-smoke",
                 summary="save→load→serve round-trip parity across schemes")
def _serve_smoke() -> ExperimentSpec:
    return ExperimentSpec.make(
        "serve-smoke",
        description=(
            "Every persistable scheme family built on one kNN graph, "
            "saved to a container file, reopened zero-copy and replayed: "
            "the serve-roundtrip probe asserts bit-for-bit parity and "
            "reports save/load timings plus the on-disk footprint."
        ),
        workloads=[Workload.make("knn-graph", n=32, k=4, seed=80)],
        schemes=[
            SchemeSpec.make("triangulation", delta=0.3),
            SchemeSpec.make("labels", delta=0.3),
            SchemeSpec.make("labels-tri", delta=0.3),
            SchemeSpec.make("tz-oracle", k=2),
            SchemeSpec.make("route-trivial"),
            SchemeSpec.make("route-thm2.1", delta=0.3),
        ],
        plans=[PlanConfig(kind="uniform", pairs=100, seed=0)],
        probes=["serve-roundtrip"],
    )


@SUITES.register("table1", summary="Table 1: (1+δ)-stretch routing on doubling graphs")
def _table1() -> ExperimentSpec:
    return ExperimentSpec.make(
        "table1",
        description=(
            "Theorem 2.1 / Theorem 4.1 vs the trivial scheme on kNN "
            "geometric graphs across n: delivery, stretch, table and "
            "header bits (Table 1's columns, concrete bit counts)."
        ),
        workloads=[
            Workload.make("knn-graph", n=n, k=4, seed=300 + n)
            for n in (48, 96, 160)
        ],
        schemes=[
            SchemeSpec.make("route-trivial", label="trivial", delta=0.25),
            SchemeSpec.make("route-thm2.1", label="thm2.1", delta=0.25),
            SchemeSpec.make("route-thm4.1", label="thm4.1", delta=0.25,
                            estimator="triangulation"),
        ],
        plans=[PlanConfig(kind="uniform", pairs=400, seed=1)],
    )


@SUITES.register("table2", summary="Table 2: (1+δ)-stretch routing on metrics")
def _table2() -> ExperimentSpec:
    return ExperimentSpec.make(
        "table2",
        description=(
            "§4.1 self-chosen overlays on a polynomial-aspect-ratio metric "
            "and the exponential line; out-degree joins table/header bits "
            "as a quality column (Table 2's setting)."
        ),
        workloads=[
            Workload.make("hypercube", n=96, dim=2, seed=41),
            Workload.make("expline", n=64),
        ],
        schemes=[
            SchemeSpec.make("route-thm2.1", label="thm2.1-overlay",
                            delta=0.25, overlay_style="net"),
            SchemeSpec.make("route-thm4.1", label="thm4.1-overlay",
                            delta=0.25, estimator="triangulation",
                            overlay_style="scale"),
            SchemeSpec.make("route-thm4.2", label="thm4.2-overlay",
                            delta=0.25, overlay_style="scale"),
        ],
        plans=[PlanConfig(kind="uniform", pairs=250, seed=2)],
        probes=["overlay-out-degree"],
    )


@SUITES.register("table3", summary="Table 3: Theorem 4.2 mode M1/M2 split")
def _table3() -> ExperimentSpec:
    return ExperimentSpec.make(
        "table3",
        description=(
            "Appendix B's storage decomposition of Theorem 4.2 by routing "
            "mode on a doubling graph and a gap graph (Lemma B.5's "
            "regime), plus how often packets actually switch to M2."
        ),
        workloads=[
            Workload.make("knn-graph", n=64, k=4, seed=50),
            Workload.make("gap-path", n=40),
        ],
        schemes=[SchemeSpec.make("route-thm4.2", label="thm4.2", delta=0.2)],
        plans=[PlanConfig(kind="uniform", pairs=250, seed=3)],
        probes=["twomode-split"],
    )


@SUITES.register("fig1", summary="Figure 1: the idea-flow arrows, executed")
def _fig1() -> ExperimentSpec:
    return ExperimentSpec.make(
        "fig1",
        description=(
            "Every Figure 1 arrow realized on one shared workload: the "
            "rings structure feeds Thm 3.2/3.4 estimation, Thm 2.1/4.1/"
            "4.2 routing and the Thm 5.2 small worlds; each cell's "
            "metrics are the evidence the arrow's artifact is consumable."
        ),
        workloads=[Workload.make("knn-graph", n=40, k=4, seed=60)],
        schemes=[
            SchemeSpec.make("triangulation", label="thm3.2", delta=0.3),
            SchemeSpec.make("labels", label="thm3.4", delta=0.3),
            SchemeSpec.make("route-thm2.1", label="thm2.1", delta=0.3),
            SchemeSpec.make("route-thm4.1", label="thm4.1", delta=0.3,
                            estimator="triangulation"),
            SchemeSpec.make("route-thm4.2", label="thm4.2", delta=0.3),
            SchemeSpec.make("sw-5.2a", label="thm5.2a", c=2.0),
            SchemeSpec.make("sw-5.2b", label="thm5.2b", c=2.0),
        ],
        plans=[PlanConfig(kind="uniform", pairs=200, seed=0)],
    )


@SUITES.register("fig2", summary="Figure 2: host-enumeration translation triangles")
def _fig2() -> ExperimentSpec:
    return ExperimentSpec.make(
        "fig2",
        description=(
            "The (u, f, w) translation triangle of Theorem 2.1, audited "
            "exhaustively over a built instance: ζ must return exactly "
            "w's index for every in-ring triangle and null outside."
        ),
        workloads=[Workload.make("knn-graph", n=56, k=4, seed=70)],
        schemes=[SchemeSpec.make("route-thm2.1", label="thm2.1", delta=0.3)],
        plans=[PlanConfig(kind="uniform", pairs=100, seed=0)],
        probes=["translation-triangles"],
    )


@SUITES.register("stretch", summary="Claim 2.5: stretch vs δ for Theorem 2.1")
def _stretch() -> ExperimentSpec:
    deltas = (0.45, 0.3, 0.2, 0.1, 0.05)
    return ExperimentSpec.make(
        "stretch",
        description=(
            "δ sweep of the Theorem 2.1 scheme on one kNN graph: measured "
            "max/mean stretch tracks 1+O(δ) while the ring cardinality "
            "K = (16/δ)^α and table bits grow — the paper's trade-off."
        ),
        workloads=[Workload.make("knn-graph", n=96, k=4, seed=80)],
        schemes=[
            SchemeSpec.make("route-thm2.1", label=f"delta={d}", delta=d)
            for d in deltas
        ],
        plans=[PlanConfig(kind="uniform", pairs=400, seed=4)],
        probes=["ring-cardinality"],
    )


@SUITES.register("dls", summary="Theorem 3.4 vs 3.2-derived label bit counts")
def _dls() -> ExperimentSpec:
    return ExperimentSpec.make(
        "dls",
        description=(
            "Id-free Theorem 3.4 labels vs the Theorem-3.2-derived "
            "Mendel–Har-Peled labels on the exponential line (log Δ = "
            "Θ(n)): label bits and worst-pair accuracy over all pairs."
        ),
        workloads=[
            Workload.make("expline", n=n, base=1.8) for n in (32, 64, 128)
        ],
        schemes=[
            SchemeSpec.make("labels-tri", label="thm3.2+ids", delta=0.4),
            SchemeSpec.make("labels", label="thm3.4-id-free", delta=0.4),
        ],
        plans=[PlanConfig(kind="all-pairs")],
        probes=["label-bits"],
    )


@SUITES.register("distributed", summary="§6: distributed construction and the gap")
def _distributed() -> ExperimentSpec:
    return ExperimentSpec.make(
        "distributed",
        description=(
            "The §6 gap, operationalized: distributed r-net cost and "
            "gossip ring coverage on a hypercube metric, and Meridian "
            "search quality under churn (with and without repair probes) "
            "on an internet-like metric."
        ),
        workloads=[
            Workload.make("internet", n=72, seed=132),
            Workload.make("hypercube", n=64, dim=2, seed=130),
        ],
        schemes=[SchemeSpec.make("meridian")],
        plans=[PlanConfig(kind="uniform", pairs=80, seed=0)],
        overrides=[
            CellOverride(workload="internet",
                         probes=("churn-no-repair", "churn-repair")),
            CellOverride(workload="hypercube",
                         probes=("distributed-net", "gossip-gap")),
        ],
    )


@SUITES.register("netsim", summary="§6 under degradation: event-simulator "
                                   "scenario sweep with Byzantine audits")
def _netsim() -> ExperimentSpec:
    return ExperimentSpec.make(
        "netsim",
        description=(
            "The §6 protocols re-run on the event-driven simulator "
            "(repro.netsim) under five network scenarios — ideal (the "
            "bit-for-bit parity baseline), lossy links, a transient "
            "partition, a mixed Byzantine population and crash/restart "
            "churn.  Each scenario probe reports gossip convergence "
            "wall-clock, delivery rate, ring coverage, r-net validity, "
            "suffix-walk audit detection/false-positive rates and "
            "ring-table estimate quality scored against the fitted "
            "scheme's certified (stretch, δ) guarantee."
        ),
        workloads=[Workload.make("hypercube", n=48, dim=2, seed=140)],
        schemes=[SchemeSpec.make("triangulation", delta=0.25)],
        plans=[PlanConfig(kind="uniform", pairs=80, seed=0)],
        probes=[
            "netsim-ideal",
            "netsim-lossy",
            "netsim-partition",
            "netsim-byzantine",
            "netsim-crash-churn",
        ],
    )


@SUITES.register("netsim-smoke", summary="fast netsim gate: ideal-scenario "
                                         "health + Byzantine detection")
def _netsim_smoke() -> ExperimentSpec:
    return ExperimentSpec.make(
        "netsim-smoke",
        description=(
            "The per-PR netsim gate: one small hypercube instance under "
            "the ideal and byzantine scenarios — enough to exercise the "
            "event engine, the round adapter, fault injection and the "
            "ring audit on every push; the full five-scenario sweep runs "
            "nightly as `netsim`."
        ),
        workloads=[Workload.make("hypercube", n=32, dim=2, seed=140)],
        schemes=[SchemeSpec.make("triangulation", delta=0.25)],
        plans=[PlanConfig(kind="uniform", pairs=60, seed=0)],
        probes=["netsim-ideal", "netsim-byzantine"],
    )


@SUITES.register("churn-stream",
                 summary="streaming membership churn through mutable "
                         "schemes: quality, IVL bounds, amortized cost")
def _churn_stream_suite() -> ExperimentSpec:
    return ExperimentSpec.make(
        "churn-stream",
        description=(
            "A seeded ChurnTrace streamed through every update-capable "
            "scheme on the patch-buffered update path: estimate quality "
            "sampled at checkpoints mid-patch, IVL-bound check and "
            "violation counts (the guarantee is zero violations), merge "
            "cadence, amortized per-update cost against a timed "
            "scrub-and-rebuild reference, and bit-for-bit parity of the "
            "compacted structure against a fresh build bulk-updated to "
            "the same final active set.  Covers a euclidean metric and a "
            "lazy-backend graph metric; the routing scheme streams a "
            "shorter trace (its per-update label re-encode is the "
            "heaviest maintenance step)."
        ),
        workloads=[
            Workload.make("hypercube", n=400, dim=2, seed=210),
            Workload.make("knn-graph", n=160, k=4, seed=211, dense=False),
        ],
        schemes=[
            SchemeSpec.make("triangulation", delta=0.3),
            SchemeSpec.make("beacons", beacons=16),
            SchemeSpec.make("route-thm2.1", delta=0.3),
        ],
        plans=[PlanConfig(kind="uniform", pairs=200, seed=7)],
        probes=["churn-stream"],
        overrides=[
            # metric workloads route over a §4.1 overlay, which has no
            # incremental path — the graph cell is the mutable one
            CellOverride(workload="hypercube", scheme="route-thm2.1",
                         skip=True),
            CellOverride(workload="knn-graph", scheme="route-thm2.1",
                         probes=("churn-stream-lite",)),
        ],
    )


@SUITES.register("churn-stream-smoke",
                 summary="fast churn-stream gate: short traces through all "
                         "three mutable schemes (per-PR CI)")
def _churn_stream_smoke() -> ExperimentSpec:
    return ExperimentSpec.make(
        "churn-stream-smoke",
        description=(
            "The per-PR streaming-churn gate: a 16-event trace through "
            "the three update-capable schemes on small instances — "
            "enough to exercise patch application, IVL-checked reads, "
            "auto-merge, compaction parity and the rebuild-reference "
            "timing on every push; the full traces run nightly as "
            "`churn-stream`."
        ),
        workloads=[
            Workload.make("hypercube", n=64, dim=2, seed=210),
            Workload.make("knn-graph", n=48, k=4, seed=211),
        ],
        schemes=[
            SchemeSpec.make("triangulation", delta=0.3),
            SchemeSpec.make("beacons", beacons=12),
            SchemeSpec.make("route-thm2.1", delta=0.3),
        ],
        plans=[PlanConfig(kind="uniform", pairs=80, seed=7)],
        probes=["churn-stream-lite"],
        overrides=[
            CellOverride(workload="hypercube", scheme="route-thm2.1",
                         skip=True),
        ],
    )


# ----------------------------------------------------------------------
# Large-scale suites (n = 10⁴): the schemes whose evaluation is fully
# vectorized and whose structures stay o(n²).  Graph workloads select the
# lazy shortest-path backend (dense=False) so nothing Θ(n²) is ever
# allocated; net construction runs on the batched scan.
# ----------------------------------------------------------------------


@SUITES.register("table1-large",
                 summary="Table 1 at n=10⁴: packed Thm 2.1 rings, lazy graph "
                         "backend, matrix-free baseline, batched nets")
def _table1_large() -> ExperimentSpec:
    return ExperimentSpec.make(
        "table1-large",
        description=(
            "The Table 1 setting pushed to n = 10⁴ on a kNN doubling "
            "graph with the lazy (dense=False) shortest-path backend: the "
            "stretch-1 baseline routes on lazy target-keyed first hops, "
            "the beacon triangulation supplies the estimation columns, "
            "the net-hierarchy probe builds the full nested 2^j-net "
            "stack through the sharded scan — and the paper's own "
            "Theorem 2.1 scheme runs on the packed CSR ring backend "
            "(derived ζ, no Θ(n·K²) Python tables), so no Θ(n²) "
            "allocation anywhere."
        ),
        workloads=[
            Workload.make("knn-graph", n=10_000, k=4, seed=310, dense=False)
        ],
        schemes=[
            SchemeSpec.make("route-trivial", label="trivial"),
            SchemeSpec.make("route-thm2.1", label="thm2.1", delta=0.45),
            SchemeSpec.make("beacons", label="beacons-64", beacons=64),
        ],
        plans=[PlanConfig(kind="uniform", pairs=300, seed=1)],
        overrides=[
            CellOverride(scheme="trivial", probes=("net-hierarchy",)),
            CellOverride(scheme="thm2.1", probes=("ring-cardinality",)),
        ],
    )


@SUITES.register("stretch-large",
                 summary="estimation stretch vs beacon order at n=10⁴, "
                         "mean±CI over 5 seeds")
def _stretch_large() -> ExperimentSpec:
    return ExperimentSpec.make(
        "stretch-large",
        description=(
            "The (ε,δ) trade-off Theorem 3.2 removes, measured at scale: "
            "distance-estimate stretch of the common-beacon baseline as "
            "the order grows, on 10⁴-point euclidean and clustered "
            "metrics, five beacon draws per cell — report with "
            "rows(..., over_seeds='mean') for mean ± CI columns."
        ),
        workloads=[
            Workload.make("hypercube", n=10_000, dim=2, seed=91),
            Workload.make("clustered", n=10_000, clusters=32, dim=3, seed=92),
        ],
        schemes=[
            SchemeSpec.make("beacons", label=f"order-{k}", beacons=k)
            for k in (16, 64, 256)
        ],
        plans=[PlanConfig(kind="uniform", pairs=2000, seed=5)],
        seeds=(0, 1, 2, 3, 4),
    )


@SUITES.register("dls-large",
                 summary="distance-labeling bits vs accuracy at scale, "
                         "including the paper's own packed-label schemes")
def _dls_large() -> ExperimentSpec:
    return ExperimentSpec.make(
        "dls-large",
        description=(
            "The labeling story at scale, on a ladder of hypercube sizes "
            "(n = 10⁴ / 2000 / 500): Thorup–Zwick k=2 bunches (3-stretch "
            "worst case) and common-beacon labels at every scale, plus "
            "the paper's own schemes on the packed CSR label backend at "
            "the largest size their *construction constants* allow — the "
            "Theorem 3.2-derived Mendel–Har-Peled labels (labels-tri, "
            "n = 2000; order grows ~linearly at δ=0.45 so n = 10⁴ label "
            "mass would be Θ(n²)) and the id-free Theorem 3.4 labels "
            "(n = 500; ζ/virtual-enumeration build is ~n^3.8).  Label "
            "bits (size_bits) vs measured relative error on a sampled "
            "plan; skip-overrides keep the heavy cells off the larger "
            "rungs."
        ),
        workloads=[
            Workload.make("hypercube", n=10_000, dim=2, seed=93),
            Workload.make("hypercube", n=2000, dim=2, seed=93),
            Workload.make("hypercube", n=500, dim=2, seed=93),
        ],
        schemes=[
            SchemeSpec.make("tz-oracle", label="tz-k2", k=2),
            SchemeSpec.make("beacons", label="beacons-14", beacons=14),
            SchemeSpec.make("beacons", label="beacons-64", beacons=64),
            SchemeSpec.make("labels-tri", label="thm3.2+ids", delta=0.45),
            SchemeSpec.make("labels", label="thm3.4-id-free", delta=0.45),
        ],
        plans=[PlanConfig(kind="uniform", pairs=2000, seed=6)],
        overrides=[
            CellOverride(scheme="thm3.2+ids", probes=("label-bits",)),
            CellOverride(scheme="thm3.4-id-free", probes=("label-bits",)),
            CellOverride(workload="hypercube(n=10000)",
                         scheme="thm3.2+ids", skip=True),
            CellOverride(workload="hypercube(n=500)",
                         scheme="thm3.2+ids", skip=True),
            CellOverride(workload="hypercube(n=10000)",
                         scheme="thm3.4-id-free", skip=True),
            CellOverride(workload="hypercube(n=2000)",
                         scheme="thm3.4-id-free", skip=True),
        ],
    )


def render_index() -> str:
    """The EXPERIMENTS.md index, regenerated from the registered suites."""
    lines = [
        "# Experiment index",
        "",
        "Generated from the named suites in `repro.experiments.suites` —",
        "regenerate with `python -m repro suites --write-index EXPERIMENTS.md`.",
        "",
        "Run any suite with `repro run <name>` (results persist to",
        "`benchmarks/results/<name>.resultset.json`); the pytest benches in",
        "`benchmarks/` run the same specs and assert the paper's claims on",
        "the returned rows.",
        "",
        "| suite | cells | workloads | schemes | summary |",
        "|---|---|---|---|---|",
    ]
    for name, entry in SUITES.items():
        spec = entry.obj()
        workloads = ", ".join(
            sorted({f"{w.name}(n={w.n})" for w in spec.workloads})
        )
        schemes = ", ".join(dict.fromkeys(s.display for s in spec.schemes))
        lines.append(
            f"| `{name}` | {len(spec.cells())} | {workloads} | "
            f"{schemes} | {entry.summary} |"
        )
    lines.append("")
    for name, entry in SUITES.items():
        spec = entry.obj()
        lines.append(f"## `{name}`")
        lines.append("")
        lines.append(spec.description or entry.summary)
        lines.append("")
    return "\n".join(lines)
