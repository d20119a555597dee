"""Registered cell probes: named extra measurements beyond the plan.

A probe is a callable ``probe(fitted: FittedScheme) -> dict`` registered
under a short stable name, so an :class:`~repro.experiments.spec.Cell`
can request scheme-specific measurements (overlay out-degree, the
Table 3 mode split, Figure 2's translation-triangle audit, §6 churn
runs) while the spec stays a plain JSON document — the probe *name* is
declarative, the code lives here.

Probes run after the plan evaluation; their outputs land in
:attr:`CellResult.probes` and win over plan metrics in
:meth:`CellResult.metric` lookups.
"""

from __future__ import annotations

import math
from typing import Any, Dict

from repro.registry import Registry

__all__ = ["PROBES", "register_probe", "run_probes"]

#: Registered probe callables, keyed by the names specs reference.
PROBES = Registry("probe")


def register_probe(name: str, **meta: Any):
    """Decorator: register a ``probe(fitted) -> dict`` under ``name``."""
    return PROBES.register(name, **meta)


def run_probes(fitted, names) -> Dict[str, Any]:
    """Run each named probe on a fitted scheme, merging the outputs."""
    out: Dict[str, Any] = {}
    for name in names:
        out.update(PROBES.get(name).obj(fitted))
    return out


@register_probe("overlay-out-degree",
                summary="max overlay out-degree of a §4.1 metric routing scheme")
def _overlay_out_degree(fitted) -> Dict[str, Any]:
    return {"out_degree": int(fitted.inner.out_degree())}


@register_probe("net-hierarchy",
                summary="nested 2^j-net sizes + build cost on the cell's workload")
def _net_hierarchy(fitted) -> Dict[str, Any]:
    """Builds the workload's shared nested-net hierarchy and reports per-
    level sizes (Lemma 1.4's packing in action), wall-clock, and — on the
    lazy graph backend — the row cache's peak residency, evidencing that
    construction at n = 10⁴ never pinned a Θ(n²) matrix."""
    import time

    workload = fitted.workload
    t0 = time.perf_counter()
    nets = workload.nested_nets()
    build_s = time.perf_counter() - t0
    sizes = [len(nets.net(j)) for j in range(nets.levels)]
    out: Dict[str, Any] = {
        "net_levels": int(nets.levels),
        "net_sizes": sizes,
        "net_points_total": int(sum(sizes)),
        "net_build_s": round(build_s, 6),
    }
    stats = getattr(workload.metric, "row_cache_stats", lambda: {})()
    if stats:
        out["row_cache_peak_rows"] = int(stats["peak_rows"])
        out["row_cache_peak_bytes"] = int(stats["peak_bytes"])
    return out


@register_probe("ring-cardinality",
                summary="Theorem 2.1 max ring cardinality K = (16/δ)^α")
def _ring_cardinality(fitted) -> Dict[str, Any]:
    return {"max_ring_cardinality": int(fitted.inner.max_ring_cardinality())}


@register_probe("label-bits",
                summary="max per-node label bits of a distance labeling scheme")
def _label_bits(fitted) -> Dict[str, Any]:
    return {"max_label_bits": int(fitted.inner.max_label_bits())}


@register_probe("twomode-split",
                summary="Table 3 mode M1/M2 storage + header split and switch rate")
def _twomode_split(fitted) -> Dict[str, Any]:
    scheme = fitted.inner
    n = scheme.graph.n
    m1 = m2 = 0
    for u in range(n):
        account = scheme.table_bits(u)
        m1 = max(m1, sum(b for k, b in account.components.items()
                         if k.startswith("m1_")))
        m2 = max(m2, sum(b for k, b in account.components.items()
                         if k.startswith("m2_")))
    switches = 0
    total_pairs = 0
    for u in range(0, n, max(1, n // 8)):
        for v in range(n):
            if u != v:
                switches += scheme.route(u, v).mode_switches
                total_pairs += 1
    return {
        "m1_table_bits": m1,
        "m2_table_bits": m2,
        "m1_header_bits": int(scheme._header_bits_m1(scheme.labels[0])),
        "m2_header_bits": int(scheme._header_bits_m2()),
        "m2_switches": switches,
        "switch_pairs": total_pairs,
    }


@register_probe("translation-triangles",
                summary="Figure 2: exhaustive ζ translation-triangle audit")
def _translation_triangles(fitted) -> Dict[str, Any]:
    """Audits the packed scheme's derived ζ (binary search over the CSR
    host enumerations) against an independently-built dict of positions,
    for every (u, f, w) triangle."""
    scheme = fitted.inner
    checked = nulls = violations = 0
    for u in range(scheme.graph.n):
        for j in range(scheme.levels - 1):
            ring_u_next = {w: k for k, w in enumerate(scheme.ring(u, j + 1))}
            for fi, f in enumerate(scheme.ring(u, j)):
                for wi, w in enumerate(scheme.ring(f, j + 1)):
                    got = scheme.zeta_lookup(u, j, fi, wi)
                    expected = ring_u_next.get(w)
                    if got != expected:
                        violations += 1
                    checked += 1
                    if expected is None:
                        nulls += 1
    # One worked example for the regenerated figure caption.
    example = ""
    for u in range(scheme.graph.n):
        done = False
        for j in range(scheme.levels - 1):
            first = (
                next(scheme.zeta_items(u, j), None)
                if len(scheme.ring(u, j)) > 1
                else None
            )
            if first is not None:
                (fi, wi), result = first
                f = scheme.ring(u, j)[fi]
                w = scheme.ring(f, j + 1)[wi]
                example = (
                    f"example triangle: u={u}, f=ring_{u},{j}[{fi}]={f}, "
                    f"w=ring_{f},{j + 1}[{wi}]={w}  =>  zeta_u{j}({fi},{wi}) "
                    f"= {result} = position of {w} in ring_{u},{j + 1}"
                )
                done = True
                break
        if done:
            break
    return {
        "triangles_checked": checked,
        "null_entries": nulls,
        "violations": violations,
        "example": example,
    }


def _churn(fitted, repair_probes: int, prefix: str) -> Dict[str, Any]:
    from repro.distributed import ChurnSimulation

    sim = ChurnSimulation(
        fitted.workload.metric,
        fitted.inner,
        churn_rate=0.15,
        repair_probes=repair_probes,
        seed=6,
    )
    reports = sim.run(4, quality_queries=60)
    first, last = reports[0], reports[-1]
    return {
        f"{prefix}_first_mean_approximation": float(first.mean_approximation),
        f"{prefix}_last_mean_approximation": float(last.mean_approximation),
        f"{prefix}_first_exact_rate": float(first.exact_rate),
        f"{prefix}_last_exact_rate": float(last.exact_rate),
        f"{prefix}_last_ring_members": float(last.mean_ring_members),
    }


@register_probe("churn-no-repair",
                summary="§6 Meridian quality decay under churn, no maintenance")
def _churn_no_repair(fitted) -> Dict[str, Any]:
    return _churn(fitted, repair_probes=0, prefix="no_repair")


@register_probe("churn-repair",
                summary="§6 Meridian quality under churn with repair probes")
def _churn_repair(fitted) -> Dict[str, Any]:
    return _churn(fitted, repair_probes=6, prefix="repair")


@register_probe("distributed-net",
                summary="§6 distributed r-net construction cost and validity")
def _distributed_net(fitted) -> Dict[str, Any]:
    from repro.distributed import DistributedNetProtocol
    from repro.metrics.nets import greedy_net, is_r_net
    from repro.netsim import EventNetwork, RoundAdapter

    metric = fitted.workload.metric
    proto = DistributedNetProtocol(r=0.2)
    adapter = RoundAdapter(EventNetwork(metric, seed=1), proto, max_rounds=100)
    stats = adapter.run()
    members = proto.net_members(adapter.ctx)
    return {
        "net_rounds": int(stats.rounds),
        "net_messages": int(stats.messages),
        "net_probes": int(stats.probes),
        "net_size": len(members),
        "net_central_size": len(greedy_net(metric, 0.2)),
        "net_valid": bool(is_r_net(metric, members, 0.2)),
        "net_converged": bool(stats.converged),
        "net_round_bound": float(4 * math.log2(metric.n)),
    }


@register_probe("gossip-gap",
                summary="§6 gossip ring coverage/recall vs the exact rings")
def _gossip_gap(fitted) -> Dict[str, Any]:
    from repro.distributed import GossipRingProtocol, ring_coverage
    from repro.netsim import EventNetwork, RoundAdapter

    metric = fitted.workload.metric
    out: Dict[str, Any] = {}
    for rounds in (1, 6, 24):
        proto = GossipRingProtocol(
            bootstrap=3, exchange=8, ring_capacity=6, rounds=rounds
        )
        adapter = RoundAdapter(
            EventNetwork(metric, seed=3), proto, max_rounds=10 * rounds + 10
        )
        adapter.run()
        scale_cov, recall = ring_coverage(metric, proto, adapter.ctx)
        out[f"gossip_r{rounds}_coverage"] = float(scale_cov)
        out[f"gossip_r{rounds}_recall"] = float(recall)
    return out


def _netsim(fitted, scenario_name: str) -> Dict[str, Any]:
    """The §6 battery under one named degradation scenario.

    Keys are prefixed with the scenario name; the scenario's expanded
    config and the resolved protocol seed ride along, so a persisted
    ResultSet fully determines the run.
    """
    from repro.netsim import SCENARIOS, measure_scenario

    guarantee = fitted.guarantee()
    out = measure_scenario(
        fitted.workload.metric,
        SCENARIOS.get(scenario_name).obj,
        seed=11,
        stretch=guarantee.get("stretch"),
        delta=guarantee.get("delta"),
    )
    prefix = scenario_name.replace("-", "_")
    return {f"{prefix}_{key}": value for key, value in out.items()}


for _scenario_name in ("ideal", "lossy", "partition", "byzantine", "crash-churn"):
    @register_probe(
        f"netsim-{_scenario_name}",
        summary=f"event-simulator §6 battery under the {_scenario_name} scenario",
    )
    def _netsim_probe(fitted, _scenario: str = _scenario_name) -> Dict[str, Any]:
        return _netsim(fitted, _scenario)


def _stream_pairs(active, rng, pairs: int):
    """Distinct sampled pairs among the currently-active nodes."""
    import numpy as np

    ids = np.flatnonzero(active)
    us = rng.choice(ids, size=pairs)
    vs = rng.choice(ids, size=pairs)
    keep = us != vs
    return us[keep], vs[keep]


def _stream_quality(fitted, active, rng, pairs: int):
    """Estimate (or routed-path) ratios vs the true metric on sampled
    active pairs, served straight off the updated structure.  A label
    scheme's read is exact for the live active set (every update
    commits); a routing read of a ring pending churn touched takes the
    IVL-checked path."""
    import numpy as np

    metric = fitted.workload.metric
    us, vs = _stream_pairs(active, rng, pairs)
    inner = fitted.inner
    if hasattr(inner, "estimate_many"):
        est = np.asarray(inner.estimate_many(us, vs), dtype=float)
        true = np.array(
            [metric.distance(int(u), int(v)) for u, v in zip(us, vs)]
        )
        finite = np.isfinite(est) & (true > 0)
        return list(est[finite] / true[finite])
    ratios = []
    for u, v in zip(us, vs):
        result = inner.route(int(u), int(v))
        if result.reached:
            ratios.append(
                result.length(inner.graph) / metric.distance(int(u), int(v))
            )
    return ratios


def _stream_parity(fitted, ref, active, pairs: int) -> bool:
    """Bit-for-bit agreement between the streamed-and-compacted structure
    and the rebuild reference on sampled active pairs."""
    import numpy as np

    rng = np.random.default_rng(31)
    us, vs = _stream_pairs(active, rng, pairs)
    a, b = fitted.inner, ref.inner
    if hasattr(a, "estimate_many"):
        return bool(
            np.array_equal(
                np.asarray(a.estimate_many(us, vs)),
                np.asarray(b.estimate_many(us, vs)),
            )
        )
    return all(
        a.route(int(u), int(v)).path == b.route(int(u), int(v)).path
        for u, v in zip(us, vs)
    )


def _churn_stream(
    fitted,
    events: int,
    rate: float,
    checkpoints: int = 4,
    sample_pairs: int = 48,
    prefix: str = "stream",
) -> Dict[str, Any]:
    """Stream a seeded ChurnTrace through the scheme's update path.

    Reports checkpointed estimate quality, IVL check/violation counters
    (the guarantee is zero violations; only routing runs checks, since
    the label schemes commit every update), merge cadence, the amortized
    per-update cost against a timed scrub-and-rebuild reference, and
    bit-for-bit parity of the compacted structure against a fresh build
    bulk-updated to the same final active set.
    """
    import time

    import numpy as np

    from repro.distributed.trace import ChurnTrace

    if not getattr(fitted, "supports_update", False) or not hasattr(
        fitted.inner, "apply_update"
    ):
        return {f"{prefix}_supported": False}

    n = fitted.workload.n
    trace = ChurnTrace.generate(n=n, events=events, rate=rate, seed=23)
    rng = np.random.default_rng(29)
    active = np.ones(n, dtype=bool)
    ratios = []
    update_s = 0.0
    every = max(1, len(trace.events) // checkpoints)
    for i, event in enumerate(trace.events):
        receipt = fitted.update(joins=event.joins, leaves=event.leaves)
        update_s += receipt.update_s
        active[list(event.joins)] = True
        active[list(event.leaves)] = False
        if (i + 1) % every == 0:
            ratios.extend(_stream_quality(fitted, active, rng, sample_pairs))
    stats = fitted.pending_patch_stats()

    # The scrub-and-rebuild baseline an epoch loop would pay per event:
    # a fresh pristine build, bulk-updated to the same active set.
    t0 = time.perf_counter()
    ref = type(fitted).build(
        fitted.workload, fitted.config, seed=getattr(fitted, "_build_seed", 0)
    )
    rebuild_s = time.perf_counter() - t0
    final = trace.final_active()
    gone = [int(x) for x in np.flatnonzero(~final)]
    if gone:
        ref.update(joins=(), leaves=gone)
    ref.compact()
    fitted.compact()
    parity = _stream_parity(fitted, ref, final, pairs=4 * sample_pairs)

    inner = fitted.inner
    amortized = update_s / max(1, len(trace.events))
    return {
        f"{prefix}_supported": True,
        f"{prefix}_trace": trace.describe(),
        f"{prefix}_events": len(trace.events),
        f"{prefix}_amortized_update_s": round(amortized, 6),
        f"{prefix}_rebuild_s": round(rebuild_s, 6),
        f"{prefix}_update_speedup": round(rebuild_s / max(amortized, 1e-12), 2),
        f"{prefix}_mean_ratio": float(np.mean(ratios)) if ratios else float("nan"),
        f"{prefix}_max_ratio": float(np.max(ratios)) if ratios else float("nan"),
        f"{prefix}_checkpoint_samples": len(ratios),
        f"{prefix}_merges": int(stats.merges),
        f"{prefix}_auto_merges": int(stats.auto_merges),
        f"{prefix}_ivl_checks": int(getattr(inner, "ivl_checks", 0)),
        f"{prefix}_ivl_violations": int(getattr(inner, "ivl_violations", 0)),
        f"{prefix}_parity_equal": bool(parity),
        f"{prefix}_final_active": int(final.sum()),
    }


@register_probe("churn-stream",
                summary="stream a seeded ChurnTrace through the scheme's "
                        "patch-buffered update path: quality, IVL, "
                        "amortized cost vs rebuild, compaction parity")
def _churn_stream_probe(fitted) -> Dict[str, Any]:
    return _churn_stream(fitted, events=120, rate=0.02)


@register_probe("churn-stream-lite",
                summary="short churn stream (CI gate cells and the heavier "
                        "routing scheme)")
def _churn_stream_lite_probe(fitted) -> Dict[str, Any]:
    return _churn_stream(
        fitted, events=16, rate=0.05, checkpoints=2, sample_pairs=32
    )


@register_probe("serve-roundtrip",
                summary="container save→load round-trip: parity + timings")
def _serve_roundtrip(fitted) -> Dict[str, Any]:
    """Saves the fitted scheme to a container file, reopens it zero-copy
    and replays sampled queries on both copies: ``roundtrip_equal`` is
    the bit-for-bit verdict, ``save_s``/``load_s`` the persistence cost
    and ``structure_bytes`` the on-disk footprint."""
    import tempfile
    import time
    from pathlib import Path

    import numpy as np

    from repro.serve.persist import load_structure, save_structure

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "structure.repro"
        tick = time.perf_counter()
        save_structure(fitted, path)
        save_s = time.perf_counter() - tick
        tick = time.perf_counter()
        loaded = load_structure(path)
        load_s = time.perf_counter() - tick
        n = fitted.workload.metric.n
        rng = np.random.default_rng(17)
        pairs = rng.integers(0, n, size=(256, 2))
        inner, again = fitted.inner, loaded.inner
        if hasattr(inner, "estimate_many"):
            equal = np.array_equal(
                inner.estimate_many(pairs[:, 0], pairs[:, 1]),
                again.estimate_many(pairs[:, 0], pairs[:, 1]),
            )
        elif hasattr(inner, "estimate"):
            equal = all(
                inner.estimate(int(u), int(v)) == again.estimate(int(u), int(v))
                for u, v in pairs
            )
        else:
            equal = all(
                inner.route(int(u), int(v)).path == again.route(int(u), int(v)).path
                for u, v in pairs
            )
        return {
            "roundtrip_equal": bool(equal),
            "save_s": float(save_s),
            "load_s": float(load_s),
            "structure_bytes": int(path.stat().st_size),
        }
