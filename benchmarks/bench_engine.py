"""Perf smoke for the batched query engine — machine-readable JSON.

Times an end-to-end "build a distance-estimation scheme, evaluate its
stretch on a sampled plan" run on a euclidean workload, twice:

* **legacy** — the pre-engine per-pair path: a Python double loop over
  (node, beacon) scalar-quantized labels for the build, then one
  ``metric.distance`` + one scalar ``estimate`` call per sampled pair;
* **engine** — the batched path: one ``distances_between`` block +
  vectorized quantization for the build, then
  ``repro.engine.evaluate_estimator`` over the same
  :class:`~repro.engine.plans.UniformSamplePlan`.

Both paths build identical structures and evaluate identical pairs, so
the quality numbers must agree exactly — the script verifies that — and
the timing ratio isolates the engine's contribution.

Run directly (CI does, on every push):

    PYTHONPATH=src python benchmarks/bench_engine.py
    PYTHONPATH=src python benchmarks/bench_engine.py \
        --sizes 1000,5000 --min-speedup 5 --out benchmarks/results/engine_perf.json

Exits non-zero if ``--min-speedup`` is given and the largest size misses
it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

import numpy as np

from repro.engine import UniformSamplePlan, evaluate_estimator
from repro.labeling.beacons import BeaconTriangulation
from repro.labeling.encoding import DistanceCodec
from repro.metrics.synthetic import random_hypercube_metric
from repro.rng import ensure_rng

BEACONS = 32
MANTISSA_BITS = 12
PAIRS_PER_NODE = 10  # sampled plan size = 10 n
SEED = 7


# ----------------------------------------------------------------------
# Legacy path: replicates the pre-engine per-pair code, byte for byte in
# behaviour, so the comparison is against what the library used to do.
# ----------------------------------------------------------------------


def legacy_build(metric, beacon_ids) -> BeaconTriangulation:
    tri = BeaconTriangulation.__new__(BeaconTriangulation)
    tri.metric = metric
    tri.beacons = np.asarray(sorted(int(b) for b in beacon_ids), dtype=int)
    tri.codec = DistanceCodec.for_metric(metric, MANTISSA_BITS)
    labels = np.zeros((metric.n, len(tri.beacons)))
    for u in range(metric.n):
        row = metric.distances_from(u)
        for j, b in enumerate(tri.beacons):
            labels[u, j] = tri.codec.roundtrip(float(row[b]))
    tri._labels = labels
    tri._init_mutation_state()
    return tri


def legacy_evaluate(tri, metric, pairs) -> Dict[str, float]:
    errors: List[float] = []
    for u, v in pairs:
        d = metric.distance(int(u), int(v))
        est = tri.estimate(int(u), int(v))
        if d > 0 and np.isfinite(est):
            errors.append(abs(est - d) / d)
    return {
        "sampled_pairs": len(errors),
        "max_relative_error": max(errors) if errors else float("inf"),
        "mean_relative_error": float(np.mean(errors)) if errors else float("inf"),
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def run_size(n: int) -> Dict[str, object]:
    plan = UniformSamplePlan(size=PAIRS_PER_NODE * n, seed=SEED + 1)
    beacon_ids = ensure_rng(SEED).choice(n, size=BEACONS, replace=False)

    # Legacy path on a fresh metric (cold caches, like a fresh process).
    metric = random_hypercube_metric(n, dim=2, seed=SEED)
    pairs = plan.pairs(metric)
    t0 = time.perf_counter()
    tri = legacy_build(metric, beacon_ids)
    t1 = time.perf_counter()
    legacy_stats = legacy_evaluate(tri, metric, pairs)
    t2 = time.perf_counter()
    legacy = {"build": t1 - t0, "evaluate": t2 - t1, "total": t2 - t0}

    # Engine path, equally cold.
    metric = random_hypercube_metric(n, dim=2, seed=SEED)
    t0 = time.perf_counter()
    tri = BeaconTriangulation(metric, k=BEACONS, beacons=beacon_ids)
    t1 = time.perf_counter()
    report = evaluate_estimator(tri, metric, plan)
    t2 = time.perf_counter()
    engine = {"build": t1 - t0, "evaluate": t2 - t1, "total": t2 - t0}

    engine_stats = {
        "sampled_pairs": report.evaluated,
        "max_relative_error": report.max_relative_error,
        "mean_relative_error": report.mean_relative_error,
    }
    if not np.allclose(
        [legacy_stats["max_relative_error"], legacy_stats["mean_relative_error"]],
        [engine_stats["max_relative_error"], engine_stats["mean_relative_error"]],
        rtol=1e-12,
    ):
        raise AssertionError(
            f"engine and legacy paths disagree at n={n}: "
            f"{legacy_stats} vs {engine_stats}"
        )

    return {
        "n": n,
        "workload": "hypercube (euclidean, dim=2)",
        "scheme": f"beacons k={BEACONS}",
        "plan": f"uniform size={plan.size} seed={plan.seed}",
        "legacy_seconds": legacy,
        "engine_seconds": engine,
        "speedup": legacy["total"] / engine["total"],
        "quality": engine_stats,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="1000,5000",
                        help="comma-separated n values")
    parser.add_argument("--out", default=None,
                        help="also write the JSON report to this path")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the largest n reaches this speedup")
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    results = [run_size(n) for n in sizes]
    report = {
        "benchmark": "bench_engine",
        "description": "build + sampled stretch evaluation: "
                       "legacy per-pair path vs batched engine",
        "results": results,
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")

    if args.min_speedup is not None:
        final = results[-1]["speedup"]
        if final < args.min_speedup:
            print(
                f"FAIL: speedup {final:.2f}x at n={results[-1]['n']} "
                f"below required {args.min_speedup}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
