"""Perf + memory smoke for net construction — machine-readable JSON.

Builds the full nested 2^j-net hierarchy (the construction underneath
every ring structure in the library) on two workload families —

* a euclidean hypercube (batched block scans straight off coordinates);
* a kNN doubling graph under the **lazy** shortest-path backend
  (dense=False: Dijkstra rows on demand through the byte-bounded
  RowCache, radius-capped for the net scans)

— and records the build's wall-clock plus the lazy backend's peak
resident rows/bytes to JSON.  The peak-rows number is the memory story:
at n = 10⁴ the dense APSP matrix would be 800 MB; the lazy build's
residency stays at the cache budget.

Run directly (CI does, on every push):

    PYTHONPATH=src python benchmarks/bench_build.py
    PYTHONPATH=src python benchmarks/bench_build.py \
        --sizes 2000,4000 --out benchmarks/results/build_perf.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List

from repro.graphs.generators import knn_geometric_graph
from repro.metrics.graphmetric import ShortestPathMetric
from repro.metrics.nets import NestedNets
from repro.metrics.synthetic import random_hypercube_metric

SEED = 11

#: Lazy-backend row cache budget for the bench (16 MiB: small enough that
#: the n=4000+ builds demonstrably evict, large enough to stay fast).
CACHE_BYTES = 16 * 1024 * 1024


def _workloads(n: int) -> Dict[str, Any]:
    return {
        "euclidean": lambda: random_hypercube_metric(n, dim=2, seed=SEED),
        "knn-graph-lazy": lambda: ShortestPathMetric(
            knn_geometric_graph(n, k=4, seed=SEED),
            dense=False,
            row_cache_bytes=CACHE_BYTES,
        ),
    }


def bench_one(name: str, make_metric) -> Dict[str, Any]:
    metric = make_metric()
    metric.min_distance()  # warm the extremes so the timing is the scan alone

    t0 = time.perf_counter()
    nets = NestedNets(
        metric,
        levels=metric.log_aspect_ratio() + 1,
        base_radius=metric.min_distance(),
    )
    serial_s = time.perf_counter() - t0

    record: Dict[str, Any] = {
        "workload": name,
        "n": metric.n,
        "levels": nets.levels,
        "net_sizes": [len(nets.net(j)) for j in range(nets.levels)],
        "serial_s": round(serial_s, 4),
    }

    if getattr(metric, "row_cache_stats", None):
        # The net scans themselves run on radius-capped uncached rows, so
        # after the build the cache can legitimately be empty.  Touch an
        # evaluation-style row sweep (more rows than the budget holds) so
        # the recorded peak demonstrates the bounded residency story.
        for u in range(0, metric.n, max(1, metric.n // 1024)):
            metric.distances_from(u)
        stats = metric.row_cache_stats()
        record["row_cache_budget_bytes"] = int(stats["budget_bytes"])
        record["peak_resident_rows"] = int(stats["peak_rows"])
        record["peak_resident_bytes"] = int(stats["peak_bytes"])
        record["dense_matrix_bytes"] = int(metric.n) ** 2 * 8
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="2000",
                        help="comma-separated instance sizes")
    parser.add_argument("--out", default="benchmarks/results/build_perf.json")
    args = parser.parse_args(argv)

    results: List[Dict[str, Any]] = []
    for n in (int(s) for s in args.sizes.split(",")):
        for name, make_metric in _workloads(n).items():
            record = bench_one(name, make_metric)
            results.append(record)
            print(json.dumps(record))

    payload = {
        "bench": "build",
        "seed": SEED,
        "row_cache_bytes": CACHE_BYTES,
        "results": results,
    }
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
