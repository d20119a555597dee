"""Load harness for the serve layer — machine-readable JSON.

Three numbers matter (see ISSUE/ROADMAP "build once, serve from many"):

* **cold-open ratio** — ``api.build`` from scratch vs ``api.load`` of
  the persisted container.  Loading memory-maps the label arrays, so it
  must be orders of magnitude faster than regenerating the workload and
  refitting the scheme; CI requires ≥ 100×.
* **throughput** — estimate pairs/s through the full asyncio service
  (NDJSON over loopback TCP, micro-batched ``estimate_many`` calls)
  from a small pool of pipelined clients; CI requires ≥ 1e5/s.
* **latency** — per-request p50/p99 under that load.

Parity is asserted along the way: the loaded structure must answer a
query sample bit-for-bit like the freshly built one, and the served
answers must match the loaded structure's direct answers.

Run directly (CI does, on every push):

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py \
        --n 10000 --min-qps 1e5 --min-open-ratio 100 \
        --out benchmarks/results/serve_perf.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

SEED = 23


def _percentile(samples: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q))


def build_and_persist(n: int, scheme: str, path: Path) -> Dict[str, Any]:
    """Fresh build (timed), save, cold-open (timed), parity check."""
    from repro import api

    tick = time.perf_counter()
    fitted = api.build(
        scheme, workload="hypercube", n=n, seed=SEED,
        cache=api.BuildCache(),  # a fresh cache: no memoized workload
    )
    rebuild_s = time.perf_counter() - tick

    api.save(fitted, path)

    tick = time.perf_counter()
    loaded = api.load(path)
    cold_open_s = time.perf_counter() - tick

    rng = np.random.default_rng(SEED)
    pairs = rng.integers(0, n, size=(2048, 2))
    parity = bool(np.array_equal(
        fitted.inner.estimate_many(pairs[:, 0], pairs[:, 1]),
        loaded.inner.estimate_many(pairs[:, 0], pairs[:, 1]),
    ))
    return {
        "rebuild_s": round(rebuild_s, 4),
        "cold_open_s": round(cold_open_s, 6),
        "open_ratio": round(rebuild_s / max(cold_open_s, 1e-9), 1),
        "parity": parity,
        "structure_bytes": path.stat().st_size,
        "loaded": loaded,
    }


async def _client_worker(
    host: str,
    port: int,
    n: int,
    requests: int,
    batch: int,
    depth: int,
    latencies: List[float],
    seed: int,
) -> np.ndarray:
    """One pipelined connection; returns a checksum of its answers."""
    from repro.serve import ServeClient

    client = await ServeClient.connect(host, port)
    rng = np.random.default_rng(seed)
    chunks = [rng.integers(0, n, size=(batch, 2)) for _ in range(requests)]
    checksum = 0.0

    async def one(chunk: np.ndarray) -> float:
        tick = time.perf_counter()
        answers = await client.estimate(chunk)
        latencies.append(time.perf_counter() - tick)
        return float(answers.sum())

    # Keep `depth` requests in flight to saturate the micro-batcher.
    for start in range(0, len(chunks), depth):
        window = chunks[start : start + depth]
        checksum += sum(await asyncio.gather(*[one(c) for c in window]))
    await client.close()
    return checksum


async def run_load(
    loaded,
    clients: int,
    requests: int,
    batch: int,
    depth: int,
) -> Dict[str, Any]:
    from repro.serve import ServeClient, StructureServer

    n = int(loaded.workload.metric.n)
    server = StructureServer(loaded, batch_pairs=8192)
    host, port = await server.start()
    runner = asyncio.create_task(server.serve_until_stopped())

    # Parity of the served path itself, before the throughput clock runs.
    probe = await ServeClient.connect(host, port)
    rng = np.random.default_rng(SEED + 1)
    sample = rng.integers(0, n, size=(512, 2))
    served = await probe.estimate(sample)
    direct = loaded.inner.estimate_many(sample[:, 0], sample[:, 1])
    served_parity = bool(np.array_equal(served, direct))
    await probe.close()

    latencies: List[float] = []
    tick = time.perf_counter()
    await asyncio.gather(*[
        _client_worker(host, port, n, requests, batch, depth, latencies,
                       SEED + 100 + i)
        for i in range(clients)
    ])
    elapsed = time.perf_counter() - tick

    await server.stop()
    await asyncio.wait_for(runner, 10)

    total_pairs = clients * requests * batch
    return {
        "served_parity": served_parity,
        "clients": clients,
        "requests_per_client": requests,
        "pairs_per_request": batch,
        "pipeline_depth": depth,
        "total_pairs": total_pairs,
        "elapsed_s": round(elapsed, 4),
        "qps": round(total_pairs / elapsed, 1),
        "p50_s": round(_percentile(latencies, 50), 6),
        "p99_s": round(_percentile(latencies, 99), 6),
        "estimate_batches": server.counters["estimate_batches"],
        "mean_batch_pairs": round(
            server.counters["estimate_pairs"]
            / max(1, server.counters["estimate_batches"]), 1,
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--scheme", default="beacons",
                        help="a persistable estimator scheme")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests", type=int, default=50,
                        help="requests per client")
    parser.add_argument("--batch", type=int, default=1024,
                        help="pairs per request")
    parser.add_argument("--depth", type=int, default=4,
                        help="pipelined requests in flight per client")
    parser.add_argument("--out", default=None,
                        help="also write the JSON report to this path")
    parser.add_argument("--min-qps", type=float, default=None,
                        help="fail below this served estimate pairs/s")
    parser.add_argument("--min-open-ratio", type=float, default=None,
                        help="fail unless cold-open beats rebuild by this factor")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "structure.repro"
        persist = build_and_persist(args.n, args.scheme, path)
        loaded = persist.pop("loaded")
        load = asyncio.run(run_load(
            loaded, args.clients, args.requests, args.batch, args.depth
        ))

    report = {
        "bench": "serve",
        "description": "container cold-open vs rebuild + NDJSON service "
                       "throughput/latency over loopback TCP",
        "seed": SEED,
        "n": args.n,
        "scheme": args.scheme,
        "persist": persist,
        "serve": load,
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        print(f"wrote {out}")

    failures = []
    if not persist["parity"]:
        failures.append("loaded structure diverged from the built one")
    if not load["served_parity"]:
        failures.append("served answers diverged from the loaded structure")
    if args.min_qps is not None and load["qps"] < args.min_qps:
        failures.append(
            f"throughput {load['qps']:.0f} pairs/s "
            f"below the floor {args.min_qps:.0f}"
        )
    if args.min_open_ratio is not None and persist["open_ratio"] < args.min_open_ratio:
        failures.append(
            f"cold-open only {persist['open_ratio']:.0f}x faster than "
            f"rebuild (required {args.min_open_ratio:.0f}x)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
