"""Streaming-churn perf bench for the mutable schemes — machine JSON.

Streams one long seeded :class:`~repro.distributed.trace.ChurnTrace`
(join/leave events over a fixed universe) through the update path of
each estimator scheme and records, per scheme:

* ``amortized_update_s`` — mean wall-clock per ``update()`` call; both
  label schemes commit every update, so every call is a merge;
* ``merge_s`` — mean wall-clock of the update calls that merged (all of
  them here);
* ``rebuild_s`` — a timed fresh build: what a scrub-and-rebuild epoch
  loop would pay per event instead;
* ``update_speedup`` — ``rebuild_s / amortized_update_s``, gated by
  ``--min-speedup`` (the incremental path must beat rebuilding by 10×);
* IVL counters — ``ivl_violations`` must be 0.  Nothing is pending
  after an update of either scheme, so no read is checked and both
  counters read 0 (reads are checked against a reference in
  ``tests/properties/test_label_churn.py``);
* ``parity_equal`` — after ``compact()``, estimates are bit-for-bit
  equal to a fresh build bulk-updated to the same final active set.

CI runs the small configuration on every push and ``check_perf.py``
compares the ``_s`` leaves against the committed baseline
(``benchmarks/results/stream_perf.json``) — the amortized-update-cost
ceiling and, via ``merge_s``, the merge-throughput floor.  The full
acceptance configuration is the default:

    PYTHONPATH=src python benchmarks/bench_stream.py            # n=2000, 1000 events
    PYTHONPATH=src python benchmarks/bench_stream.py \
        --n 400 --events 120 --out benchmarks/results/stream_perf.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict

import numpy as np

# The first np.unique call of a process imports numpy.ma lazily (11-20 ms),
# inside the first update of whichever scheme streams first.  Importing it
# here keeps that one-time cost out of amortized_update_s.
import numpy.ma  # noqa: F401

from repro import api
from repro.distributed.trace import ChurnTrace

TRACE_SEED = 17
SCHEMES = ("triangulation", "beacons")


def run_scheme(
    scheme: str, n: int, events: int, rate: float, checkpoints: int = 8
) -> Dict[str, Any]:
    fitted = api.build(scheme, workload="hypercube", n=n, seed=0)
    metric = fitted.workload.metric
    trace = ChurnTrace.generate(n=n, events=events, rate=rate, seed=TRACE_SEED)
    rng = np.random.default_rng(29)

    active = np.ones(n, dtype=bool)
    update_s = 0.0
    merge_calls = 0
    merge_s = 0.0
    ratios = []
    every = max(1, events // checkpoints)
    for i, event in enumerate(trace.events):
        receipt = fitted.update(joins=event.joins, leaves=event.leaves)
        update_s += receipt.update_s
        if receipt.merged:
            merge_calls += 1
            merge_s += receipt.update_s
        active[list(event.joins)] = True
        active[list(event.leaves)] = False
        if (i + 1) % every == 0:
            ids = np.flatnonzero(active)
            us = rng.choice(ids, size=128)
            vs = rng.choice(ids, size=128)
            keep = us != vs
            us, vs = us[keep], vs[keep]
            est = np.asarray(
                fitted.inner.estimate_many(us, vs), dtype=float
            )
            true = np.array(
                [metric.distance(int(u), int(v)) for u, v in zip(us, vs)]
            )
            finite = np.isfinite(est) & (true > 0)
            ratios.extend(est[finite] / true[finite])
    stats = fitted.pending_patch_stats()

    # Scrub-and-rebuild reference: fresh pristine build (timed — the
    # per-event cost of the rebuild strategy), bulk-updated to the same
    # final active set, compacted, compared bit-for-bit.
    t0 = time.perf_counter()
    ref = type(fitted).build(fitted.workload, fitted.config, seed=0)
    rebuild_s = time.perf_counter() - t0
    final = trace.final_active()
    gone = [int(x) for x in np.flatnonzero(~final)]
    if gone:
        ref.update(joins=(), leaves=gone)
    ref.compact()
    fitted.compact()
    ids = np.flatnonzero(final)
    pr = np.random.default_rng(31)
    us = pr.choice(ids, size=min(4000, ids.size * 4))
    vs = pr.choice(ids, size=us.size)
    keep = us != vs
    us, vs = us[keep], vs[keep]
    parity = bool(
        np.array_equal(
            np.asarray(fitted.inner.estimate_many(us, vs)),
            np.asarray(ref.inner.estimate_many(us, vs)),
        )
    )

    amortized = update_s / max(1, events)
    return {
        "scheme": scheme,
        "n": n,
        "events": events,
        "rate": rate,
        "trace_digest": trace.digest(),
        "final_active": int(final.sum()),
        "amortized_update_s": round(amortized, 6),
        "merge_s": round(merge_s / max(1, merge_calls), 6),
        "merges": int(stats.merges),
        "auto_merges": int(stats.auto_merges),
        "rebuild_s": round(rebuild_s, 6),
        "update_speedup": round(rebuild_s / max(amortized, 1e-12), 2),
        "ivl_checks": int(getattr(fitted.inner, "ivl_checks", 0)),
        "ivl_violations": int(getattr(fitted.inner, "ivl_violations", 0)),
        "mean_ratio": round(float(np.mean(ratios)), 4) if ratios else None,
        "max_ratio": round(float(np.max(ratios)), 4) if ratios else None,
        "checkpoint_samples": len(ratios),
        "parity_equal": parity,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--events", type=int, default=1000)
    parser.add_argument("--rate", type=float, default=0.01)
    parser.add_argument("--schemes", default=",".join(SCHEMES),
                        help="comma-separated update-capable estimator "
                             "scheme names")
    parser.add_argument("--out", default=None,
                        help="also write the JSON report to this path")
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="fail unless rebuild_s/amortized_update_s "
                             "reaches this for every scheme")
    args = parser.parse_args(argv)

    results = [
        run_scheme(name.strip(), args.n, args.events, args.rate)
        for name in args.schemes.split(",")
        if name.strip()
    ]
    report = {
        "bench": "stream",
        "description": "membership churn streamed through patch-buffered "
                       "updates: amortized cost vs scrub-and-rebuild, IVL "
                       "bounds, compaction parity",
        "trace_seed": TRACE_SEED,
        "results": results,
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        print(f"wrote {out}")

    failed = False
    for r in results:
        if r["ivl_violations"]:
            print(f"FAIL: {r['scheme']}: {r['ivl_violations']} IVL-bound "
                  f"violations (must be 0)", file=sys.stderr)
            failed = True
        if not r["parity_equal"]:
            print(f"FAIL: {r['scheme']}: compacted structure diverges from "
                  f"the rebuild reference", file=sys.stderr)
            failed = True
        if r["update_speedup"] < args.min_speedup:
            print(f"FAIL: {r['scheme']}: amortized update only "
                  f"{r['update_speedup']}x cheaper than rebuild "
                  f"(required {args.min_speedup}x)", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
