"""Perf-regression gate: fresh bench JSON vs the committed baselines.

CI produces fresh ``bench_engine`` / ``bench_build`` / ``bench_serve`` /
``bench_netsim`` / ``bench_stream`` reports into a scratch directory and
this script compares every *timing* they record against the same-named
committed baseline under ``benchmarks/results/``:

    PYTHONPATH=src python benchmarks/bench_build.py --out /tmp/perf/build_perf.json
    python benchmarks/check_perf.py --fresh /tmp/perf --baseline benchmarks/results

A numeric leaf counts as a timing when any segment of its JSON path
ends in ``_s`` or contains ``second`` (``serial_s``, ``build_s``,
``legacy_seconds.build``, …); counters and byte totals are ignored.
The gate fails when a timing slowed down by more than ``--max-ratio``
(default 2×) *and* by more than ``--min-seconds`` absolute (default
50 ms — sub-millisecond jitter on shared CI runners is not a
regression).  Baselines are regenerated by re-running the bench with
``--out benchmarks/results/<name>_perf.json`` and committing the diff.

Baselines are absolute wall-clock numbers, so they encode the machine
class they were produced on.  If the committed baselines and the CI
runners drift apart (e.g. slower shared runners), recalibrate by
downloading the fresh ``/tmp/perf`` JSON from the ``bench-smoke``
artifact of a known-good run and committing it as the new baseline —
or loosen ``--max-ratio``/``--min-seconds`` in the workflow for that
runner class.

Exit codes: 0 clean, 1 regression found, 2 usage/baseline errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

Number = (int, float)


def timing_leaves(node, path=()) -> Iterator[Tuple[Tuple[str, ...], float]]:
    """Yield (path, value) for every timing-like numeric leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from timing_leaves(value, path + (str(key),))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from timing_leaves(value, path + (f"[{i}]",))
    elif isinstance(node, Number) and not isinstance(node, bool):
        if any(seg.endswith("_s") or "second" in seg.lower() for seg in path):
            yield path, float(node)


def compare_file(
    name: str,
    baseline: Dict,
    fresh: Dict,
    max_ratio: float,
    min_seconds: float,
):
    """Yield (path, base, new, status) rows for one report pair."""
    base_times = dict(timing_leaves(baseline))
    fresh_times = dict(timing_leaves(fresh))
    for path, base in sorted(base_times.items()):
        new = fresh_times.get(path)
        if new is None:
            yield name, path, base, None, "missing-in-fresh"
            continue
        slowed = new > max_ratio * base and new - base > min_seconds
        yield name, path, base, new, "FAIL" if slowed else "ok"
    for path in sorted(set(fresh_times) - set(base_times)):
        yield name, path, None, fresh_times[path], "new-timing"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="benchmarks/results",
                        help="directory holding the committed *_perf.json")
    parser.add_argument("--fresh", required=True,
                        help="directory (or single file) of freshly "
                             "produced bench JSON")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail when fresh > ratio x baseline (default 2)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="ignore slowdowns smaller than this absolute "
                             "delta (default 0.05s)")
    args = parser.parse_args(argv)

    baseline_dir = Path(args.baseline)
    fresh_path = Path(args.fresh)
    fresh_files = (
        [fresh_path] if fresh_path.is_file()
        else sorted(fresh_path.glob("*_perf.json"))
    )
    if not fresh_files:
        print(f"error: no *_perf.json under {fresh_path}", file=sys.stderr)
        return 2

    failures = 0
    compared = 0
    for fresh_file in fresh_files:
        base_file = baseline_dir / fresh_file.name
        if not base_file.exists():
            print(f"warn: no committed baseline for {fresh_file.name} "
                  f"(add one by committing it to {baseline_dir})")
            continue
        baseline = json.loads(base_file.read_text())
        fresh = json.loads(fresh_file.read_text())
        for name, path, base, new, status in compare_file(
            fresh_file.name, baseline, fresh, args.max_ratio, args.min_seconds
        ):
            dotted = ".".join(path)
            if status == "FAIL":
                failures += 1
                ratio = f"{new / base:.2f}x" if base > 0 else "inf"
                print(f"FAIL {name}:{dotted}  {base:.4f}s -> {new:.4f}s "
                      f"({ratio})")
            elif status == "ok":
                compared += 1
            elif status == "missing-in-fresh":
                print(f"warn {name}:{dotted} missing from fresh report")
            else:
                print(f"note {name}:{dotted} new timing {new:.4f}s "
                      "(not in baseline)")
    if compared == 0 and failures == 0:
        print("error: nothing compared — baselines out of sync with the "
              "fresh reports", file=sys.stderr)
        return 2
    print(f"perf gate: {compared} timings within {args.max_ratio}x of "
          f"baseline, {failures} regression(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
