"""Event-simulator harness — machine-readable JSON.

Three claims are measured (see ISSUE/ROADMAP "event-driven simulator"):

* **engine throughput** — raw heapq event dispatch (schedule + execute),
  reported as events/sec; the floor guards against the loop acquiring
  accidental quadratic behaviour.
* **round adapter** — one gossip run on the event engine through
  :class:`RoundAdapter` with an ideal network, timed alone (its
  bit-for-bit behaviour is pinned by the golden digests in
  ``tests/properties/test_netsim_parity.py``).
* **scenario sweep** — one `measure_scenario` battery per registered
  scenario (gossip + r-net + audit + estimates), timed individually;
  these are the timings the nightly sweep trends.

Run directly (CI does, on every push):

    PYTHONPATH=src python benchmarks/bench_netsim.py
    PYTHONPATH=src python benchmarks/bench_netsim.py \
        --out benchmarks/results/netsim_perf.json \
        --min-events-per-sec 2e5
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict

SEED = 11


def bench_engine(events: int) -> Dict[str, Any]:
    """Schedule-and-drain throughput of the bare event loop."""
    from repro.netsim import EventLoop

    loop = EventLoop()
    counter = [0]

    def fire() -> None:
        counter[0] += 1

    tick = time.perf_counter()
    for i in range(events):
        loop.schedule(float(i % 7), fire)
    schedule_s = time.perf_counter() - tick

    tick = time.perf_counter()
    executed, exhausted = loop.run()
    run_s = time.perf_counter() - tick
    assert exhausted and executed == events

    total = schedule_s + run_s
    return {
        "events": events,
        "schedule_s": round(schedule_s, 4),
        "run_s": round(run_s, 4),
        "events_per_sec": round(events / total, 1),
    }


def bench_adapter(n: int) -> Dict[str, Any]:
    """Wall-clock of one gossip run through the round adapter."""
    from repro.api.facade import build_workload
    from repro.distributed import GossipRingProtocol
    from repro.netsim import EventNetwork, RoundAdapter

    metric = build_workload("hypercube", n=n, seed=5).metric
    proto = GossipRingProtocol(bootstrap=3, exchange=8, ring_capacity=6, rounds=8)
    adapter = RoundAdapter(EventNetwork(metric, seed=SEED), proto, max_rounds=100)
    tick = time.perf_counter()
    stats = adapter.run()
    event_s = time.perf_counter() - tick
    return {"n": n, "event_s": round(event_s, 4), "messages": stats.messages}


def bench_scenarios(n: int) -> Dict[str, Any]:
    """Time one full measurement battery per registered scenario."""
    from repro.api.facade import build_workload
    from repro.netsim import SCENARIOS, measure_scenario

    metric = build_workload("hypercube", n=n, seed=5).metric
    out: Dict[str, Any] = {"n": n}
    for name in SCENARIOS.names():
        scenario = SCENARIOS.get(name).obj
        tick = time.perf_counter()
        result = measure_scenario(metric, scenario, seed=SEED)
        elapsed = time.perf_counter() - tick
        key = name.replace("-", "_")
        out[f"{key}_s"] = round(elapsed, 4)
        out[f"{key}_detection_rate"] = result["audit_detection_rate"]
        out[f"{key}_delivery_rate"] = round(result["gossip_delivery_rate"], 4)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=200_000)
    parser.add_argument("--n", type=int, default=48,
                        help="metric size for adapter/scenario benches")
    parser.add_argument("--out", default=None,
                        help="also write the JSON report to this path")
    parser.add_argument("--min-events-per-sec", type=float, default=None,
                        help="fail below this engine dispatch rate")
    args = parser.parse_args(argv)

    report = {
        "bench": "netsim",
        "description": "event-engine dispatch rate, round-adapter run time "
                       "and per-scenario measurement battery timings",
        "seed": SEED,
        "engine": bench_engine(args.events),
        "adapter": bench_adapter(args.n),
        "scenarios": bench_scenarios(args.n),
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        print(f"wrote {out}")

    rate = report["engine"]["events_per_sec"]
    if args.min_events_per_sec is not None and rate < args.min_events_per_sec:
        print(f"FAIL: engine dispatch {rate:.0f} events/s below the floor "
              f"{args.min_events_per_sec:.0f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
