"""Smoke test of the benchmark itself, at tiny sizes (a few seconds):

    python3 perfbench/smoke.py

Run from the root of a checkout.  Every workload runs through
``run.main`` untraced and traced; the test asserts that every metric
named in ``BENCHMARK.json`` prints with its unit, that the output checks
pass, and that every per-layer metric is above 0 on the workloads
``map.json`` names for it.  It also shows that the checks are not
vacuous: one changed float in a served response counts as a failure,
and a layer entry point that cannot be found fails the traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import churn  # noqa: E402
import run  # noqa: E402
import serve_beacons  # noqa: E402
import tracer  # noqa: E402

TINY_SERVE = serve_beacons.ServeSize(
    n=300, bulk_pairs=64, small_pairs=4, bulk_pool=4, small_pool=8,
    rates=(48.0, 48.0), passes=2,
)
TINY_TRI = churn.ChurnSize("triangulation", "hypercube", 64, {"delta": 0.3},
                           events_per_s=8.0, reads=16, small=4, setups=2,
                           parity_pairs=64)
TINY_ROUTE = churn.ChurnSize("route-thm2.1", "knn-graph", 64,
                             {"delta": 0.25, "dense": False, "cache_mb": 0.05},
                             trace_seed=0, events_per_s=8.0, reads=4, small=0,
                             setups=2)
#: per-layer metrics whose expected value is 0: a violation fails the run
MAY_BE_ZERO = {"core.ivl_violations"}


def _run_cli(workload: str, trace: int) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)])
    lines = stdout.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, (workload, trace, lines[0])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, (workload, lines[0])
    return result


def _check_metrics(result: dict, wanted: list, positive: bool) -> None:
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for spec in wanted:
        entry = result["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"], (spec, entry)
        assert math.isfinite(entry["value"]), (spec, entry)
        if positive:
            assert entry["value"] > 0, (spec, entry)


def _check_layers(workload: str, result: dict, layers: dict) -> None:
    """Each per-layer metric saw work on the workloads ``map.json`` names
    for it (``overhead.*`` are differences and may be any sign)."""
    for name, entry in result["metrics"].items():
        if name.startswith("overhead.") or name in MAY_BE_ZERO:
            continue
        if workload in layers[name]["on"]:
            assert entry["value"] > 0, (workload, name, entry)


def _tamper(log: serve_beacons.PhaseLog) -> None:
    """Change one float of one stored bulk response."""
    idx, line = next(iter(log.first.items()))
    start = line.index(b'"estimates": [') + len(b'"estimates": [')
    end = line.index(b",", start)
    value = float(line[start:end]) * 1.5
    log.first[idx] = line[:start] + repr(value).encode() + line[end:]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((run.HERE / "map.json").read_text())["per_layer"]
    serve_beacons.SIZE, churn.TRI, churn.ROUTE = TINY_SERVE, TINY_TRI, TINY_ROUTE
    # The traced run's untraced half runs in a child process at full
    # size; here it runs in-process at the tiny sizes instead.
    run.untraced_child = lambda args: _run_cli(args.workload, 0)
    for workload in run.WORKLOADS:
        untraced = _run_cli(workload, 0)
        _check_metrics(untraced, spec["end_to_end"], positive=True)
        traced = _run_cli(workload, 1)
        _check_metrics(traced, spec["per_layer"], positive=False)
        _check_layers(workload, traced, layers)
        ivl = traced["metrics"]["core.ivl_checks"]["value"]
        assert (ivl > 0) == (workload == "churn-route"), (workload, ivl)
        print(f"ok {workload}")

    with tempfile.TemporaryDirectory(dir=run.ROOT / ".perfbench") as tmp:
        outcome = serve_beacons.run(TINY_SERVE, 3, 1, tracer.NullTracer(), Path(tmp),
                                    tamper=_tamper)
    assert outcome.failed > 0 and outcome.mismatches, outcome.mismatches
    assert outcome.metrics["success_rate"] < 1.0
    print("ok tampered response counted as a failure")

    merges = tracer.TARGETS["core.patch_merge"]
    merges.append(("repro.core.patch", "CSRPatch.no_such_method", tracer._one))
    try:
        tracer.Tracer().install()
    except LookupError:
        print("ok missing layer entry point fails the traced run")
    else:
        raise AssertionError("a missing layer entry point went unnoticed")
    finally:
        merges.pop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
