"""Repository benchmark: one workload, one seed, checked outputs.

    python3 perfbench/run.py --workload serve-beacons --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics named in
``BENCHMARK.json``.  ``--trace 1`` runs the same work twice: untraced,
as a ``--trace 0`` child process, then in this process with every
layer's public functions wrapped in spans.  It reports the per-layer
metrics plus ``overhead.<metric>`` (traced minus untraced) for every
end-to-end metric, and writes its spans to ``.perfbench/``.  Both halves
start in a fresh process, so neither inherits the other's warm heap.  A
layer entry point that cannot be found fails the traced run.  A
workload's amount of work follows from ``--seconds`` and fixed nominal
rates, so a run repeats exactly for a given seed.  While it measures,
the main thread moves to the next allowed CPU every 50 ms
(``common.CpuRotation``), so a run samples every vCPU of a shared host
rather than the one the scheduler happened to keep it on.

Standard output: one JSON line of run context and sample tails (median,
tail percentile and sample count behind every median), then the result
line ``{"correct", "attempted", "failed", "metrics"}``.  Any wrong
answer makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import CpuRotation, HostContext  # noqa: E402

WORKLOADS = ("serve-beacons", "churn-tri", "churn-route")


def _import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def execute(workload: str, seed: int, seconds: float, tracer, workdir: Path):
    import churn
    import serve_beacons

    if workload == "serve-beacons":
        return serve_beacons.run(serve_beacons.SIZE, seed, seconds, tracer, workdir)
    size = churn.TRI if workload == "churn-tri" else churn.ROUTE
    return churn.run(size, seed, seconds, tracer)


def untraced_child(args) -> dict:
    """The result line of the same run with tracing off, in a child."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    child = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"perfbench: untraced half failed with exit code {child.returncode}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_program()
    from tracer import NullTracer, Tracer, layer_metrics

    outdir = ROOT / ".perfbench"
    outdir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=outdir))
    host = HostContext()
    rotation = CpuRotation()
    try:
        base = {"correct": True, "attempted": 0, "failed": 0}
        if not args.trace:
            with rotation:
                outcome = execute(args.workload, args.seed, args.seconds, NullTracer(), workdir)
            metrics = outcome.metrics
            wanted = spec["end_to_end"]
        else:
            base = untraced_child(args)
            tracer = Tracer()
            with tracer.installed(), rotation:
                outcome = execute(args.workload, args.seed, args.seconds, tracer, workdir)
            metrics = layer_metrics(tracer, outcome.layer)
            metrics["host.calibration_ms"] = host.calibration_ms
            metrics["host.steal_share"] = host.steal_share() or 0.0
            for name, value in outcome.metrics.items():
                metrics[f"overhead.{name}"] = value - base["metrics"][name]["value"]
            spans = outdir / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.dump(spans)
            wanted = spec["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in wanted]
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: {args.workload} did not measure {missing}")
    mismatches = outcome.mismatches
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": {"calibration_ms": host.calibration_ms, "steal_share": host.steal_share(),
                 "cpus": rotation.cpus, "cpu_moves": rotation.moves},
        "run": outcome.context,
        "samples": outcome.tails(),
        "mismatches": mismatches[:20],
    }
    if args.trace:
        detail["spans"] = {"path": str(spans.relative_to(ROOT)), "count": len(tracer)}
    print(json.dumps(detail))
    result = {
        "correct": not mismatches and base["correct"],
        "attempted": outcome.attempted + base["attempted"],
        "failed": outcome.failed + base["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
