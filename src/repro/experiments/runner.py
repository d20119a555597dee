"""The experiment runner: spec → cells → (parallel) execution → ResultSet.

:func:`run` expands an :class:`~repro.experiments.spec.ExperimentSpec`
into grid cells and executes each through the facade —
:func:`repro.api.build` (sharing one :class:`~repro.api.BuildCache`, so
several schemes on one workload realize the metric once) and
:func:`repro.api.evaluate` over the cell's plan — then stamps
provenance and persists the :class:`~repro.experiments.results.ResultSet`
under ``benchmarks/results/``.

``processes`` parallelizes *across cells*: workload groups fan out over
a process pool, each worker running one group serially with its own
build cache.  ``None``/``0`` resolves to ``os.cpu_count()`` (and the
resolved value is recorded in the ResultSet provenance); ``1`` forces
serial.  Each build itself is one serial scan.  Results are
deterministic and order-stable regardless of ``processes``.

``resume=True`` reloads a previously persisted set for the same spec
hash and only executes the missing cells — a killed grid run picks up
where it stopped.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.experiments.probes import run_probes
from repro.experiments.results import (
    RESULTSET_SUFFIX,
    CellResult,
    ResultSet,
    default_results_dir,
    jsonify,
    run_provenance,
)
from repro.experiments.spec import Cell, ExperimentSpec

__all__ = ["resolve_workers", "run", "run_cell"]


def resolve_workers(requested: Optional[int] = None) -> int:
    """Worker count for a request: ``None``/``0`` means every core."""
    if requested is None or requested == 0:
        return os.cpu_count() or 1
    if requested < 0:
        raise ValueError(f"worker count must be >= 0, got {requested}")
    return int(requested)


def run_cell(cell: Cell, cache=None) -> CellResult:
    """Execute one grid cell: build, evaluate over the plan, run probes."""
    from repro import api

    t0 = time.perf_counter()
    fitted = api.build(
        cell.scheme,
        workload=cell.workload,
        seed=cell.seed,
        config=dict(cell.config),
        cache=cache,
    )
    t1 = time.perf_counter()
    metrics = api.evaluate(fitted, cell.plan)
    t2 = time.perf_counter()
    probes = run_probes(fitted, cell.probes)
    t3 = time.perf_counter()
    account = fitted.size_account()
    return CellResult(
        key=cell.key,
        title=cell.title,
        cell=cell.to_dict(),
        metrics=jsonify(metrics),
        probes=jsonify(probes),
        timings={
            "build_s": round(t1 - t0, 6),
            "evaluate_s": round(t2 - t1, 6),
            "probes_s": round(t3 - t2, 6),
        },
        size_bits=int(account.total_bits),
        size_components={k: int(v) for k, v in account.components.items()},
    )


def _run_group(cell_dicts: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Worker entry point: run one workload group with a private cache.

    Takes and returns plain dicts so the payload pickles cheaply across
    the process pool.
    """
    from repro.api import BuildCache

    cache = BuildCache(maxsize=4)
    return [
        run_cell(Cell.from_dict(data), cache=cache).to_dict()
        for data in cell_dicts
    ]


def _group_by_workload(cells: Sequence[Cell]) -> List[List[Cell]]:
    groups: Dict[Any, List[Cell]] = {}
    for cell in cells:
        groups.setdefault(cell.workload, []).append(cell)
    return list(groups.values())


def run(
    spec: ExperimentSpec,
    *,
    processes: Optional[int] = None,
    resume: bool = False,
    out_dir: Optional[Union[str, Path]] = None,
    persist: bool = True,
    cache=None,
    verbose: bool = False,
) -> ResultSet:
    """Execute every cell of ``spec`` and return the typed ResultSet.

    Parameters
    ----------
    processes:
        Cell-level process pool size.  ``None``/``0`` resolves from
        ``os.cpu_count()``; the resolved value lands in the provenance.
        A resolved value of 1 runs serially in-process.
    resume:
        Reuse cell results from a previously persisted set for the same
        spec (matched by spec hash; a stale file for a *different* grid
        raises instead of silently mixing artifacts).
    out_dir / persist:
        Where (and whether) to write ``<name>.resultset.json``.
    cache:
        Optional :class:`~repro.api.BuildCache` for the serial path
        (defaults to the process-wide facade cache).
    """
    resolved_processes = resolve_workers(processes)
    cells = spec.cells()
    out_path = Path(out_dir) if out_dir is not None else default_results_dir()
    target = out_path / f"{spec.name}{RESULTSET_SUFFIX}"

    done: Dict[str, CellResult] = {}
    if resume and target.exists():
        prior = ResultSet.load(target)
        if prior.spec.spec_hash() != spec.spec_hash():
            raise ValueError(
                f"cannot resume {spec.name!r}: {target} was produced by a "
                f"different grid (spec hash {prior.spec.spec_hash()} != "
                f"{spec.spec_hash()}); delete it or disable resume"
            )
        done = {r.key: r for r in prior.results}

    todo = [cell for cell in cells if cell.key not in done]
    if verbose and done:
        print(f"[{spec.name}] resuming: {len(done)} cells cached, "
              f"{len(todo)} to run")

    fresh: Dict[str, CellResult] = {}
    if todo:
        if resolved_processes >= 2 and len(todo) > 1:
            from concurrent.futures import ProcessPoolExecutor

            groups = _group_by_workload(todo)
            payloads = [[c.to_dict() for c in group] for group in groups]
            with ProcessPoolExecutor(max_workers=resolved_processes) as pool:
                for group, results in zip(groups, pool.map(_run_group, payloads)):
                    for cell, data in zip(group, results):
                        fresh[cell.key] = CellResult.from_dict(data)
                        if verbose:
                            print(f"[{spec.name}] done {cell.title}")
        else:
            for cell in todo:
                fresh[cell.key] = run_cell(cell, cache=cache)
                if verbose:
                    print(f"[{spec.name}] done {cell.title}")

    results = [done.get(c.key) or fresh[c.key] for c in cells]
    provenance = run_provenance(spec)
    provenance["cells"] = len(cells)
    provenance["resumed_cells"] = len(cells) - len(todo)
    provenance["processes"] = resolved_processes
    result_set = ResultSet(spec=spec, results=results, provenance=provenance)
    if persist:
        result_set.save(target)
    return result_set
