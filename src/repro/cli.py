"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's four problems plus workload inspection:

* ``list``        — enumerate the registered workloads and schemes;
* ``info``        — generate a workload and print its metric profile
  (n, Δ, doubling/grid dimension estimates);
* ``triangulate`` — build the Theorem 3.2 triangulation, report order,
  worst-pair ratio and an estimate for a node pair;
* ``labels``      — build the Theorem 3.4 labels, report bit sizes and
  an estimate for a node pair;
* ``route``       — build a routing scheme (thm2.1 / thm4.1 / thm4.2 /
  trivial) on a doubling graph and route the packets of a query plan;
* ``smallworld``  — sample a small-world model (5.2a / 5.2b / 5.5 /
  structures) and run queries;
* ``update``      — build a mutable scheme and stream join/leave churn
  into it (one explicit batch, or a seeded ChurnTrace), reporting
  receipts, amortized update cost, patch-buffer state and, for the
  structures that keep them, the IVL counters (exit 1 on any IVL
  violation);
* ``run``         — execute a declarative experiment grid (a named
  suite or a spec JSON file) through :mod:`repro.experiments`;
* ``results``     — list or diff persisted experiment result sets;
* ``suites``      — list the named suites / regenerate EXPERIMENTS.md;
* ``cache``       — show the facade build cache's entries/hits/misses
  plus the row-cache byte accounting of cached lazy metrics;
* ``save``        — build a scheme and persist it as a container file;
* ``load``        — reopen a saved structure (zero-copy) and summarize;
* ``serve``       — serve a saved structure over NDJSON/TCP; estimate
  requests already queued share one vectorized call.

Everything is registry-driven: workloads come from
``repro.api.WORKLOADS`` (``--workload``), schemes from
``repro.api.SCHEMES``, experiment suites from
``repro.experiments.SUITES``, and one ``--seed`` flows through both the
generator and every randomized construction, so equal seeds reproduce
identical runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np


def _metric_workload_names() -> list[str]:
    """Registered workloads that build a metric directly."""
    from repro.api import WORKLOADS

    return [
        name for name, entry in WORKLOADS.items()
        if entry.meta.get("kind") == "metric"
    ]


def _workload_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    """The subset of CLI flags the chosen workload actually accepts."""
    from repro.api import WORKLOADS

    defaults = WORKLOADS.get(args.workload).meta["defaults"]
    return {
        name: getattr(args, name)
        for name in defaults
        if getattr(args, name, None) is not None
    }


def _workload_from_args(args: argparse.Namespace):
    from repro import api

    return api.build_workload(
        args.workload, n=args.n, seed=args.seed, **_workload_kwargs(args)
    )


def _add_workload_arguments(
    parser: argparse.ArgumentParser, choices: Optional[Sequence[str]] = None
) -> None:
    """``--workload`` (metric workloads unless ``choices`` says otherwise)
    plus the size, shape and seed flags."""
    from repro.api import DEFAULT_N

    parser.add_argument("--workload", default="hypercube",
                        choices=choices or _metric_workload_names())
    parser.add_argument("--n", type=int, default=DEFAULT_N,
                        help=f"instance size (default: api.DEFAULT_N = {DEFAULT_N})")
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--base", type=float, default=2.0,
                        help="exponential-line base")
    parser.add_argument("--seed", type=int, default=0)


def _cmd_list(args: argparse.Namespace) -> int:
    from repro import api

    print(api.describe())
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.metrics import doubling_dimension, grid_dimension

    metric = _workload_from_args(args).metric
    print(f"workload      {args.workload}")
    print(f"n             {metric.n}")
    print(f"min distance  {metric.min_distance():.6g}")
    print(f"diameter      {metric.diameter():.6g}")
    print(f"aspect ratio  {metric.aspect_ratio():.6g} "
          f"(log2 = {np.log2(metric.aspect_ratio()):.1f})")
    print(f"doubling dim  ~{doubling_dimension(metric, sample_centers=24):.2f}")
    print(f"grid dim      ~{grid_dimension(metric, sample_centers=24):.2f}")
    return 0


def _cmd_triangulate(args: argparse.Namespace) -> int:
    from repro import api

    fitted = api.build(
        "triangulation", workload=_workload_from_args(args),
        seed=args.seed, delta=args.delta,
    )
    tri = fitted.inner
    print(f"order            {tri.order} (mean {tri.mean_order():.1f})")
    print(f"worst D+/D-      {tri.worst_ratio():.4f}")
    print(f"certified bound  {tri.certified_ratio_bound():.4f}")
    u, v = args.pair
    print(f"d({u},{v})       {tri.metric.distance(u, v):.6g}")
    print(f"estimate         {fitted.query(u, v):.6g}")
    return 0


def _cmd_labels(args: argparse.Namespace) -> int:
    from repro import api

    fitted = api.build(
        "labels", workload=_workload_from_args(args),
        seed=args.seed, delta=args.delta,
    )
    dls = fitted.inner
    print(f"max label bits   {dls.max_label_bits():,}")
    print(f"mean label bits  {dls.mean_label_bits():,.0f}")
    print(f"max |T_u|        {dls.max_virtual_neighbors()}")
    u, v = args.pair
    print(f"d({u},{v})       {dls.metric.distance(u, v):.6g}")
    print(f"estimate         {fitted.query(u, v):.6g}")
    return 0


def _plan_config(args: argparse.Namespace):
    """The PlanConfig described by --plan / --pairs / --per-scale."""
    from repro.api import PlanConfig

    return PlanConfig(
        kind=args.plan,
        pairs=args.pairs,
        per_scale=getattr(args, "per_scale", 64),
        seed=args.seed,
    )


def _add_plan_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--plan", default="uniform",
        choices=["all-pairs", "uniform", "stratified"],
        help="which node pairs to evaluate on (engine query plan)")
    parser.add_argument("--pairs", type=int, default=2000,
                        help="sample size for --plan uniform")
    parser.add_argument("--per-scale", type=int, default=64,
                        help="pairs per distance scale for --plan stratified")


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro import api

    fitted = api.build(
        args.scheme, workload=_workload_from_args(args), seed=args.seed,
    )
    stats = api.evaluate(fitted, _plan_config(args))
    print(f"scheme    {args.scheme}")
    print(f"workload  {args.workload} (n={fitted.workload.n})")
    print(f"plan      {args.plan}")
    for key, value in stats.items():
        if isinstance(value, float):
            print(f"{key:<22s} {value:.6g}")
        else:
            print(f"{key:<22s} {value}")
    return 0


def _mutable_scheme_names() -> list[str]:
    """Registered schemes whose class has ``supports_update``."""
    from repro.api import SCHEMES, supports_update

    return [name for name in SCHEMES.names() if supports_update(name)]


def _parse_node_list(text: Optional[str]) -> list[int]:
    if not text:
        return []
    return [int(x) for x in text.split(",") if x.strip()]


def _cmd_update(args: argparse.Namespace) -> int:
    from repro import api

    try:
        return _stream_updates(args)
    except api.UnsupportedUpdate as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _stream_updates(args: argparse.Namespace) -> int:
    from repro import api

    fitted = api.build(
        args.scheme, workload=_workload_from_args(args), seed=args.seed,
    )
    print(f"scheme    {args.scheme}")
    print(f"workload  {args.workload} (n={fitted.workload.n})")
    if args.events:
        from repro.distributed.trace import ChurnTrace

        trace = ChurnTrace.generate(
            n=fitted.workload.n, events=args.events,
            rate=args.rate, seed=args.trace_seed,
        )
        receipts = [
            api.update(fitted, joins=event.joins, leaves=event.leaves)
            for event in trace.events
        ]
        total_s = sum(r.update_s for r in receipts)
        print(f"trace     {trace.describe()}")
        print(f"events              {len(receipts)}")
        print(f"amortized update_s  {total_s / max(1, len(receipts)):.6g}")
        print(f"auto merges         {sum(r.merged for r in receipts)}")
    else:
        receipt = api.update(
            fitted,
            joins=_parse_node_list(args.joins),
            leaves=_parse_node_list(args.leaves),
        )
        for key, value in receipt.to_dict().items():
            print(f"{key:<20s} {value}")
    if args.compact:
        fitted.compact()
    stats = fitted.pending_patch_stats()
    print("patch state:")
    for key, value in stats.to_dict().items():
        print(f"  {key:<18s} {value}")
    # The IVL counters print even at 0 checks, which shows a gate that
    # checked nothing; any violation fails the command.
    inner = fitted.inner
    if hasattr(inner, "ivl_checks"):
        print(f"ivl_checks          {inner.ivl_checks}")
        print(f"ivl_violations      {inner.ivl_violations}")
        if inner.ivl_violations:
            print(
                f"error: {inner.ivl_violations} IVL violation(s) in "
                f"{inner.ivl_checks} checks",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from repro import api

    fitted = api.build(
        f"route-{args.scheme}", workload="knn-graph",
        n=args.n, seed=args.seed,
        workload_params={"k": args.k}, config={"delta": args.delta},
    )
    stats = api.evaluate(fitted, _plan_config(args))
    print(f"scheme        {args.scheme}")
    print(f"delivery      {stats['delivery_rate']:.1%}")
    print(f"max stretch   {stats['max_stretch']:.4f}")
    print(f"mean stretch  {stats['mean_stretch']:.4f}")
    print(f"table bits    {stats['max_table_bits']:,}")
    print(f"header bits   {stats['max_header_bits']:,}")
    return 0


def _cmd_smallworld(args: argparse.Namespace) -> int:
    from repro import api

    # 5.5 and kleinberg are tied to grid substrates; --workload would be
    # silently ignored for them, so route them to their canonical grids.
    if args.model == "5.5":
        workload = api.build_workload("grid-graph", n=args.n, seed=args.seed)
    elif args.model == "kleinberg":
        workload = api.build_workload("grid", n=args.n, seed=args.seed)
    else:
        workload = _workload_from_args(args)
    fitted = api.build(
        f"sw-{args.model}", workload=workload, seed=args.seed, c=args.c,
    )
    stats = fitted.stats(samples=args.queries, seed=args.seed)
    print(f"model        {args.model}")
    print(f"completion   {stats['completion_rate']:.1%}")
    print(f"max hops     {stats['max_hops']}")
    print(f"mean hops    {stats['mean_hops']:.2f}")
    print(f"out-degree   {stats['max_out_degree']} "
          f"(mean {stats['mean_out_degree']:.1f})")
    return 0


def _resolve_spec(target: str):
    """A spec from a named suite or a ``.json`` spec file path."""
    from repro.experiments import ExperimentSpec, get_suite

    path = Path(target)
    if target.endswith(".json") or path.is_file():
        return ExperimentSpec.load(path)
    return get_suite(target)


def _override_spec_n(spec, n: int):
    """``spec`` with every workload rebuilt at size ``n``.

    The spec is renamed ``<name>-n<n>`` so the reduced run persists (and
    resumes) beside — never over — the full-size artifact.  CI uses this
    to smoke the ``*-large`` suites at a reduced n.

    Overrides keyed on a sized workload display (``"hypercube(n=2000)"``)
    are remapped to the new size so they keep applying — in particular,
    ``skip`` rules that fence a heavy scheme onto one rung of a size
    ladder still fence it in the reduced run (all collapsed rungs now
    match, so a ladder's heavy cells are skipped rather than accidentally
    run at an unintended size).
    """
    import dataclasses

    from repro.api import Workload

    workloads = tuple(dict.fromkeys(
        Workload.make(w.name, n=n, seed=w.seed, **w.kwargs)
        for w in spec.workloads
    ))
    overrides = tuple(
        dataclasses.replace(rule, workload=f"{parsed[0]}(n={n})")
        if rule.workload is not None
        and (parsed := Workload.parse_display(rule.workload)) is not None
        else rule
        for rule in spec.overrides
    )
    return dataclasses.replace(
        spec, name=f"{spec.name}-n{n}", workloads=workloads,
        overrides=overrides,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import default_results_dir, run

    spec = _resolve_spec(args.target)
    if args.override_n is not None:
        spec = _override_spec_n(spec, args.override_n)
    result_set = run(
        spec,
        processes=args.processes,
        resume=args.resume,
        out_dir=args.out,
        persist=not args.no_persist,
        verbose=not args.json,
    )
    if args.json:
        text = result_set.to_json()
        if args.json == "-":
            print(text)
        else:
            Path(args.json).write_text(text + "\n")
    else:
        print(f"suite      {spec.name} ({len(result_set)} cells, "
              f"spec {spec.spec_hash()})")
        for result in result_set:
            parts = []
            for key, value in {**result.metrics, **result.probes}.items():
                if isinstance(value, float):
                    parts.append(f"{key}={value:.6g}")
                elif isinstance(value, (int, bool)):
                    parts.append(f"{key}={value}")
            print(f"  {result.title:<36s} {'  '.join(parts)}")
        if not args.no_persist:
            print(f"persisted  {result_set.default_path(args.out)}")
    return 0


def _cmd_results(args: argparse.Namespace) -> int:
    from repro.experiments import ResultSet, default_results_dir
    from repro.experiments.results import RESULTSET_SUFFIX

    out = Path(args.out) if args.out else default_results_dir()
    if args.diff:
        loaded = []
        for target in args.diff:
            path = _results_path(out, target)
            try:
                loaded.append(ResultSet.load(path))
            except FileNotFoundError:
                print(f"warning: no persisted result set {target!r} "
                      f"(looked at {path}); run `repro run {target}` first",
                      file=sys.stderr)
                return 2
            except (ValueError, KeyError, json.JSONDecodeError) as err:
                print(f"warning: result set {target!r} is unreadable: {err}",
                      file=sys.stderr)
                return 2
        a, b = loaded
        diff = a.diff(b)
        if not (diff["only_self"] or diff["only_other"] or diff["changed"]):
            print("result sets agree on every shared cell's metrics, "
                  "non-timing probes and sizes")
            return 0
        for entry in diff["only_self"]:
            print(f"only in {args.diff[0]}: {entry['title']}  [{entry['key']}]")
        for entry in diff["only_other"]:
            print(f"only in {args.diff[1]}: {entry['title']}  [{entry['key']}]")
        for key, entry in diff["changed"].items():
            print(f"{entry['title']}  [{key}]")
            for section in ("metrics", "probes", "sizes"):
                for name, pair in entry[section].items():
                    print(f"  {name:<24s} {pair['self']!r} -> {pair['other']!r}")
        return 1
    found = sorted(out.glob(f"*{RESULTSET_SUFFIX}")) if out.is_dir() else []
    if not found:
        print(f"no persisted result sets under {out}")
        return 0
    for path in found:
        try:
            rs = ResultSet.load(path)
        except (ValueError, KeyError, json.JSONDecodeError) as err:
            # Surface broken artifacts (e.g. a save killed mid-write)
            # instead of silently pretending they do not exist.
            print(f"{path.name}: unreadable ({err})")
            continue
        prov = rs.provenance
        print(f"{rs.spec.name:<14s} {len(rs):>3d} cells  "
              f"spec {prov.get('spec_hash', '?'):<12s} "
              f"git {str(prov.get('git', '?')):<16s} "
              f"{prov.get('created', '')}")
    return 0


def _results_path(out: Path, target: str) -> Path:
    """Resolve a ``results --diff`` operand: a path or a persisted name."""
    from repro.experiments.results import RESULTSET_SUFFIX

    path = Path(target)
    if path.is_file():
        return path
    return out / f"{target}{RESULTSET_SUFFIX}"


def _cmd_suites(args: argparse.Namespace) -> int:
    from repro.experiments import SUITES, get_suite, render_index

    if args.write_index:
        Path(args.write_index).write_text(render_index() + "\n")
        print(f"wrote {args.write_index}")
        return 0
    for name, entry in SUITES.items():
        spec = get_suite(name)
        print(f"{name:<14s} {len(spec.cells()):>3d} cells  {entry.summary}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro import api
    from repro.api.facade import _DEFAULT_CACHE

    for key, value in api.cache_info().items():
        print(f"{key:<12s} {value}")
    # Row-cache byte accounting: lazily-built graph metrics are where a
    # cached instance actually spends heap beyond its distance matrix.
    for spec, instance in _DEFAULT_CACHE._instances.items():
        stats = getattr(instance.metric, "row_cache_stats", None)
        if stats is None:
            continue
        report = stats()
        line = "  ".join(f"{k}={v}" for k, v in report.items())
        print(f"{spec.display:<20s} row-cache: {line}")
    return 0


def _structure_summary(fitted) -> str:
    container = fitted.container
    meta = container.meta
    guarantee = json.dumps(meta.get("guarantee", {}), sort_keys=True)
    lines = [
        f"path        {container.path}",
        f"scheme      {meta.get('scheme')}",
        f"workload    {meta.get('workload', {}).get('workload')}"
        f"(n={meta.get('metric', {}).get('n')})",
        f"version     {container.version}",
        f"hash        {container.content_hash}",
        f"bytes       {container.path.stat().st_size:,} on disk, "
        f"{container.resident_bytes():,} in arrays",
        f"arrays      {len(container.arrays)}",
        f"guarantee   {guarantee}",
    ]
    return "\n".join(lines)


def _cmd_save(args: argparse.Namespace) -> int:
    from repro import api

    config = {}
    if args.delta is not None:
        config["delta"] = args.delta
    workload_params: Dict[str, object] = {}
    if args.k is not None:
        workload_params["k"] = args.k
    if args.dim is not None:
        workload_params["dim"] = args.dim
    fitted = api.build(
        args.scheme, workload=args.workload, n=args.n, seed=args.seed,
        config=config or None,
        workload_params=workload_params or None,
    )
    content_hash = api.save(fitted, args.path)
    size = Path(args.path).stat().st_size
    print(f"saved {args.scheme} on {args.workload}(n={fitted.workload.n}) "
          f"to {args.path} ({size:,} bytes, {content_hash})")
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    from repro import api
    from repro.routing.base import RouteResult

    fitted = api.load(args.path, verify=args.verify)
    print(_structure_summary(fitted))
    if args.pair is not None:
        u, v = args.pair
        answer = fitted.query(u, v)
        if isinstance(answer, RouteResult):
            print(f"route({u},{v})  reached={answer.reached} hops={answer.hops} "
                  f"path={answer.path}")
        else:
            print(f"estimate({u},{v})  {answer:.6g}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro import api
    from repro.serve import StructureServer

    fitted = api.load(args.path)

    async def _run() -> None:
        server = StructureServer(
            fitted,
            host=args.host,
            port=args.port,
            batch_pairs=args.batch_pairs,
        )
        host, port = await server.start()
        scheme = fitted.container.meta.get("scheme")
        print(f"serving {scheme} from {args.path} on {host}:{port} "
              f"(NDJSON; ops: estimate, route, stats, shutdown)", flush=True)
        await server.serve_until_stopped()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rings of neighbors (Slivkins, PODC 2005) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered workloads and schemes")
    p_list.set_defaults(func=_cmd_list)

    p_info = sub.add_parser("info", help="print a workload's metric profile")
    _add_workload_arguments(p_info)
    p_info.set_defaults(func=_cmd_info)

    p_tri = sub.add_parser("triangulate", help="Theorem 3.2 triangulation")
    _add_workload_arguments(p_tri)
    p_tri.add_argument("--delta", type=float, default=0.3)
    p_tri.add_argument("--pair", type=int, nargs=2, default=(0, 1))
    p_tri.set_defaults(func=_cmd_triangulate)

    p_lab = sub.add_parser("labels", help="Theorem 3.4 distance labels")
    _add_workload_arguments(p_lab)
    p_lab.add_argument("--delta", type=float, default=0.3)
    p_lab.add_argument("--pair", type=int, nargs=2, default=(0, 1))
    p_lab.set_defaults(func=_cmd_labels)

    p_route = sub.add_parser("route", help="compact routing on a kNN graph")
    p_route.add_argument("--scheme", default="thm2.1",
                         choices=["trivial", "thm2.1", "thm4.1", "thm4.2"])
    p_route.add_argument("--n", type=int, default=96)
    p_route.add_argument("--k", type=int, default=4)
    p_route.add_argument("--delta", type=float, default=0.25)
    p_route.add_argument("--seed", type=int, default=0)
    _add_plan_arguments(p_route)
    p_route.set_defaults(func=_cmd_route, pairs=300)

    p_eval = sub.add_parser(
        "evaluate", help="evaluate any registered scheme over a query plan")
    _add_workload_arguments(p_eval)
    p_eval.add_argument("--scheme", default="triangulation",
                        help="a scheme name from `repro list`")
    _add_plan_arguments(p_eval)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_update = sub.add_parser(
        "update", help="stream join/leave churn into a mutable scheme")
    # Every workload: route-thm2.1 updates only on a graph workload.
    from repro.api import workload_names

    _add_workload_arguments(p_update, choices=workload_names())
    p_update.add_argument(
        "--scheme", default="triangulation", choices=_mutable_scheme_names(),
        help="which mutable scheme to build and update")
    p_update.add_argument(
        "--joins", default="", help="comma-separated node ids to join")
    p_update.add_argument(
        "--leaves", default="", help="comma-separated node ids to remove")
    p_update.add_argument(
        "--events", type=int, default=0,
        help="instead of one batch, stream a generated ChurnTrace of this "
             "many events")
    p_update.add_argument(
        "--rate", type=float, default=0.01,
        help="per-event churn rate for --events (fraction of n)")
    p_update.add_argument(
        "--trace-seed", type=int, default=0,
        help="seed for the generated ChurnTrace")
    p_update.add_argument(
        "--compact", action="store_true",
        help="force-merge the pending patch after the updates")
    p_update.set_defaults(func=_cmd_update)

    p_run = sub.add_parser(
        "run", help="run an experiment grid (named suite or spec JSON)")
    p_run.add_argument("target",
                       help="a suite name from `repro suites` or a spec .json path")
    p_run.add_argument("--out", default=None,
                       help="results directory (default: benchmarks/results)")
    p_run.add_argument("--processes", type=int, default=None,
                       help="cell-level process pool size; 0 or omitted = "
                            "one per core (os.cpu_count()), 1 = serial")
    p_run.add_argument("--override-n", type=int, default=None, metavar="N",
                       help="rebuild every workload of the suite at size N "
                            "(persists as <suite>-nN; CI smokes the *-large "
                            "suites this way)")
    p_run.add_argument("--resume", action="store_true",
                       help="reuse cells from a previously persisted run")
    p_run.add_argument("--no-persist", action="store_true",
                       help="do not write <name>.resultset.json")
    p_run.add_argument("--json", default=None, metavar="PATH",
                       help="dump the full ResultSet JSON to PATH ('-' = stdout)")
    p_run.set_defaults(func=_cmd_run)

    p_results = sub.add_parser(
        "results", help="list or diff persisted experiment result sets")
    p_results.add_argument("--out", default=None,
                           help="results directory (default: benchmarks/results)")
    p_results.add_argument("--diff", nargs=2, metavar=("A", "B"),
                           help="compare two result sets (names or paths)")
    p_results.set_defaults(func=_cmd_results)

    p_suites = sub.add_parser(
        "suites", help="list named experiment suites")
    p_suites.add_argument("--write-index", default=None, metavar="PATH",
                          help="regenerate the EXPERIMENTS.md index to PATH")
    p_suites.set_defaults(func=_cmd_suites)

    p_cache = sub.add_parser(
        "cache", help="show the facade build cache's entries/hits/misses")
    p_cache.set_defaults(func=_cmd_cache)

    from repro.serve.persist import PERSISTABLE_SCHEMES

    p_save = sub.add_parser(
        "save", help="build a scheme and persist it as a container file")
    p_save.add_argument("path", help="output structure file")
    p_save.add_argument("--scheme", default="triangulation",
                        choices=list(PERSISTABLE_SCHEMES))
    p_save.add_argument("--workload", default="hypercube",
                        help="any workload from `repro list` (routing "
                             "schemes need a graph workload, e.g. knn-graph)")
    p_save.add_argument("--n", type=int, default=None)
    p_save.add_argument("--seed", type=int, default=0)
    p_save.add_argument("--dim", type=int, default=None)
    p_save.add_argument("--k", type=int, default=None,
                        help="kNN degree for graph workloads")
    p_save.add_argument("--delta", type=float, default=None,
                        help="scheme delta (schemes that accept one)")
    p_save.set_defaults(func=_cmd_save)

    p_load = sub.add_parser(
        "load", help="open a saved structure and print its summary")
    p_load.add_argument("path", help="structure file from `repro save`")
    p_load.add_argument("--verify", action="store_true",
                        help="recompute the content hash before loading")
    p_load.add_argument("--pair", type=int, nargs=2, default=None,
                        help="also answer one pair: the estimate, or the route "
                             "of a routing scheme")
    p_load.set_defaults(func=_cmd_load)

    p_serve = sub.add_parser(
        "serve", help="serve a saved structure over newline-delimited JSON")
    p_serve.add_argument("path", help="structure file from `repro save`")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="0 = pick a free port (printed on startup)")
    p_serve.add_argument("--batch-pairs", type=int, default=4096,
                         help="max pairs coalesced into one estimate call: "
                              "a batch takes every request already queued "
                              "up to this many pairs, with no timer")
    p_serve.set_defaults(func=_cmd_serve)

    p_sw = sub.add_parser("smallworld", help="searchable small worlds")
    _add_workload_arguments(p_sw)
    p_sw.add_argument("--model", default="5.2a",
                      choices=["5.2a", "5.2b", "5.5", "structures", "kleinberg"],
                      help="5.5 and kleinberg always use their grid "
                           "substrates and ignore --workload")
    p_sw.add_argument("--c", type=float, default=2.0)
    p_sw.add_argument("--queries", type=int, default=300)
    p_sw.set_defaults(func=_cmd_smallworld)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
