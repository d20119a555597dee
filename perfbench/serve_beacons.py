"""serve-beacons: the serve layer under a closed loop.

Beacons (k=16) on a 10^4-point hypercube is built, saved, memory-mapped
back with ``api.load`` and served by an in-process ``StructureServer``
on loopback TCP.  A beacon estimate is a 16-column min, a small share of
a request's time, so the serve layer's parse, queue, batch and encode
dominate.  Two phases run one after the other, each on its own
connection: bulk (1024-pair requests, 2 in flight) is CPU-bound on
per-pair JSON; interactive (16-pair requests, 1 in flight) mostly waits
on the micro-batch window.  Mixing them on one server made throughput
depend on batch composition, so they stay apart.

A run is ``passes`` passes, each a fresh setup (one ``setup_s``
sample) followed by a bulk slice and an interactive slice.  Spreading
setups and both phases over the whole run lets every metric see the
same host drift, which on a shared machine moves from seconds to minutes.
A slice sends a fixed number of requests, ``seconds / (2 * passes)``
times a nominal request rate, so the slices last about ``seconds`` in
all on a 2-vCPU host and faster code serves the same requests, not more.

Request lines come pre-encoded from a pool drawn from the seed, so the
client does no per-pair work while timed.  Every response is checked:
its estimates must be byte-equal to the first response to the same
request line, and that first response is parsed and compared
bit-for-bit with the loaded structure's direct ``estimate_many``.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from common import Outcome, peak_rss_mb, reset_peak_rss, window_rates

#: the structure is built at the API's default seed; ``--seed`` only
#: draws the request pairs
BUILD_SEED = 0
BEACONS = 16
#: bulk requests kept in flight; the interactive phase keeps one
BULK_IN_FLIGHT = 2
#: responses per rate window, in both phases
RATE_WINDOW = 4


@dataclass(frozen=True)
class ServeSize:
    n: int = 10_000
    bulk_pairs: int = 1024
    small_pairs: int = 16
    bulk_pool: int = 32
    small_pool: int = 256
    #: nominal requests per second, (bulk, interactive)
    rates: Tuple[float, float] = (300.0, 550.0)
    passes: int = 8


SIZE = ServeSize()


@dataclass
class PhaseLog:
    """One phase slice as the client saw it: latencies and completion
    times, the first response to each request line, and how many later
    responses repeated or changed its estimates."""

    latencies: List[float] = field(default_factory=list)
    stamps: List[float] = field(default_factory=list)
    first: Dict[int, bytes] = field(default_factory=dict)
    same: Dict[int, int] = field(default_factory=dict)
    differ: Dict[int, int] = field(default_factory=dict)
    errors: int = 0
    attempted: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    start: float = 0.0


_EST = b'"estimates": ['
_ID = b'"id": '


def _request_pool(n: int, pairs: int, count: int, rng) -> Tuple[List[bytes], List[np.ndarray]]:
    """``count`` pre-encoded estimate lines of ``pairs`` distinct-node
    pairs each; the line's id is its pool index."""
    lines, arrays = [], []
    for idx in range(count):
        us = rng.integers(0, n, pairs)
        vs = (us + rng.integers(1, n, pairs)) % n
        block = np.stack([us, vs], axis=1)
        arrays.append(block)
        payload = {"id": idx, "op": "estimate", "pairs": block.tolist()}
        lines.append((json.dumps(payload) + "\n").encode())
    return lines, arrays


def _estimates_and_id(line: bytes) -> Tuple[Optional[bytes], int]:
    """(estimates slice, request id) of a response line without parsing
    the JSON; error responses have no estimates slice."""
    start = line.find(_EST)
    if start < 0:
        ident = json.loads(line).get("id")
        return None, ident if isinstance(ident, int) else -1
    end = line.find(b"]", start)
    at = line.find(_ID, end) + len(_ID)
    return line[start:end], int(line[at:line.find(b",", at)])


async def _phase(host: str, port: int, lines: List[bytes], in_flight: int,
                 count: int, tracer, name: str) -> PhaseLog:
    """One closed-loop connection: keep ``in_flight`` requests out and
    send the next one when a response arrives, ``count`` in all."""
    reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
    log = PhaseLog()
    pool = len(lines)
    sent_at: Dict[int, float] = {}
    reference: Dict[int, bytes] = {}
    issued = done = 0

    def send() -> None:
        nonlocal issued
        idx = issued % pool
        sent_at[idx] = time.perf_counter()
        writer.write(lines[idx])
        issued += 1

    log.start = time.perf_counter()
    cpu0 = time.process_time()
    for _ in range(min(in_flight, count)):
        send()
    await writer.drain()
    while issued > done:
        line = await reader.readline()
        now = time.perf_counter()
        if not line:
            break
        done += 1
        estimates, idx = _estimates_and_id(line)
        if estimates is None or idx not in sent_at:
            log.errors += 1
        else:
            log.latencies.append(now - sent_at[idx])
            log.stamps.append(now)
            tracer.record("serve.request", sent_at[idx], now, f"{name}:{done}")
            if idx not in reference:
                reference[idx] = estimates
                log.first[idx] = line
                log.same[idx], log.differ[idx] = 1, 0
            elif estimates == reference[idx]:
                log.same[idx] += 1
            else:
                log.differ[idx] += 1
        if issued < count:
            send()
            await writer.drain()
    log.wall = time.perf_counter() - log.start
    log.cpu = time.process_time() - cpu0
    log.attempted = issued
    log.errors += issued - done
    writer.close()
    await writer.wait_closed()
    return log


def check_phase(log: PhaseLog, expected: List[np.ndarray]) -> Tuple[int, List[str]]:
    """Parse each stored first response and compare it bit-for-bit with
    the direct answer; returns (failed responses, mismatch notes).  A
    wrong first response condemns every response byte-equal to it; a
    response that differs from a right first one is wrong itself."""
    failed, notes = log.errors, []
    for idx, line in log.first.items():
        response = json.loads(line)
        got = np.asarray(response.get("estimates", []), dtype=float)
        want = expected[idx]
        if not response.get("ok") or got.shape != want.shape or not np.array_equal(got, want):
            failed += log.same[idx] + log.differ[idx]
            notes.append(f"request {idx}: served estimates differ from estimate_many")
        elif log.differ[idx]:
            failed += log.differ[idx]
            notes.append(f"request {idx}: {log.differ[idx]} responses changed between repeats")
    if log.errors:
        notes.append(f"{log.errors} requests got an error or no response")
    return failed, notes


class _BatchTimer:
    """Times the server's ``estimate_many`` calls on one loaded structure
    (an instance attribute shadowing the method) into ``sink`` when set."""

    def __init__(self, inner) -> None:
        self.sink: Optional[List[float]] = None
        self._call = inner.estimate_many
        inner.estimate_many = self

    def __call__(self, us, vs):
        tick = time.perf_counter()
        answer = self._call(us, vs)
        if self.sink is not None:
            self.sink.append(time.perf_counter() - tick)
        return answer


async def _setup(api, size: ServeSize, workdir: Path, i: int, tracer):
    """Build, save, load, start: the timed path to ready-to-serve.
    Returns its time and, within it, the save plus load time."""
    from repro.serve import StructureServer

    tick = time.perf_counter()
    with tracer.span("bench.setup", ident=f"setup:{i}"):
        fitted = api.build("beacons", "hypercube", n=size.n, seed=BUILD_SEED,
                           beacons=BEACONS, cache=api.BuildCache())
        path = workdir / f"beacons-{i}.repro"
        built = time.perf_counter()
        api.save(fitted, path)
        loaded = api.load(path)
        stored = time.perf_counter() - built
    timer = _BatchTimer(loaded.inner)
    server = StructureServer(loaded)
    with tracer.detached():
        await server.start()
        runner = asyncio.create_task(server.serve_until_stopped())
    elapsed = time.perf_counter() - tick
    points = np.array(fitted.workload.metric.points)
    return elapsed, stored, loaded, server, runner, points, timer


async def _stop(server, runner) -> None:
    await server.stop()
    await asyncio.wait_for(runner, 30)


async def _execute(api, size: ServeSize, seed: int, seconds: float, tracer,
                   workdir: Path, tamper: Optional[Callable[[PhaseLog], None]]) -> Outcome:
    out = Outcome()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    bulk_lines, bulk_pairs = _request_pool(size.n, size.bulk_pairs, size.bulk_pool, rng)
    small_lines, small_pairs = _request_pool(size.n, size.small_pairs, size.small_pool, rng)
    plan = (("bulk", bulk_lines, bulk_pairs, BULK_IN_FLIGHT, 0),
            ("small", small_lines, small_pairs, 1, 1))
    slice_s = seconds / (2 * size.passes)
    counts = [max(1, round(slice_s * rate)) for rate in size.rates]

    setups, stores, reads, ratios = [], [], [], []
    latencies = {"bulk": [], "small": []}
    rates = {"bulk": [], "small": []}
    batch = {"bulk": [0, 0], "small": [0, 0]}
    wall = {"bulk": 0.0, "small": 0.0}
    cpu = {"bulk": 0.0, "small": 0.0}
    estimate_s = 0.0
    requests = 0
    for p in range(size.passes):
        elapsed, stored, loaded, server, runner, points, timer = await _setup(
            api, size, workdir, p, tracer)
        setups.append(elapsed)
        stores.append(stored)
        logs = {}
        for name, lines, _, in_flight, k in plan:
            before = dict(server.counters)
            timer.sink = reads if name == "bulk" else None
            with tracer.span(f"bench.{name}", ident=f"pass{p}:{name}"):
                log = await _phase(server.host, server.port, lines, in_flight,
                                   counts[k], tracer, f"pass{p}:{name}")
            timer.sink = None
            logs[name] = log
            batch[name][0] += server.counters["estimate_pairs"] - before["estimate_pairs"]
            batch[name][1] += server.counters["estimate_batches"] - before["estimate_batches"]
        requests += server.counters["requests"]
        await _stop(server, runner)

        with tracer.paused():
            # Direct answers on the same pairs: the check's reference.
            expected = {
                name: [np.asarray(loaded.inner.estimate_many(b[:, 0], b[:, 1])) for b in pool]
                for name, _, pool, _, _ in plan
            }
        if tamper is not None:
            tamper(logs["bulk"])
        for name, _, pool, _, _ in plan:
            log = logs[name]
            failed, notes = check_phase(log, expected[name])
            out.failed += failed
            out.attempted += log.attempted
            out.mismatches += notes
            latencies[name] += log.latencies
            units = size.bulk_pairs if name == "bulk" else 1
            rates[name] += window_rates(log.stamps, units, RATE_WINDOW)
            wall[name] += log.wall
            cpu[name] += log.cpu
            if p == 0:
                for idx, line in log.first.items():
                    served = np.asarray(json.loads(line).get("estimates", []), dtype=float)
                    block = pool[idx]
                    true = np.linalg.norm(points[block[:, 0]] - points[block[:, 1]], axis=1)
                    if served.shape == true.shape:
                        ratios.append(served / true)
        bulk = logs["bulk"]
        estimate_s += tracer.busy_between(
            "labeling.estimate_many", bulk.start, bulk.start + bulk.wall)

    bulk_pairs_total = len(latencies["bulk"]) * size.bulk_pairs
    out.metrics = {
        "setup_s": out.sample("setup_s", setups),
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": (out.attempted - out.failed) / out.attempted,
        "mean_stretch": float(np.mean(np.concatenate(ratios))),
        "pairs_per_s": out.sample("pairs_per_s", rates["bulk"], better="higher"),
        "events_per_s": out.sample("events_per_s", rates["small"], better="higher"),
        "bulk_p50_ms": out.sample("bulk_p50_ms", np.array(latencies["bulk"]) * 1e3),
        "small_p50_ms": out.sample("small_p50_ms", np.array(latencies["small"]) * 1e3),
        # The first save and load in a process pay one-time costs (7-11 ms
        # against 2-4 ms after), which a serving process pays once.
        "update_p50_ms": out.sample("update_p50_ms", np.array(stores[1:]) * 1e3),
        "read_p50_ms": out.sample("read_p50_ms", np.array(reads) * 1e3),
    }
    out.layer = {
        "serve.requests": float(requests),
        "serve.bulk_mean_batch_pairs": batch["bulk"][0] / max(1, batch["bulk"][1]),
        "serve.small_mean_batch_pairs": batch["small"][0] / max(1, batch["small"][1]),
        "serve.bulk_estimate_share": estimate_s / wall["bulk"],
        "serve.bulk_busy_share": cpu["bulk"] / wall["bulk"],
        "serve.small_busy_share": cpu["small"] / wall["small"],
        "serve.cpu_us_per_pair": cpu["bulk"] * 1e6 / bulk_pairs_total if bulk_pairs_total else 0.0,
    }
    out.context = {"passes": size.passes, "bulk_requests": len(latencies["bulk"]),
                   "small_requests": len(latencies["small"]),
                   "bulk_wall_s": wall["bulk"], "small_wall_s": wall["small"]}
    return out


def run(size: ServeSize, seed: int, seconds: float, tracer, workdir: Path,
        tamper: Optional[Callable[[PhaseLog], None]] = None) -> Outcome:
    """One execution: ``passes`` passes of setup, bulk slice, interactive
    slice and checks.  ``tamper`` may alter a pass's stored bulk
    responses before they are checked (the smoke test uses it to show
    that the check catches a changed answer)."""
    from repro import api

    reset_peak_rss()
    return asyncio.run(_execute(api, size, seed, seconds, tracer, workdir, tamper))
