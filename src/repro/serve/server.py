"""Asyncio query service over a fitted scheme (stdlib only).

Newline-delimited JSON over TCP: each request line is an object with an
``op`` (``estimate`` / ``route`` / ``stats`` / ``shutdown``), an opaque
``id`` echoed back, and op-specific fields.  Every response carries the
scheme's quality guarantee and the structure's content hash, so clients
can serve estimates *optimistically* — the certified (stretch, δ)
envelope travels with the answer instead of being coordinated out of
band.

``estimate`` requests do not run one NumPy call each: they enqueue
their pairs on a bounded queue (backpressure — a slow estimator stalls
readers instead of buffering unboundedly) and a single batcher task
takes the first queued request, adds whatever else is already queued up
to ``batch_pairs`` pairs, and makes one vectorized ``estimate_many``
call at once, then scatters the results back to the waiting futures.
It never waits on a timer: requests that arrive while a batch computes
form the next batch, so batches grow with load by themselves, and a
sub-millisecond window would cost a full millisecond anyway (the epoll
selector rounds every timeout up to 1 ms).  ``route`` and ``stats`` are
handled inline.  Shutdown drains: the listener closes first, in-flight
requests finish, then the batcher exits.

``stats`` reports, besides request counters, the cumulative seconds of
three stages: ``serve.queue_wait_s`` (each estimate request, from
enqueue to the start of its batch), ``labeling.estimate_many_s`` (each
batch's ``estimate_many`` call) and ``serve.encode_s`` (each response's
JSON encoding).

A line, request or response, may hold up to :data:`LINE_LIMIT` bytes
before its newline; both ends read with that limit.  The server answers
a longer request line with ``ok: false`` and an error naming the limit,
then closes the connection (the rest of that line cannot be parsed).

Protocol examples::

    {"id": 1, "op": "estimate", "pairs": [[0, 5], [3, 9]]}
    {"id": 2, "op": "route", "pairs": [[0, 5]]}
    {"id": 3, "op": "stats"}

    {"id": 1, "ok": true, "op": "estimate", "estimates": [1.5, 0.75],
     "batch_pairs": 130, "guarantee": {...}, "structure_hash": "sha256:..."}
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro._types import as_node_pairs, integer_ids

__all__ = ["LINE_LIMIT", "StructureServer", "serve_structure"]

#: Longest NDJSON line (bytes before the newline) either end reads.  A
#: response of ``batch_pairs`` estimates must fit in it; 16 MiB holds
#: about 800k estimates, asyncio's 64 KiB default about 3,000.
LINE_LIMIT = 1 << 24


def _estimate_many(inner, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """One vectorized call when the structure has it, else a tight loop
    (only the Thorup–Zwick baseline lacks ``estimate_many``).  Routing
    structures have no estimator: their estimate is the routed path's
    total weight, which the scheme's stretch guarantee bounds."""
    if hasattr(inner, "estimate_many"):
        return np.asarray(inner.estimate_many(us, vs), dtype=float)
    if hasattr(inner, "estimate"):
        out = np.empty(us.shape[0], dtype=float)
        for i in range(us.shape[0]):
            out[i] = inner.estimate(int(us[i]), int(vs[i]))
        return out
    graph = inner.graph
    out = np.empty(us.shape[0], dtype=float)
    for i in range(us.shape[0]):
        result = inner.route(int(us[i]), int(vs[i]))
        out[i] = result.length(graph) if result.reached else np.inf
    return out


class StructureServer:
    """Serve one fitted scheme's estimate/route queries over TCP."""

    def __init__(
        self,
        fitted,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_pairs: int = 4096,
        queue_requests: int = 1024,
    ) -> None:
        if batch_pairs < 1:
            raise ValueError("batch_pairs must be >= 1")
        self.fitted = fitted
        self.host = host
        self.port = port
        self.batch_pairs = int(batch_pairs)
        self.guarantee = fitted.guarantee()
        self.structure_hash = getattr(fitted, "structure_hash", None)
        self._n = int(fitted.workload.metric.n)
        self._can_route = hasattr(fitted.inner, "route")
        # (us, vs, future, perf_counter() at enqueue) per estimate request
        self._queue: "asyncio.Queue[Tuple[np.ndarray, np.ndarray, asyncio.Future, float]]" = (
            asyncio.Queue(maxsize=queue_requests)
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._batcher_task: Optional[asyncio.Task] = None
        self._stopping = asyncio.Event()
        self._connections = 0
        # Operator counters, reported by the stats endpoint.
        self.counters = {
            "requests": 0,
            "errors": 0,
            "estimate_pairs": 0,
            "estimate_batches": 0,
            "route_pairs": 0,
        }
        # Cumulative seconds per serving stage, reported by stats.
        self.timings = {
            "serve.queue_wait_s": 0.0,
            "labeling.estimate_many_s": 0.0,
            "serve.encode_s": 0.0,
        }

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns (host, port)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._batcher_task = asyncio.create_task(self._batcher())
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=LINE_LIMIT
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` request)."""
        await self._stopping.wait()
        await self._shutdown()

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work, exit."""
        self._stopping.set()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            try:
                # On 3.12+ wait_closed also waits for open connections;
                # don't let one lingering idle client block the drain.
                await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)
            except asyncio.TimeoutError:
                pass
        await self._queue.join()
        if self._batcher_task is not None:
            self._batcher_task.cancel()
            try:
                await self._batcher_task
            except asyncio.CancelledError:
                pass

    # -- micro-batching ------------------------------------------------

    async def _batcher(self) -> None:
        """Coalesce queued estimate requests into single NumPy calls: the
        first queued request plus whatever else is already queued, up to
        ``batch_pairs`` pairs (the last request may overshoot)."""
        queue = self._queue
        timings = self.timings
        while True:
            batch = [await queue.get()]
            pairs = batch[0][0].size
            while pairs < self.batch_pairs and not queue.empty():
                item = queue.get_nowait()
                batch.append(item)
                pairs += item[0].size
            us = np.concatenate([item[0] for item in batch])
            vs = np.concatenate([item[1] for item in batch])
            start = time.perf_counter()
            timings["serve.queue_wait_s"] += sum(start - item[3] for item in batch)
            try:
                estimates = _estimate_many(self.fitted.inner, us, vs)
            except Exception as err:  # propagate to every waiter
                for _, _, future, _ in batch:
                    if not future.cancelled():
                        future.set_exception(
                            RuntimeError(f"estimate batch failed: {err}")
                        )
                    queue.task_done()
                continue
            timings["labeling.estimate_many_s"] += time.perf_counter() - start
            self.counters["estimate_batches"] += 1
            self.counters["estimate_pairs"] += int(us.size)
            offset = 0
            for item_us, _, future, _ in batch:
                size = item_us.size
                if not future.cancelled():
                    future.set_result(
                        (estimates[offset : offset + size], int(us.size))
                    )
                offset += size
                queue.task_done()

    # -- request handling ----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        write_lock = asyncio.Lock()
        pending: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # longer than LINE_LIMIT
                    self.counters["requests"] += 1
                    self.counters["errors"] += 1
                    error = f"request line exceeds the {LINE_LIMIT}-byte limit"
                    await self._respond(writer, write_lock, {
                        "id": None, "ok": False, "error": error,
                    })
                    break
                if not line:
                    break
                task = asyncio.create_task(
                    self._process(line, writer, write_lock)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Listener close cancels handlers mid-read; exit quietly so
            # asyncio's connection callback doesn't log a traceback.
            pass
        finally:
            self._connections -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _process(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        self.counters["requests"] += 1
        request_id: Any = None
        try:
            request = json.loads(line)
            request_id = request.get("id")
            op = request.get("op")
            if op == "estimate":
                response = await self._op_estimate(request)
            elif op == "route":
                response = self._op_route(request)
            elif op == "stats":
                response = self._op_stats()
            elif op == "shutdown":
                response = {"ok": True, "op": "shutdown"}
                self._stopping.set()
            else:
                raise ValueError(f"unknown op {op!r}")
            response["id"] = request_id
            response["guarantee"] = self.guarantee
            response["structure_hash"] = self.structure_hash
        except Exception as err:
            self.counters["errors"] += 1
            response = {"id": request_id, "ok": False, "error": str(err)}
        await self._respond(writer, write_lock, response)

    async def _respond(
        self, writer: asyncio.StreamWriter, write_lock: asyncio.Lock, response: Dict
    ) -> None:
        tick = time.perf_counter()
        payload = (json.dumps(response) + "\n").encode("utf-8")
        self.timings["serve.encode_s"] += time.perf_counter() - tick
        async with write_lock:
            writer.write(payload)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _parse_pairs(self, request: Dict) -> Tuple[np.ndarray, np.ndarray]:
        # A float or JSON ``true`` id is refused, never truncated to a node.
        pairs = integer_ids(request.get("pairs", ()))
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] == 0:
            raise ValueError("pairs must be a non-empty list of [u, v] pairs")
        return as_node_pairs(pairs[:, 0], pairs[:, 1], self._n)

    async def _op_estimate(self, request: Dict) -> Dict:
        us, vs = self._parse_pairs(request)
        future = asyncio.get_running_loop().create_future()
        # bounded: backpressure, which counts as queue wait
        await self._queue.put((us, vs, future, time.perf_counter()))
        estimates, batch_pairs = await future
        return {
            "ok": True,
            "op": "estimate",
            "estimates": estimates.tolist(),
            "batch_pairs": batch_pairs,
        }

    def _op_route(self, request: Dict) -> Dict:
        if not self._can_route:
            raise ValueError("this structure does not support routing")
        us, vs = self._parse_pairs(request)
        self.counters["route_pairs"] += int(us.size)
        routes: List[Dict] = []
        for u, v in zip(us, vs):
            result = self.fitted.inner.route(int(u), int(v))
            routes.append(
                {
                    "reached": bool(result.reached),
                    "hops": len(result.path) - 1,
                    "path": [int(x) for x in result.path],
                    "header_bits": int(result.header_bits),
                }
            )
        return {"ok": True, "op": "route", "routes": routes}

    def _op_stats(self) -> Dict:
        fitted = self.fitted
        stats: Dict[str, Any] = {
            "ok": True,
            "op": "stats",
            "scheme": type(fitted).__name__,
            "workload": fitted.workload.spec.display,
            "n": self._n,
            "connections": self._connections,
            "counters": dict(self.counters),
            "batch_pairs_limit": self.batch_pairs,
            "line_limit_bytes": LINE_LIMIT,
            "timings": dict(self.timings),
        }
        container = getattr(fitted, "container", None)
        if container is not None:
            stats["structure_path"] = str(container.path)
            stats["structure_bytes"] = container.resident_bytes()
        # Resident-byte accounting (satellite): row caches are where a
        # lazily-served structure actually spends heap.
        metric = fitted.workload.metric
        if hasattr(metric, "row_cache_stats"):
            stats["metric_row_cache"] = metric.row_cache_stats()
        first_hops = getattr(fitted.inner, "first_hops", None)
        if first_hops is not None and getattr(first_hops, "_rows", None) is not None:
            stats["first_hop_row_cache"] = first_hops._rows.stats()
        return stats


async def serve_structure(
    fitted,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Optional[asyncio.Event] = None,
    **options,
) -> None:
    """Start a :class:`StructureServer` and run until shutdown.

    ``ready`` (if given) is set once the socket is bound; the bound port
    is published as ``server.port`` via the ``ready.server`` attribute.
    """
    server = StructureServer(fitted, host=host, port=port, **options)
    await server.start()
    if ready is not None:
        ready.server = server  # type: ignore[attr-defined]
        ready.set()
    await server.serve_until_stopped()
