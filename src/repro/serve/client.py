"""Asyncio client for :class:`repro.serve.server.StructureServer`.

Pipelined: requests get monotonically increasing ids and a background
reader task resolves responses by id, so many batches can be in flight
on one connection — which is what lets the serve benchmark keep the
server's micro-batcher saturated from a handful of sockets.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._types import integer_ids
from repro.serve.server import LINE_LIMIT

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """The server answered ``ok: false`` (the message is its error)."""


def _pair_lists(pairs) -> List[List[int]]:
    """``pairs`` as JSON-ready ``[u, v]`` lists.  A float or bool id
    raises :class:`ValueError` before anything is sent, as the server
    would refuse it: truncating it here would ask about another node."""
    return integer_ids(pairs).reshape(-1, 2).tolist()


class ServeClient:
    """One NDJSON connection to a structure server."""

    def __init__(self) -> None:
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._reader_task: Optional[asyncio.Task] = None
        #: guarantee/hash stamped on the most recent response
        self.last_guarantee: Optional[Dict[str, Any]] = None
        self.last_structure_hash: Optional[str] = None

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServeClient":
        client = cls()
        client._reader, client._writer = await asyncio.open_connection(
            host, port, limit=LINE_LIMIT
        )
        client._reader_task = asyncio.create_task(client._read_loop())
        return client

    async def _read_loop(self) -> None:
        error = ServeError("connection closed")
        try:
            while True:
                try:
                    line = await self._reader.readline()
                except ValueError:
                    error = ServeError(
                        f"response line exceeds the {LINE_LIMIT}-byte limit"
                    )
                    break
                if not line:
                    break
                response = json.loads(line)
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request and await its response dict."""
        if self._writer is None:
            raise ServeError("client is not connected")
        self._next_id += 1
        request_id = self._next_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        payload = dict(fields, id=request_id, op=op)
        self._writer.write((json.dumps(payload) + "\n").encode("utf-8"))
        await self._writer.drain()
        response = await future
        self.last_guarantee = response.get("guarantee", self.last_guarantee)
        self.last_structure_hash = response.get(
            "structure_hash", self.last_structure_hash
        )
        if not response.get("ok", False):
            raise ServeError(str(response.get("error", "request failed")))
        return response

    async def estimate(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> np.ndarray:
        """Batched distance estimates for ``pairs`` (aligned array)."""
        response = await self.request("estimate", pairs=_pair_lists(pairs))
        return np.asarray(response["estimates"], dtype=float)

    async def route(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> List[Dict[str, Any]]:
        """Route every pair; returns the per-pair route dicts."""
        response = await self.request("route", pairs=_pair_lists(pairs))
        return response["routes"]

    async def stats(self) -> Dict[str, Any]:
        return await self.request("stats")

    async def shutdown_server(self) -> None:
        await self.request("shutdown")

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
