"""The asyncio query service: batching, concurrency, stats, shutdown."""

import asyncio
import json

import numpy as np
import pytest

from repro import api
from repro.serve import LINE_LIMIT, ServeClient, ServeError, StructureServer
from repro.serve import client as client_module
from repro.serve import server as server_module


@pytest.fixture(scope="module")
def fitted():
    return api.build("triangulation", workload="hypercube", n=40, seed=3)


@pytest.fixture(scope="module")
def routed(tmp_path_factory):
    built = api.build("route-thm2.1", workload="knn-graph", n=40, seed=3)
    path = tmp_path_factory.mktemp("serve") / "router.repro"
    api.save(built, path)
    return api.load(path)


def _run(coro):
    return asyncio.run(coro)


async def _with_server(fitted, body, **options):
    server = StructureServer(fitted, **options)
    host, port = await server.start()
    runner = asyncio.create_task(server.serve_until_stopped())
    try:
        return await body(server, host, port)
    finally:
        await server.stop()
        await asyncio.wait_for(runner, 10)


class TestEstimate:
    def test_single_client_parity(self, fitted):
        async def body(server, host, port):
            client = await ServeClient.connect(host, port)
            rng = np.random.default_rng(0)
            pairs = rng.integers(0, 40, size=(64, 2))
            answers = await client.estimate(pairs)
            await client.close()
            return pairs, answers

        pairs, answers = _run(_with_server(fitted, body))
        expected = fitted.inner.estimate_many(pairs[:, 0], pairs[:, 1])
        assert np.array_equal(answers, expected)

    def test_two_clients_interleaved_batches(self, fitted):
        # Both clients share the server's event loop: a gather writes all
        # six requests before the server reads any, so the batcher finds
        # them queued together and answers them in one call.
        async def body(server, host, port):
            one = await ServeClient.connect(host, port)
            two = await ServeClient.connect(host, port)
            await one.stats()  # both connections accepted and reading
            await two.stats()
            rng = np.random.default_rng(1)
            chunks = [rng.integers(0, 40, size=(25, 2)) for _ in range(6)]
            responses = await asyncio.gather(*[
                (one if i % 2 == 0 else two).request("estimate", pairs=chunk.tolist())
                for i, chunk in enumerate(chunks)
            ])
            await one.close()
            await two.close()
            return chunks, responses, dict(server.counters)

        chunks, responses, counters = _run(_with_server(fitted, body))
        for chunk, response in zip(chunks, responses):
            expected = fitted.inner.estimate_many(chunk[:, 0], chunk[:, 1])
            assert np.array_equal(response["estimates"], expected)
        assert counters["estimate_pairs"] == 150
        assert counters["estimate_batches"] == 1
        assert [r["batch_pairs"] for r in responses] == [150] * 6

    def test_queued_requests_fill_batches_up_to_the_cap(self, fitted):
        # A batch adds queued requests until it holds batch_pairs pairs;
        # the request that crosses the cap still joins (75 >= 60).
        async def body(server, host, port):
            client = await ServeClient.connect(host, port)
            chunks = [[[i, (i + 1) % 40]] * 25 for i in range(6)]
            responses = await asyncio.gather(*[
                client.request("estimate", pairs=chunk) for chunk in chunks
            ])
            await client.close()
            return responses, dict(server.counters)

        responses, counters = _run(_with_server(fitted, body, batch_pairs=60))
        assert counters["estimate_batches"] == 2
        assert [r["batch_pairs"] for r in responses] == [75] * 6

    def test_requests_sent_one_at_a_time_get_their_own_call(self, fitted):
        async def body(server, host, port):
            client = await ServeClient.connect(host, port)
            responses = [
                await client.request("estimate", pairs=[[i, i + 1]] * 25)
                for i in range(6)
            ]
            await client.close()
            return responses, dict(server.counters)

        responses, counters = _run(_with_server(fitted, body))
        assert counters["estimate_batches"] == 6
        assert [r["batch_pairs"] for r in responses] == [25] * 6

    def test_batcher_sets_no_timer(self, fitted):
        # A lone request is computed as soon as the batcher sees it: no
        # collection window, so nothing on the request path schedules a
        # timer on the event loop.
        async def body(server, host, port):
            client = await ServeClient.connect(host, port)
            loop = asyncio.get_running_loop()
            timers = []
            call_at = loop.call_at

            def recording_call_at(when, callback, *args, **kwargs):
                timers.append(callback)
                return call_at(when, callback, *args, **kwargs)

            loop.call_at = recording_call_at
            try:
                for i in range(3):
                    await client.estimate([(i, i + 1)])
            finally:
                del loop.call_at
            await client.close()
            return timers

        assert _run(_with_server(fitted, body)) == []

    def test_batch_size_cap_respected(self, fitted):
        async def body(server, host, port):
            client = await ServeClient.connect(host, port)
            response = await client.request(
                "estimate", pairs=[[0, 1], [2, 3], [4, 5]]
            )
            await client.close()
            return response

        response = _run(_with_server(fitted, body, batch_pairs=2))
        assert len(response["estimates"]) == 3

    def test_response_carries_guarantee_and_hash(self, routed):
        async def body(server, host, port):
            client = await ServeClient.connect(host, port)
            await client.estimate([(0, 1)])
            guarantee = client.last_guarantee
            content_hash = client.last_structure_hash
            await client.close()
            return guarantee, content_hash

        guarantee, content_hash = _run(_with_server(routed, body))
        assert guarantee["kind"] == "routing-thm2.1"
        assert content_hash == routed.structure_hash


class TestRouteAndStats:
    def test_route_op(self, routed):
        async def body(server, host, port):
            client = await ServeClient.connect(host, port)
            routes = await client.route([(0, 7), (3, 3)])
            await client.close()
            return routes

        routes = _run(_with_server(routed, body))
        expected = routed.inner.route(0, 7)
        assert routes[0]["reached"] is True
        assert routes[0]["path"] == [int(x) for x in expected.path]
        assert routes[1]["hops"] == 0

    def test_route_rejected_for_estimators(self, fitted):
        async def body(server, host, port):
            client = await ServeClient.connect(host, port)
            with pytest.raises(ServeError, match="routing"):
                await client.route([(0, 1)])
            await client.close()

        _run(_with_server(fitted, body))

    def test_stats_report_stage_seconds(self, fitted):
        async def body(server, host, port):
            client = await ServeClient.connect(host, port)
            for i in range(3):
                await client.estimate([(i, i + 1), (i + 2, i + 5)])
            stats = await client.stats()
            await client.close()
            return stats

        timings = _run(_with_server(fitted, body))["timings"]
        assert set(timings) == {
            "serve.queue_wait_s", "labeling.estimate_many_s", "serve.encode_s",
        }
        assert all(seconds > 0 for seconds in timings.values())

    def test_stats_report_counters_and_caches(self, routed):
        async def body(server, host, port):
            client = await ServeClient.connect(host, port)
            await client.estimate([(0, 1), (2, 3)])
            await client.route([(0, 7)])
            stats = await client.stats()
            await client.close()
            return stats

        stats = _run(_with_server(routed, body))
        assert stats["n"] == 40
        assert stats["counters"]["estimate_pairs"] == 2
        assert stats["counters"]["route_pairs"] == 1
        assert stats["structure_bytes"] > 0
        # Satellite: row-cache byte accounting for the lazy graph metric.
        assert "metric_row_cache" in stats
        assert stats["metric_row_cache"]["budget_bytes"] > 0


class TestProtocolErrors:
    def test_bad_pairs_error_does_not_kill_connection(self, fitted):
        async def body(server, host, port):
            client = await ServeClient.connect(host, port)
            with pytest.raises(ServeError, match="pairs"):
                await client.estimate(np.empty((0, 2), dtype=int))
            with pytest.raises(ServeError, match="node ids"):
                await client.estimate([(0, 999)])
            answers = await client.estimate([(0, 1)])
            await client.close()
            return answers, dict(server.counters)

        answers, counters = _run(_with_server(fitted, body))
        assert answers.shape == (1,)
        assert counters["errors"] == 2

    @pytest.mark.parametrize("op", ["estimate", "route"])
    def test_float_and_bool_ids_rejected_not_truncated(self, fitted, routed, op):
        # [[1.9, 2.7]] must not be answered as pair (1, 2), nor JSON true
        # as node 1; the connection stays open for the next request.
        structure = fitted if op == "estimate" else routed

        async def body(server, host, port):
            client = await ServeClient.connect(host, port)
            for pairs in ([[1.9, 2.7]], [[True, 2]], [[0, 1], [False, 2]]):
                with pytest.raises(ServeError, match="integers"):
                    await client.request(op, pairs=pairs)
            response = await client.request(op, pairs=[[1, 2]])
            await client.close()
            return response, dict(server.counters)

        response, counters = _run(_with_server(structure, body))
        assert response["ok"] is True
        assert counters["errors"] == 3

    @pytest.mark.parametrize("method", ["estimate", "route"])
    def test_client_refuses_float_and_bool_ids_before_sending(
        self, fitted, routed, method
    ):
        # The client must not truncate 1.9 or True to node 1 either: it
        # raises before writing, so the server never sees the request.
        structure = fitted if method == "estimate" else routed

        async def body(server, host, port):
            client = await ServeClient.connect(host, port)
            call = getattr(client, method)
            bad = ([(1.9, 2)], [(True, 2)], [(0, 1), (False, 2)],
                   np.array([[1.0, 2.0]]), np.array([[True, False]]))
            for pairs in bad:
                with pytest.raises(ValueError, match="integers"):
                    await call(pairs)
            sent = server.counters["requests"]
            answer = await call(np.array([[1, 2]], dtype=np.int32))
            await client.close()
            return sent, answer

        sent, answer = _run(_with_server(structure, body))
        assert sent == 0
        if method == "estimate":
            assert np.array_equal(answer, fitted.inner.estimate_many([1], [2]))
        else:
            assert answer[0]["path"][0] == 1 and answer[0]["path"][-1] == 2

    def test_unknown_op(self, fitted):
        async def body(server, host, port):
            client = await ServeClient.connect(host, port)
            with pytest.raises(ServeError, match="unknown op"):
                await client.request("frobnicate")
            await client.close()

        _run(_with_server(fitted, body))


class TestLineLimit:
    def test_lines_over_asyncio_default_round_trip(self, fitted):
        # a ~50 KB request and a ~100 KB response: both over asyncio's
        # 64 KiB default stream limit
        async def body(server, host, port):
            client = await ServeClient.connect(host, port)
            pairs = np.random.default_rng(4).integers(0, 40, size=(5000, 2))
            answers = await client.estimate(pairs)
            stats = await client.stats()
            await client.close()
            return pairs, answers, stats

        pairs, answers, stats = _run(_with_server(fitted, body))
        expected = fitted.inner.estimate_many(pairs[:, 0], pairs[:, 1])
        assert np.array_equal(answers, expected)
        assert stats["line_limit_bytes"] == LINE_LIMIT

    def test_over_limit_request_gets_typed_error(self, fitted, monkeypatch):
        monkeypatch.setattr(server_module, "LINE_LIMIT", 4096)

        async def body(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            line = json.dumps({"id": 1, "op": "estimate", "pairs": [[0, 1]] * 1000})
            assert len(line) > 4096
            writer.write(line.encode() + b"\n")
            await writer.drain()
            response = json.loads(await asyncio.wait_for(reader.readline(), 10))
            try:
                rest = await asyncio.wait_for(reader.read(), 10)
            except ConnectionResetError:  # closed before the line was all read
                rest = b""
            writer.close()
            return response, rest, dict(server.counters)

        response, rest, counters = _run(_with_server(fitted, body))
        assert response["ok"] is False
        assert "4096-byte limit" in response["error"]
        assert rest == b""  # the server closed the connection
        assert counters["requests"] == counters["errors"] == 1

    def test_over_limit_response_fails_request_not_close(self, fitted, monkeypatch):
        monkeypatch.setattr(client_module, "LINE_LIMIT", 4096)

        async def body(server, host, port):
            client = await ServeClient.connect(host, port)
            with pytest.raises(ServeError, match="4096-byte limit"):
                await client.estimate([(0, 1)] * 1000)
            await client.close()

        _run(_with_server(fitted, body))


class TestShutdown:
    def test_shutdown_op_drains_and_exits(self, fitted):
        async def main():
            server = StructureServer(fitted)
            host, port = await server.start()
            runner = asyncio.create_task(server.serve_until_stopped())
            client = await ServeClient.connect(host, port)
            await client.estimate([(0, 1)])
            await client.shutdown_server()
            await client.close()
            await asyncio.wait_for(runner, 10)
            return True

        assert _run(main())
