"""End-to-end serving: TCP server, batcher, degradation paths, CLI wiring."""

from __future__ import annotations

import asyncio
import io
import json
import re
import socket
import threading
import time

import numpy as np
import pytest

from repro.cli import main
from repro.core.sharded import ShardedCollection
from repro.serve.batcher import QueueFullError, RequestBatcher
from repro.serve.client import ServeClient, ServeError
from repro.serve.engine import SpillQueryEngine
from repro.serve.metrics import ServerMetrics
from repro.serve.server import BackgroundServer, BatmapServer
from repro.utils.memory import parse_memory_size
from tests.conftest import random_sets

UNIVERSE = 512
N_SETS = 16
SEED = 21


@pytest.fixture(scope="module")
def spill(tmp_path_factory):
    base = tmp_path_factory.mktemp("serve_server")
    rng = np.random.default_rng(2)
    sets = random_sets(rng, N_SETS, UNIVERSE, min_size=1, max_size=120)
    ShardedCollection.build(sets, UNIVERSE, base / "spill", rng=SEED,
                            memory_budget=parse_memory_size("64M"),
                            max_sets_per_shard=6)
    return base / "spill", sets


@pytest.fixture(scope="module")
def server(spill):
    spill_dir, _ = spill
    with BackgroundServer(spill_dir) as bg:
        yield bg


@pytest.fixture
def client(server):
    with ServeClient(server.host, server.port) as c:
        yield c


@pytest.fixture(scope="module")
def engine(spill):
    spill_dir, _ = spill
    engine = SpillQueryEngine(ShardedCollection.from_spill(spill_dir))
    yield engine
    engine.close()


class TestOperations:
    def test_ping(self, client):
        assert client.ping() == "pong"

    def test_stats(self, client, engine):
        assert client.stats() == engine.stats()

    def test_member_matches_engine(self, client, engine):
        elements = list(range(-2, 40))
        assert client.member(3, elements) == [
            bool(b) for b in engine.members(3, elements)]

    def test_count_matches_engine(self, client, engine):
        pairs = [(0, 1), (5, 9), (2, 2), (9, 5)]
        expected = [int(c) for c in engine.count_pairs(np.array(pairs))]
        assert client.count(pairs) == expected

    def test_topk_matches_engine(self, client, engine):
        assert client.topk(4, 5) == [
            [j, c] for j, c in engine.top_k(4, 5)]

    def test_multiway_matches_engine(self, client, engine):
        direct = engine.multiway([0, 1, 2])
        served = client.multiway([0, 1, 2])
        assert served["elements"] == [int(x) for x in direct.elements]
        assert served["size"] == direct.size

    def test_metrics_shape(self, client):
        client.ping()
        metrics = client.metrics()
        assert metrics["requests_total"] >= 1
        assert "cache" in metrics and "served_lines" in metrics
        assert "latency_by_op" in metrics

    def test_pipelined_ids_match(self, server):
        # Raw protocol: several requests written before any response read.
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            f = sock.makefile("rwb")
            for request_id in range(5):
                f.write(json.dumps({"id": request_id, "op": "ping"})
                        .encode() + b"\n")
            f.flush()
            got = {json.loads(f.readline())["id"] for _ in range(5)}
        assert got == set(range(5))


class TestCaching:
    def test_repeat_query_hits_the_cache(self, spill):
        spill_dir, _ = spill
        with BackgroundServer(spill_dir) as bg:
            with ServeClient(bg.host, bg.port) as client:
                first = client.count([(0, 1)])
                before = client.metrics()["cache"]["hits"]
                assert client.count([(0, 1)]) == first
                assert client.metrics()["cache"]["hits"] == before + 1

    def test_cache_disabled_never_hits(self, spill):
        spill_dir, _ = spill
        with BackgroundServer(spill_dir, cache_entries=0) as bg:
            with ServeClient(bg.host, bg.port) as client:
                assert client.count([(0, 1)]) == client.count([(0, 1)])
                assert client.metrics()["cache"]["hits"] == 0


class TestErrors:
    def test_unknown_op_echoes_id(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            f = sock.makefile("rwb")
            f.write(b'{"id": 42, "op": "explode"}\n')
            f.flush()
            response = json.loads(f.readline())
        assert response["id"] == 42
        assert response["ok"] is False
        assert response["error"]["code"] == "unknown-op"

    def test_malformed_json(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            f = sock.makefile("rwb")
            f.write(b"this is not json\n")
            f.flush()
            response = json.loads(f.readline())
        assert response["error"]["code"] == "bad-request"

    def test_bad_params(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.request("topk", set=0, k=0)
        assert excinfo.value.code == "bad-request"

    def test_out_of_range_set(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.topk(N_SETS + 5, 2)
        assert excinfo.value.code == "bad-request"
        assert "out of range" in excinfo.value.message

    def test_timeout_when_engine_stalls(self, spill, monkeypatch):
        spill_dir, _ = spill
        monkeypatch.setattr(
            SpillQueryEngine, "members_batch",
            lambda self, queries: time.sleep(5) or [])
        with BackgroundServer(spill_dir, request_timeout=0.1) as bg:
            with ServeClient(bg.host, bg.port) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.member(0, [1])
                assert excinfo.value.code == "timeout"
                assert client.ping() == "pong"    # connection survives

    def test_errors_counted_in_metrics(self, spill):
        spill_dir, _ = spill
        with BackgroundServer(spill_dir) as bg:
            with ServeClient(bg.host, bg.port) as client:
                with pytest.raises(ServeError):
                    client.request("bogus-op")
                assert client.metrics()["errors_by_code"]["unknown-op"] == 1


class TestConcurrencyAndBatching:
    def test_concurrent_clients_get_correct_answers(self, server, engine):
        pairs = [(i, j) for i in range(N_SETS) for j in range(i + 1, N_SETS)]
        expected = {p: int(c) for p, c in
                    zip(pairs, engine.count_pairs(np.array(pairs)))}
        failures = []

        def worker(worker_id):
            rng = np.random.default_rng(worker_id)
            try:
                with ServeClient(server.host, server.port) as client:
                    for _ in range(20):
                        p = pairs[int(rng.integers(len(pairs)))]
                        if client.count([p]) != [expected[p]]:
                            failures.append(p)
            except Exception as exc:  # noqa: BLE001 — surfaced via the list
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert failures == []

    def test_batches_recorded(self, server):
        with ServeClient(server.host, server.port) as client:
            metrics = client.metrics()
        assert metrics["batches"] >= 1
        assert metrics["batched_requests"] >= metrics["batches"]


class TestBatcherUnit:
    class StallingEngine:
        """Blocks each members_batch call on its own event (call n -> event n)."""

        def __init__(self, n_calls=8):
            self.events = [threading.Event() for _ in range(n_calls)]
            self._calls = 0

        def members_batch(self, queries):
            event = self.events[self._calls]
            self._calls += 1
            event.wait(timeout=2)      # bounded so a leaked call cannot hang
            return [np.zeros(0, dtype=bool) for _ in queries]

    def test_backpressure_rejects_when_full(self):
        async def scenario():
            engine = self.StallingEngine()
            batcher = RequestBatcher(engine, ServerMetrics(),
                                     max_batch=1, max_queue=2)
            batcher.start()
            futures = [batcher.submit("member", {"set": 0, "elements": []})]
            await asyncio.sleep(0.05)   # drain takes #0, stalls in executor
            futures += [batcher.submit("member", {"set": 0, "elements": []})
                        for _ in range(2)]
            with pytest.raises(QueueFullError):
                batcher.submit("member", {"set": 0, "elements": []})
            for event in engine.events:
                event.set()
            results = await asyncio.gather(*futures)
            assert all(len(r) == 0 for r in results)
            await batcher.stop()

        asyncio.run(scenario())

    def test_stop_fails_queued_requests(self):
        async def scenario():
            engine = self.StallingEngine()
            batcher = RequestBatcher(engine, ServerMetrics(),
                                     max_batch=1, max_queue=8)
            batcher.start()
            first = batcher.submit("member", {"set": 0, "elements": []})
            await asyncio.sleep(0.05)
            queued = batcher.submit("member", {"set": 0, "elements": []})
            engine.events[0].set()             # only the first call completes
            await first
            # `queued` is either still in the queue or in-flight in a
            # cancelled batch — stop() must fail it either way, never
            # leave it unresolved.
            await batcher.stop()
            with pytest.raises(ConnectionResetError):
                await queued
            await batcher.stop()               # idempotent

        asyncio.run(scenario())

    def test_one_bad_request_cannot_poison_a_batch(self, engine):
        async def scenario():
            batcher = RequestBatcher(engine, ServerMetrics(),
                                     max_batch=8, max_queue=8)
            batcher.start()
            # paused drain would be nicer, but same-tick submits coalesce:
            good = batcher.submit("count", {"pairs": [[0, 1]]})
            bad = batcher.submit("count", {"pairs": [[0, N_SETS + 9]]})
            good2 = batcher.submit("count", {"pairs": [[1, 2]]})
            assert await good == [int(engine.count_pairs([(0, 1)])[0])]
            with pytest.raises(IndexError):
                await bad
            assert await good2 == [int(engine.count_pairs([(1, 2)])[0])]
            await batcher.stop()

        asyncio.run(scenario())

    def test_invalid_limits_rejected(self, engine):
        with pytest.raises(ValueError):
            RequestBatcher(engine, ServerMetrics(), max_batch=0)
        with pytest.raises(ValueError):
            RequestBatcher(engine, ServerMetrics(), max_queue=0)


class TestLifecycle:
    def test_max_requests_shuts_down(self, spill):
        spill_dir, _ = spill
        with BackgroundServer(spill_dir, max_requests=3) as bg:
            with ServeClient(bg.host, bg.port) as client:
                for _ in range(3):
                    client.ping()
        assert bg.final_metrics is not None
        assert bg.final_metrics["requests_total"] == 3

    def test_startup_error_is_surfaced(self, tmp_path):
        with pytest.raises(Exception, match="manifest|No such file|spill"):
            BackgroundServer(tmp_path / "nonexistent").start()

    def test_stop_is_idempotent(self, spill):
        spill_dir, _ = spill
        bg = BackgroundServer(spill_dir).start()
        bg.stop()
        bg.stop()

    def test_stop_during_connection_teardown_logs_nothing(self, tmp_path, monkeypatch):
        """A connection task that ``stop()`` cancels in ``wait_closed`` ends normally.

        asyncio's stream protocol reads the exception of the connection
        task it started; had the task ended cancelled, that callback would
        raise and the loop would report it (a traceback on stderr).
        """
        async def scenario():
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda _loop, context: reported.append(context))
            in_teardown = asyncio.Event()

            async def stalled_wait_closed(writer):
                in_teardown.set()
                await asyncio.Event().wait()          # only a cancel ends it

            monkeypatch.setattr(asyncio.StreamWriter, "wait_closed",
                                stalled_wait_closed)
            server = BatmapServer(tmp_path)           # stop() needs no artifact
            server._shutdown_event = asyncio.Event()
            listener = await asyncio.start_server(server._on_connection,
                                                  "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            _, client = await asyncio.open_connection("127.0.0.1", port)
            client.close()                            # EOF ends the read loop
            await asyncio.wait_for(in_teardown.wait(), 10)
            await server.stop()                       # cancels the waiting task
            listener.close()
            for _ in range(5):                        # let done callbacks run
                await asyncio.sleep(0)
            return server, reported

        server, reported = asyncio.run(scenario())
        assert reported == []
        assert not server._conn_tasks


class TestServeCli:
    @pytest.fixture(scope="class")
    def fimi_spill(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("serve_cli")
        out = io.StringIO()
        assert main(["generate", str(base / "data.fimi"), "--kind", "density",
                     "--items", "40", "--density", "0.2",
                     "--total-items", "2000", "--seed", "5"], out=out) == 0
        out = io.StringIO()
        rc = main(["build-index", str(base / "data.fimi"),
                   str(base / "spill"), "--seed", "7"], out=out)
        assert rc == 0, out.getvalue()
        return base / "spill", out.getvalue()

    def test_build_index_artifact_is_servable(self, fimi_spill):
        spill_dir, output = fimi_spill
        assert "spill artifact" in output
        assert (spill_dir / "family.npz").exists()
        assert (spill_dir / "item_map.npy").exists()
        engine = SpillQueryEngine(ShardedCollection.from_spill(spill_dir))
        assert engine.stats()["n_sets"] == 40
        engine.close()

    def test_build_index_bad_budget(self, fimi_spill, tmp_path):
        spill_dir, _ = fimi_spill
        out = io.StringIO()
        rc = main(["build-index", str(spill_dir / "nope.fimi"),
                   str(tmp_path / "x"), "--memory-budget", "huge"], out=out)
        assert rc == 2 and "error:" in out.getvalue()

    def test_serve_and_query_round_trip(self, fimi_spill):
        spill_dir, _ = fimi_spill
        out = io.StringIO()
        result = {}

        def run_server():
            result["rc"] = main(
                ["serve", str(spill_dir), "--max-requests", "3"], out=out)

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        address = None
        deadline = time.monotonic() + 60
        while address is None and time.monotonic() < deadline:
            match = re.search(r"serving on ([\d.]+):(\d+)", out.getvalue())
            if match:
                address = f"{match.group(1)}:{match.group(2)}"
            else:
                time.sleep(0.02)
        assert address, "server never printed its address"

        query_out = io.StringIO()
        rc = main(["query", address, '{"op": "ping"}'], out=query_out)
        assert rc == 0 and query_out.getvalue().strip() == '"pong"'

        query_out = io.StringIO()
        rc = main(["query", address, '{"op": "count", "pairs": [[0, 1]]}'],
                  out=query_out)
        assert rc == 0
        assert isinstance(json.loads(query_out.getvalue())[0], int)

        query_out = io.StringIO()
        rc = main(["query", address, '{"op": "bogus"}'], out=query_out)
        assert rc == 1 and "unknown-op" in query_out.getvalue()

        thread.join(timeout=60)
        assert not thread.is_alive()
        assert result["rc"] == 0
        assert "served 3 requests" in out.getvalue()

    @pytest.mark.parametrize("argv, message", [
        (["query", "no-port", "{}"], "HOST:PORT"),
        (["query", "127.0.0.1:1", '{"op": "ping"}'], "cannot reach"),
        (["query", "127.0.0.1:1", "not json"], "not valid JSON"),
        (["query", "127.0.0.1:1", '["op"]'], 'object with an "op" key'),
    ])
    def test_query_argument_errors(self, argv, message):
        out = io.StringIO()
        assert main(argv, out=out) == 2
        assert message in out.getvalue()
