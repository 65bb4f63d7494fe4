"""The asyncio TCP server behind `repro serve`.

:class:`BatmapServer` attaches one spill artifact at startup (mmap'd shard
indexes plus the persisted hash family) and serves the line-delimited JSON
protocol of :mod:`repro.serve.protocol`.  The data path per request::

    readline -> decode/normalize -> cache lookup ------------------- hit -> respond
                                        | miss
                                        v
                                  batcher queue (bounded, rejects when full)
                                        |
                            drain task: coalesce up to max_batch,
                            one vectorized engine call per op group
                                        |
                            future resolved -> cache fill -> respond

Graceful degradation is explicit: a full queue answers ``overloaded``
immediately, a request older than ``request_timeout`` answers ``timeout``
(its batch slot is skipped, not executed), and shutdown drains in-flight
requests before detaching the memory maps.

:class:`BackgroundServer` runs the same server on a private event loop in a
daemon thread — the harness used by the tests, the load-generator benchmark
and any synchronous embedder.
"""

from __future__ import annotations

import asyncio
import threading
import time
from pathlib import Path

from repro.core.errors import DatasetError
from repro.core.sharded import ShardedCollection
from repro.serve.batcher import QueueFullError, RequestBatcher
from repro.serve.cache import LRUResultCache, MISS
from repro.serve.engine import DEFAULT_BATMAP_CACHE_SETS, SpillQueryEngine
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_request,
    encode_message,
    error_response,
    normalize_params,
    ok_response,
    query_digest,
    CACHEABLE_OPS,
)

__all__ = ["BatmapServer", "BackgroundServer",
           "DEFAULT_MAX_BATCH", "DEFAULT_MAX_QUEUE", "DEFAULT_REQUEST_TIMEOUT",
           "DEFAULT_CACHE_ENTRIES"]

DEFAULT_MAX_BATCH = 64
DEFAULT_MAX_QUEUE = 1024
DEFAULT_REQUEST_TIMEOUT = 30.0
DEFAULT_CACHE_ENTRIES = 1024


class BatmapServer:
    """Long-lived query server over one spilled collection.

    Typical embedding (the CLI does exactly this)::

        server = BatmapServer("/data/spill", port=0)
        asyncio.run(server.run())          # serves until request_shutdown()

    ``port=0`` binds an ephemeral port; :meth:`start` returns the bound
    address.  ``max_requests`` shuts the server down after that many
    request lines — the hook CI smoke tests use to serve a finite session.
    """

    def __init__(
        self,
        spill_dir,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_queue: int = DEFAULT_MAX_QUEUE,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        block_words: int | None = None,
        batmap_cache_sets: int = DEFAULT_BATMAP_CACHE_SETS,
        max_requests: int | None = None,
    ) -> None:
        """Configure a server; nothing is attached until :meth:`start`."""
        self.spill_dir = Path(spill_dir)
        self.host = host
        self.port = int(port)
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self.request_timeout = float(request_timeout)
        self.cache_entries = int(cache_entries)
        self.block_words = block_words
        self.batmap_cache_sets = int(batmap_cache_sets)
        self.max_requests = max_requests
        self.metrics = ServerMetrics()
        self.cache = LRUResultCache(cache_entries)
        self.engine: SpillQueryEngine | None = None
        self.batcher: RequestBatcher | None = None
        self.bound_host: str | None = None
        self.bound_port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._shutdown_event: asyncio.Event | None = None
        self._request_tasks: set = set()
        self._conn_tasks: set = set()
        self._served = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> tuple:
        """Attach the artifact, start the batcher and bind the socket.

        Returns ``(host, port)`` actually bound (resolving ``port=0``).
        """
        self._shutdown_event = asyncio.Event()
        self._reload_lock = asyncio.Lock()
        self.engine = self._attach_engine()
        self.batcher = RequestBatcher(
            self.engine, self.metrics,
            max_batch=self.max_batch, max_queue=self.max_queue)
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=MAX_LINE_BYTES)
        sockname = self._server.sockets[0].getsockname()
        self.bound_host, self.bound_port = sockname[0], int(sockname[1])
        return self.bound_host, self.bound_port

    def _attach_engine(self) -> SpillQueryEngine:
        """Attach the spill directory's current generation as a fresh engine."""
        sharded = ShardedCollection.from_spill(self.spill_dir)
        return SpillQueryEngine(
            sharded, block_words=self.block_words,
            batmap_cache_sets=self.batmap_cache_sets)

    async def _reload(self) -> dict:
        """Swap to the spill directory's current generation without downtime.

        The fresh attach happens in the executor (off the event loop); the
        batcher then routes new queries to the new engine while queries that
        were already queued finish against the old one, which is closed only
        after its last batch completes.  Cache entries from the old
        generation become unreachable automatically because cache keys are
        namespaced by the engine's artifact token.
        """
        async with self._reload_lock:
            loop = asyncio.get_running_loop()
            try:
                engine = await loop.run_in_executor(None, self._attach_engine)
            except (DatasetError, OSError) as exc:
                # The artifact on disk is damaged or mid-commit.  The old
                # engine is untouched and keeps serving; the caller gets a
                # structured error naming the damage so it can repair (or
                # wait for the mutator's commit) and retry the reload.
                raise ProtocolError(
                    f"reload failed, still serving generation "
                    f"{self.engine.generation}: {type(exc).__name__}: {exc} "
                    "— run 'repro verify' / 'repro repair' and retry",
                    code="reload-failed") from exc
            old = await self.batcher.swap_engine(engine)
            self.engine = engine
            old.close()
            return {
                "generation": engine.generation,
                "n_sets": engine.n_sets,
                "n_shards": engine.sharded.n_shards,
                "artifact_token": engine.artifact_token,
            }

    def request_shutdown(self) -> None:
        """Signal the serve loop to drain and stop (loop-thread safe only).

        Cross-thread callers must route through
        ``loop.call_soon_threadsafe(server.request_shutdown)`` — exactly
        what :class:`BackgroundServer` does.
        """
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def serve_until_shutdown(self) -> None:
        """Block until :meth:`request_shutdown`, then :meth:`stop`."""
        await self._shutdown_event.wait()
        await self.stop()

    async def run(self) -> tuple:
        """Start, serve until shutdown, and return the final metrics snapshot."""
        await self.start()
        await self.serve_until_shutdown()
        return self.metrics.snapshot()

    async def stop(self) -> None:
        """Graceful shutdown: drain requests, close connections, detach mmaps."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._request_tasks:
            await asyncio.gather(*list(self._request_tasks),
                                 return_exceptions=True)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        if self.batcher is not None:
            await self.batcher.stop()
        if self.engine is not None:
            self.engine.close()

    # ------------------------------------------------------------------ #
    # Connection / request handling
    # ------------------------------------------------------------------ #
    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        write_lock = asyncio.Lock()
        local_tasks: set = set()
        loop = asyncio.get_running_loop()
        # A manual read loop instead of ``reader.readline()``: the stream
        # limit turns an oversized line into a fatal stream error, but the
        # connection must *survive* one bad request.  The oversized line is
        # answered with a structured error and discarded up to its newline;
        # pipelined requests after it still execute.
        buffer = bytearray()
        discarding = False
        try:
            while not self._shutdown_event.is_set():
                newline = buffer.find(b"\n")
                if newline >= 0:
                    line = bytes(buffer[:newline + 1])
                    del buffer[:newline + 1]
                    if discarding:          # tail of an oversized line
                        discarding = False
                        continue
                    if len(line) > MAX_LINE_BYTES:
                        await self._send_error(
                            writer, write_lock, None, "bad-request",
                            f"request line exceeds {MAX_LINE_BYTES} bytes")
                        continue
                    request_task = loop.create_task(
                        self._handle_request(line, writer, write_lock))
                    for registry in (local_tasks, self._request_tasks):
                        registry.add(request_task)
                        request_task.add_done_callback(registry.discard)
                    continue
                if not discarding and len(buffer) > MAX_LINE_BYTES:
                    discarding = True
                    await self._send_error(
                        writer, write_lock, None, "bad-request",
                        f"request line exceeds {MAX_LINE_BYTES} bytes")
                if discarding:
                    buffer.clear()
                chunk = await reader.read(1 << 16)
                if not chunk:
                    break
                buffer += chunk
        except (OSError, asyncio.CancelledError):
            pass
        finally:
            # :meth:`stop` may cancel this task anywhere in the teardown too.
            # The task must still end normally: asyncio's stream protocol
            # reads the exception of a cancelled connection task and logs a
            # traceback through the loop's exception handler.
            try:
                if local_tasks:
                    await asyncio.gather(*list(local_tasks), return_exceptions=True)
            except asyncio.CancelledError:
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass
            self._conn_tasks.discard(task)

    async def _handle_request(self, line: bytes, writer, write_lock) -> None:
        started = time.perf_counter()
        request_id = None
        try:
            request = decode_request(line)
            request_id = request.get("id")
            params = normalize_params(request)
            op = params["op"]
            if self._shutdown_event.is_set():
                raise ProtocolError("server is shutting down",
                                    code="shutting-down")
            result = await self._dispatch(op, params)
            self.metrics.record_request(op, time.perf_counter() - started)
            await self._send(writer, write_lock, ok_response(request_id, result))
        except ProtocolError as exc:
            await self._send_error(writer, write_lock, request_id,
                                   exc.code, str(exc))
        except QueueFullError as exc:
            await self._send_error(writer, write_lock, request_id,
                                   "overloaded", str(exc))
        except asyncio.TimeoutError:
            await self._send_error(
                writer, write_lock, request_id, "timeout",
                f"request exceeded {self.request_timeout}s deadline")
        except (IndexError, ValueError) as exc:
            await self._send_error(writer, write_lock, request_id,
                                   "bad-request", str(exc))
        except (ConnectionResetError, BrokenPipeError):
            pass
        except Exception as exc:  # noqa: BLE001 — last-resort request isolation
            await self._send_error(writer, write_lock, request_id,
                                   "server-error", f"{type(exc).__name__}: {exc}")
        finally:
            self._served += 1
            if self.max_requests is not None and self._served >= self.max_requests:
                self.request_shutdown()

    async def _dispatch(self, op: str, params: dict):
        """Answer one normalised request, through cache and batcher."""
        if op == "ping":
            return "pong"
        if op == "stats":
            return self.engine.stats()
        if op == "metrics":
            snapshot = self.metrics.snapshot()
            snapshot["cache"] = self.cache.snapshot()
            snapshot["served_lines"] = self._served
            return snapshot
        if op == "reload":
            return await self._reload()
        # Cache keys are namespaced by the artifact token so a reload to a
        # new generation can never serve a stale pre-ingest result.
        token = self.engine.artifact_token
        digest = (f"{token}:{query_digest(params)}"
                  if op in CACHEABLE_OPS else None)
        if digest is not None:
            cached = self.cache.get(digest)
            if cached is not MISS:
                return cached
        future = self.batcher.submit(op, params)
        try:
            result = await asyncio.wait_for(future, self.request_timeout)
        except asyncio.TimeoutError:
            # wait_for cancelled the future; the drain loop skips done
            # (cancelled) entries, so the work is shed, not just abandoned.
            raise
        if digest is not None and self.engine.artifact_token == token:
            # A reload that raced this request may have executed it against
            # the *new* generation; skip the fill rather than poison the old
            # token's namespace.
            self.cache.put(digest, result)
        return result

    async def _send(self, writer, write_lock, message: dict) -> None:
        async with write_lock:
            writer.write(encode_message(message))
            await writer.drain()

    async def _send_error(self, writer, write_lock, request_id,
                          code: str, message: str) -> None:
        self.metrics.record_error(code)
        try:
            await self._send(writer, write_lock,
                             error_response(request_id, code, message))
        except (ConnectionResetError, BrokenPipeError):
            pass


class BackgroundServer:
    """A :class:`BatmapServer` on a private event loop in a daemon thread.

    The synchronous harness for tests, the latency benchmark and the CLI's
    ``--max-requests`` smoke path::

        with BackgroundServer(spill_dir, max_batch=32) as server:
            with ServeClient(server.host, server.port) as client:
                client.ping()

    ``start()`` blocks until the socket is bound (or raises the startup
    error); ``stop()`` requests graceful shutdown and joins the thread.
    """

    def __init__(self, spill_dir, **server_kwargs) -> None:
        """Store the server configuration; nothing starts until :meth:`start`."""
        self._spill_dir = spill_dir
        self._server_kwargs = server_kwargs
        self.host: str | None = None
        self.port: int | None = None
        self.final_metrics: dict | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: BatmapServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "BackgroundServer":
        """Launch the server thread and wait until the socket is bound."""
        self._thread = threading.Thread(target=self._thread_main, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise TimeoutError("server did not start within 60s")
        if self._startup_error is not None:
            self._thread.join(timeout=10)
            raise self._startup_error
        return self

    def stop(self) -> None:
        """Request graceful shutdown and join the server thread."""
        if self._loop is not None and self._server is not None:
            try:
                self._loop.call_soon_threadsafe(self._server.request_shutdown)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=60)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 — surfaced via start()
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()

    async def _main(self) -> None:
        server = BatmapServer(self._spill_dir, **self._server_kwargs)
        try:
            self.host, self.port = await server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._server = server
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await server.serve_until_shutdown()
        self.final_metrics = server.metrics.snapshot()
