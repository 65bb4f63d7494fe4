"""The ``serve-mixed`` workload: ``repro serve`` under an open-loop read load
with writes beside it.

Set-up (repeated, median reported as ``setup_s``): generate a WebDocs-like
Zipfian file, ``repro build-index`` it into a base spill, copy the base spill
to a fresh live directory and start ``repro serve`` on it, until it prints
``serving on``.

Measurement, from one load-generating process with two connections.  Reads
arrive as a Poisson process, pipelined on one connection and sent on
schedule whatever the server's state (open loop).  The mix is ``MIX`` with
Zipf-skewed set ids, so identical requests recur and the result cache sees
real hits.  Latency runs from each request's *scheduled* send time; the
generator's lateness is reported.

* **Read-only phase** (``READ_SHARE`` of ``--seconds``) at ``BASE_RATE``:
  ``serve.p50_ms`` and ``serve.p99_ms`` (about a thousand reads, so ten lie
  beyond the p99); the server's ``metrics`` op is read at its end.  Read
  latency is a per-layer metric, not a gated one: on a 2-vCPU guest its
  run-to-run spread follows the host's CPU steal (p50 spread 0.27 and p99
  0.2-1.8 over ten runs), wider than any bound the benchmark may set.
* **Mixed phase** (``MIXED_SHARE``): the same reads, and beside them
  ``WRITES`` on a fixed schedule as their own CLI processes
  (``repro ingest --append``, ``repro delete``, one ``repro compact``), each
  followed by a ``reload`` on the second connection.  ``wall_s`` is the
  median append or delete from process start to the ``reload``
  acknowledgement; the reads' tail is ``serve.mixed_p99_ms``.
* **Ladder**: reads only, at each rate of ``LADDER``; the highest rate whose
  p99 meets ``LIMIT_MS`` with no growing backlog is ``serve.max_rate_rps``.

Every answer is checked after the load against a direct
:class:`~repro.serve.engine.SpillQueryEngine` over a snapshot of each
generation the request could have seen (the one acknowledged before it was
sent, up to the last one reloaded before its answer arrived).  Timeouts,
error responses and wrong answers all count as failed.
"""

from __future__ import annotations

import json
import shutil
import signal
import socket
import subprocess
import threading
import time
from pathlib import Path

import numpy as np

import inputs
import tracing
from common import (ROOT, RunResult, child_env, cli_argv, median, nearest_rank, reap,
                    run_process)

N_DOCS = 4000                 #: documents = universe of the served sets
VOCABULARY = 5000             #: words = served sets (~5k)
BUILD_BUDGET = "1G"
SETUP_REPEATS = 3
BASE_RATE = 100.0             #: offered reads per second, read-only and mixed phases
READ_SHARE = 0.35             #: share of --seconds with reads only
MIXED_SHARE = 0.40            #: share with reads and writes (wall_s); the ladder gets the rest
LADDER = (100.0, 200.0, 400.0)  #: higher offered rates, reads only
LIMIT_MS = 250.0              #: p99 latency limit for the ladder
MIX = (("count", 0.60), ("member", 0.25), ("topk", 0.10), ("multiway", 0.05))
ZIPF_EXPONENT = 1.2
TOPK = 10
MEMBER_PROBES = 16
APPEND_SETS = 40
DELETE_SETS = 2
#: (operation, share of the mixed phase at which it starts): five appends and
#: five deletes, alternating, then one compaction
WRITES = tuple((("ingest", "delete")[k % 2], 0.02 + 0.08 * k) for k in range(10)) + (
    ("compact", 0.84),)
DRAIN_S = 15.0                #: grace for the last responses of a phase


# --------------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------------- #
class RequestMaker:
    """Seeded read requests over the set ids that stay live all run."""

    def __init__(self, seed: int, n_sets: int, universe: int) -> None:
        self.rng = np.random.default_rng([seed, 7])
        self.seed, self.universe = seed, universe
        n = n_sets - DELETE_SETS * sum(op == "delete" for op, _ in WRITES)
        weights = np.arange(1, n + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        self.p = weights / weights.sum()
        self.ids = self.rng.permutation(n)          # rank -> set id

    def _sets(self, k: int) -> list:
        while True:
            picked = self.ids[self.rng.choice(self.p.size, size=k, p=self.p)]
            if len(set(picked.tolist())) == k:
                return [int(x) for x in picked]

    def make(self) -> dict:
        op = MIX[int(self.rng.choice(len(MIX), p=[w for _, w in MIX]))][0]
        if op == "count":
            return {"op": "count", "pairs": [sorted(self._sets(2))]}
        if op == "member":
            (s,) = self._sets(1)
            probe = np.random.default_rng([self.seed, s]).integers(
                0, self.universe, MEMBER_PROBES)
            return {"op": "member", "set": s, "elements": [int(e) for e in probe]}
        if op == "topk":
            (s,) = self._sets(1)
            return {"op": "topk", "set": s, "k": TOPK}
        return {"op": "multiway", "sets": sorted(self._sets(3))}

    def schedule(self, rate: float, seconds: float, t0: float) -> list:
        """Poisson arrival times in ``[t0, t0 + seconds)`` with one request each."""
        out = []
        t = t0 + self.rng.exponential(1.0 / rate)
        while t < t0 + seconds:
            out.append((t, self.make()))
            t += self.rng.exponential(1.0 / rate)
        return out


def expected_answer(engine, req: dict):
    """The direct engine's answer, in the server's JSON shape."""
    op = req["op"]
    if op == "count":
        return [int(x) for x in engine.count_pairs(np.asarray(req["pairs"]))]
    if op == "member":
        return [bool(x) for x in engine.members(req["set"], req["elements"])]
    if op == "topk":
        return [[int(j), int(c)] for j, c in engine.top_k(req["set"], req["k"])]
    result = engine.multiway(req["sets"])
    return {"elements": [int(x) for x in result.elements],
            "failed_involved": [int(x) for x in result.failed_involved],
            "size": int(result.size)}


# --------------------------------------------------------------------------- #
# Open-loop reader
# --------------------------------------------------------------------------- #
class OpenLoop:
    """Pipelined reads on one connection: one thread sends on schedule, one receives."""

    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=None)
        self.reader = self.sock.makefile("rb")
        self.sent: dict = {}        # id -> (scheduled, sent, request)
        self.received: dict = {}    # id -> (received, response)
        self._next = 0
        self._lock = threading.Lock()
        self._receiver = threading.Thread(target=self._receive, daemon=True)
        self._receiver.start()

    def _receive(self) -> None:
        for raw in self.reader:
            now = time.perf_counter()
            try:
                message = json.loads(raw)
            except ValueError:
                continue
            with self._lock:
                self.received[message.get("id")] = (now, message)

    def run(self, schedule: list) -> list:
        """Send ``schedule`` on time; return the ids used, in order."""
        ids = []
        for due, req in schedule:
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self._next += 1
            rid = self._next
            line = (json.dumps({"id": rid, **req}) + "\n").encode()
            sent = time.perf_counter()
            self.sock.sendall(line)
            self.sent[rid] = (due, sent, req)
            ids.append(rid)
        return ids

    def wait(self, ids: list, timeout: float) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with self._lock:
                if all(i in self.received for i in ids):
                    return
            time.sleep(0.01)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._receiver.join(timeout=5)


# --------------------------------------------------------------------------- #
# Server process and writes
# --------------------------------------------------------------------------- #
class Server:
    """``repro serve`` as its own process on an ephemeral port."""

    def __init__(self, spill: Path, env: dict, log: Path) -> None:
        self.log = log
        self._out = open(log, "wb")
        self.proc = subprocess.Popen(cli_argv("serve", spill, "--port", 0), cwd=ROOT,
                                     env=env, stdout=self._out, stderr=subprocess.STDOUT,
                                     start_new_session=True)
        self.address = None
        self.peak_rss_mb = 0.0

    def wait_ready(self, timeout: float = 60.0):
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            for line in self.log.read_text(errors="replace").splitlines():
                if line.startswith("serving on "):
                    host, _, port = line[len("serving on "):].rpartition(":")
                    self.address = (host, int(port))
                    return self.address
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"repro serve did not start: {self.log.read_text()[-500:]}")

    def stop(self) -> None:
        if self.proc.returncode is None:
            try:
                self.proc.send_signal(signal.SIGINT)
            except ProcessLookupError:
                pass
            _, rusage = reap(self.proc, 20.0)
            self.peak_rss_mb = rusage.ru_maxrss / 1024.0
        self._out.close()


def control_request(address, op: str, timeout: float = 60.0):
    """One request on the control connection (the ``repro`` client)."""
    from repro.serve.client import ServeClient

    with ServeClient(*address, timeout=timeout, retries=0) as client:
        return client.request(op)


class Writer(threading.Thread):
    """Runs ``WRITES`` on schedule; each write is a CLI process, then a reload."""

    def __init__(self, plan, live: Path, snaps: Path, address, env, workdir,
                 trace: bool) -> None:
        super().__init__(daemon=True)
        self.plan, self.live, self.snaps, self.address = plan, live, snaps, address
        self.env, self.workdir, self.trace = env, workdir, trace
        self.acks: list = []          # perf_counter of each reload ack, in order
        self.reloads_sent: list = []  # perf_counter of each reload request
        self.records: list = []       # dicts: op, wall, latency, reload_s, ok, traced
        self.error = None

    def run(self) -> None:
        try:
            for k, (due, op, args) in enumerate(self.plan):
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self._one(k, op, args)
        except Exception as exc:  # noqa: BLE001 - reported as a failed write
            self.error = f"{type(exc).__name__}: {exc}"

    def _one(self, k: int, op: str, args: list) -> None:
        # In a traced run, pairs of writes alternate untraced / traced (so
        # both kinds of wall exist for trace.overhead_frac); compaction is traced.
        traced = self.trace and (op == "compact" or (k // 2) % 2 == 1)
        trace_file = self.workdir / f"write-{k}.json"
        argv = cli_argv(*args, trace_out=trace_file if traced else None)
        proc = run_process(argv, self.env, self.workdir / f"write-{k}.log")
        record = {"op": op, "wall": proc.wall_s, "ok": proc.ok, "traced": traced,
                  "rss": proc.peak_rss_mb, "proc": proc,
                  "trace": trace_file if traced and proc.ok else None}
        if proc.ok:
            self.reloads_sent.append(time.perf_counter())
            t0 = time.perf_counter()
            try:
                control_request(self.address, "reload")
            except Exception as exc:  # noqa: BLE001 - a failed write, not a crash
                record.update(ok=False, error=f"reload: {exc}")
            ack = time.perf_counter()
            self.acks.append(ack)
            record.update(latency=ack - proc.start, reload_s=ack - t0)
            shutil.copytree(self.live, self.snaps / f"v{len(self.acks)}")
        else:
            record["error"] = proc.stdout[-300:]
        self.records.append(record)


def write_plan(seed: int, t0: float, phase_s: float, live: Path, workdir: Path,
               universe: int, n_sets: int) -> list:
    """The scheduled writes with their CLI arguments and input files."""
    rng = np.random.default_rng([seed, 11])
    plan = []
    deleted = 0
    for k, (op, share) in enumerate(WRITES):
        if op == "ingest":
            sizes = np.clip(rng.lognormal(np.log(60), 0.8, APPEND_SETS), 1, universe)
            sets = [np.sort(rng.choice(universe, int(s), replace=False)) for s in sizes]
            path = workdir / f"append-{k}.txt"
            inputs.write_sets(path, sets)
            args = ["ingest", live, path, "--append"]
        elif op == "delete":
            live_n = n_sets - deleted
            victims = rng.choice(np.arange(live_n // 2, live_n), DELETE_SETS, replace=False)
            deleted += DELETE_SETS
            args = ["delete", live, "--sets", *sorted(int(v) for v in victims)]
        else:
            args = ["compact", live, "--full"]
        plan.append((t0 + share * phase_s, op, args))
    return plan


# --------------------------------------------------------------------------- #
# The workload
# --------------------------------------------------------------------------- #
def _setup(seed: int, workdir: Path, env: dict, k: int, traced: bool):
    """Generate, build the base spill, copy it live, start the server."""
    rng = np.random.default_rng(seed)
    docs = inputs.zipf_documents(rng, N_DOCS, VOCABULARY)
    fimi = workdir / "docs.fimi"
    inputs.write_sets(fimi, docs)
    base = workdir / f"base-{k}"
    shutil.rmtree(base, ignore_errors=True)
    args = ["build-index", fimi, base, "--memory-budget", BUILD_BUDGET, "--seed", seed]
    trace_file = workdir / "build.json"
    argv = cli_argv(*args, trace_out=trace_file if traced else None)
    build = run_process(argv, env, workdir / f"build-{k}.log")
    if not build.ok:
        raise RuntimeError(f"build-index failed: {build.stdout[-500:]}")
    live = workdir / "live"
    shutil.rmtree(live, ignore_errors=True)
    shutil.copytree(base, live)
    server = Server(live, env, workdir / f"serve-{k}.log")
    server.wait_ready()
    sizes = {"documents": N_DOCS, "vocabulary": VOCABULARY,
             "occurrences": int(sum(d.size for d in docs)),
             "universe": N_DOCS}
    return base, live, server, sizes, (build, trace_file if traced else None)


def run(seed: int, seconds: float, trace: bool, workdir: Path, result: RunResult) -> None:
    """Set up, drive the three phases, verify every answer, fill ``result``."""
    env = child_env(workdir)
    setup_times, server = [], None
    try:
        for k in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            last = k == SETUP_REPEATS - 1
            base, live, server, sizes, build = _setup(seed, workdir, env, k, trace and last)
            setup_times.append(time.perf_counter() - t0)
        _measure(seed, seconds, trace, workdir, env, result, base, live, server, sizes,
                 build, setup_times)
    finally:
        if server is not None:
            server.stop()
    result.metric("peak_rss_mb", max(result.info.get("write_rss_mb", 0.0),
                                     server.peak_rss_mb), "MB")


def _measure(seed, seconds, trace, workdir, env, result, base, live, server, sizes,
             build, setup_times) -> None:
    from repro.core.sharded import ShardedCollection
    from repro.serve.engine import SpillQueryEngine

    engine0 = SpillQueryEngine(ShardedCollection.from_spill(base))
    n_sets, universe = engine0.n_sets, engine0.universe_size
    sizes.update(sets=n_sets, shards=engine0.sharded.n_shards)
    engine0.close()
    maker = RequestMaker(seed, n_sets, universe)
    snaps = workdir / "snaps"
    snaps.mkdir()

    loop = OpenLoop(server.address)
    try:
        read_s, mixed_s = READ_SHARE * seconds, MIXED_SHARE * seconds
        base_ids = loop.run(maker.schedule(BASE_RATE, read_s, time.perf_counter() + 0.02))
        loop.wait(base_ids, DRAIN_S)
        snapshot = control_request(server.address, "metrics")

        t0 = time.perf_counter() + 0.02
        plan = write_plan(seed, t0, mixed_s, live, workdir, universe, n_sets)
        writer = Writer(plan, live, snaps, server.address, env, workdir, trace)
        writer.start()
        mixed_ids = loop.run(maker.schedule(BASE_RATE, mixed_s, t0))
        writer.join(timeout=120)
        loop.wait(mixed_ids, DRAIN_S)

        stages = []
        stage_s = (1.0 - READ_SHARE - MIXED_SHARE) * seconds / len(LADDER)
        for rate in LADDER:
            ids = loop.run(maker.schedule(rate, stage_s, time.perf_counter() + 0.02))
            loop.wait(ids, DRAIN_S)
            stages.append((rate, ids))
    finally:
        loop.close()

    # ---- correctness: every read against the generations it could have seen
    engines: dict = {}
    op_times: dict = {}

    def engine(v):
        if v not in engines:
            spill = base if v == 0 else snaps / f"v{v}"
            engines[v] = SpillQueryEngine(ShardedCollection.from_spill(spill))
        return engines[v]

    lat_ms, late_ms, wire = {}, [], []
    for rid, (due, sent, req) in loop.sent.items():
        result.attempted += 1
        got = loop.received.get(rid)
        if got is None:
            result.fail(f"{req['op']} #{rid}: no response")
            continue
        received, message = got
        if not message.get("ok"):
            result.fail(f"{req['op']} #{rid}: {message.get('error')}")
            continue
        lo = sum(a < sent for a in writer.acks)
        hi = sum(s < received for s in writer.reloads_sent)
        matched = False
        for v in range(lo, hi + 1):
            t = time.perf_counter()
            answer = expected_answer(engine(v), req)
            op_times.setdefault(req["op"], []).append(time.perf_counter() - t)
            if answer == message["result"]:
                matched = True
                break
        if not matched:
            result.fail(f"{req['op']} #{rid}: answer differs from the engine")
            continue
        lat_ms[rid] = 1e3 * (received - due)
        late_ms.append(1e3 * (sent - due))
        if req["op"] == "count":
            wire.append(1e3 * (received - sent))
    for e in engines.values():
        e.close()

    # ---- writes
    for record in writer.records:
        result.attempted += 1
        if not record["ok"]:
            result.fail(f"{record['op']}: {record.get('error')}")
    if writer.error:
        result.fail(f"writer: {writer.error}")
    missing = len(WRITES) - len(writer.records)
    for _ in range(missing):
        result.attempted += 1
        result.fail("write never ran")
    writes = [r["latency"] for r in writer.records
              if r["ok"] and r["op"] in ("ingest", "delete")]

    # A failed read counts as missing any latency limit.
    base_lat = [lat_ms.get(i, float("inf")) for i in base_ids]
    mixed_lat = [lat_ms.get(i, float("inf")) for i in mixed_ids]
    rungs = []
    for rate, ids in stages:
        lats = [lat_ms.get(i, float("inf")) for i in ids]
        third = max(1, len(lats) // 3)
        growing = median(lats[-third:]) > 2 * median(lats[:third]) + 5.0
        p99 = nearest_rank(lats, 99)
        rungs.append({"rate": rate, "n": len(lats), "p50_ms": median(lats),
                      "p99_ms": p99, "growing_backlog": growing,
                      "ok": p99 <= LIMIT_MS and not growing})
    passed = [r["rate"] for r in rungs if r["ok"]]
    max_rate = max(passed) if passed else (
        BASE_RATE if nearest_rank(base_lat, 99) <= LIMIT_MS else 0.0)

    result.info.update(
        sizes=sizes, setup_s_samples=setup_times, base_rate=BASE_RATE,
        base_reads=len(base_ids), mixed_reads=len(mixed_ids),
        read_p50_ms=median(base_lat), read_p99_ms=nearest_rank(base_lat, 99),
        mixed_p50_ms=median(mixed_lat), mixed_p99_ms=nearest_rank(mixed_lat, 99),
        read_latency_ms=[round(x, 3) for x in base_lat],
        ladder=rungs, limit_ms=LIMIT_MS,
        writes=[{k: v for k, v in r.items() if k not in ("proc", "trace")}
                for r in writer.records],
        lateness_ms={"p50": median(late_ms), "max": max(late_ms, default=0.0)},
        server_metrics=snapshot,
        write_rss_mb=max((r["rss"] for r in writer.records), default=0.0))

    if not trace:
        result.metric("wall_s", median(writes), "s")
        result.metric("setup_s", median(setup_times), "s")
        return

    # ---- per-layer (traced run)
    traced = [(r["proc"], r["trace"]) for r in writer.records if r["trace"] is not None]
    build_proc, build_trace = build
    traced.append((build_proc, build_trace))
    spans, wall = [], 0.0
    for proc, path in traced:
        data, w = tracing.load_trace(path, proc)
        spans += data["spans"]
        wall += w
    metrics = tracing.fold(spans, wall)
    count_op = snapshot["latency_by_op"].get("count", {})
    reloads = [r["reload_s"] for r in writer.records if "reload_s" in r]
    untraced_w = [r["wall"] for r in writer.records if not r["traced"] and r["op"] != "compact"]
    traced_w = [r["wall"] for r in writer.records if r["traced"] and r["op"] != "compact"]
    metrics.update({
        "engine.count_ms": 1e3 * median(op_times.get("count", [])),
        "engine.member_ms": 1e3 * median(op_times.get("member", [])),
        "engine.topk_ms": 1e3 * median(op_times.get("topk", [])),
        "engine.multiway_ms": 1e3 * median(op_times.get("multiway", [])),
        "server.p50_ms": count_op.get("p50_ms", 0.0),
        "server.p99_ms": count_op.get("p99_ms", 0.0),
        "wire.p50_ms": median(wire) - count_op.get("p50_ms", 0.0),
        "cache.hit_rate": snapshot["cache"]["hit_rate"],
        "batch.mean_size": snapshot["mean_batch_size"],
        "queue.max_depth": snapshot["queue_high_water"],
        "reload.s": median(reloads),
        "serve.max_rate_rps": max_rate,
        "serve.p50_ms": median(base_lat),
        "serve.p99_ms": nearest_rank(base_lat, 99),
        "serve.lateness_p50_ms": median(late_ms),
        "serve.mixed_p99_ms": nearest_rank(mixed_lat, 99),
        "trace.overhead_frac": (median(traced_w) / median(untraced_w) - 1.0
                                if traced_w and untraced_w else 0.0),
    })
    for name, value in metrics.items():
        result.metrics[name] = (float(value), None)
    result.layers = tracing.layer_table(spans, wall)
    result.info["layer_wall_s"] = wall
    result.info["chrome_trace"] = tracing.chrome_trace(spans, min(s["start"] for s in spans))
