"""Spans recorded around the program's public calls, and what they add up to.

The program itself carries no instrumentation.  :func:`install` wraps the
functions and methods listed in :data:`TARGETS` in place (in the defining
module, on the class, and in every ``repro`` module that imported the name),
so each call records one span: name, layer, start, end, parent and counters.
Spans stay in memory until the traced process writes them out at exit.

A layer's *self time* is its spans' durations minus the parts covered by
their child spans; :func:`layer_table` folds a list of spans into one row
per layer.  :func:`chrome_trace` renders spans as Chrome trace-event JSON,
which Perfetto opens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: (module, attribute path, layer).  Layers are named after the metrics they
#: feed; ``spill.write`` self time is what a shard costs beyond building it.
TARGETS = [
    ("repro.datasets.fimi_io", "read_fimi", "datasets"),
    ("repro.datasets.streaming", "scan_fimi_stats", "datasets"),
    ("repro.datasets.streaming", "iter_fimi_chunks", "datasets"),
    ("repro.datasets.streaming", "collect_transactions", "datasets"),
    ("repro.mining.preprocess", "preprocess", "build"),
    ("repro.mining.preprocess", "preprocess_streaming", "build"),
    ("repro.datasets.transactions", "TransactionDatabase.filter_by_support", "build"),
    ("repro.datasets.transactions", "TransactionDatabase.tidlists", "build"),
    ("repro.core.collection", "BatmapCollection.build", "build"),
    ("repro.core.plan", "plan_counts", "plan"),
    ("repro.core.plan", "plan_build", "plan"),
    ("repro.core.plan", "PlanFeatures.from_collection", "plan"),
    ("repro.core.collection", "BatmapCollection.batch_counter", "count"),
    ("repro.core.batch", "BatchPairCounter.counts_sorted", "count"),
    ("repro.core.batch", "BatchPairCounter.count_result", "count"),
    ("repro.parallel.executor", "ParallelPairCounter.start", "count"),
    ("repro.parallel.executor", "ParallelPairCounter.counts_sorted", "count"),
    ("repro.parallel.executor", "ParallelPairCounter.count_result", "count"),
    ("repro.parallel.executor", "ParallelPairCounter.close", "count"),
    ("repro.parallel.sharded", "ShardedPairCounter.counts", "count"),
    ("repro.parallel.sharded", "ShardedPairCounter.count_result", "count"),
    ("repro.mining.postprocess", "reorder_counts", "repair"),
    ("repro.mining.postprocess", "repair_pair_counts", "repair"),
    ("repro.mining.postprocess", "repair_pair_counts_from_failures", "repair"),
    ("repro.mining.postprocess", "repair_count_result", "repair"),
    ("repro.mining.support", "PairSupports.frequent_pairs", "repair"),
    ("repro.cli", "_report_pairs", "output"),
    ("repro.core.sharded", "ShardedCollectionBuilder.add_shard", "spill.write"),
    ("repro.core.sharded", "ShardedCollectionBuilder.finalize", "spill.commit"),
    ("repro.core.sharded", "ShardedCollection.from_spill", "spill.attach"),
    ("repro.core.sharded", "ShardedCollection.append", "spill.write"),
    ("repro.core.sharded", "ShardedCollection.delete", "spill.write"),
    ("repro.core.sharded", "ShardedCollection.compact", "spill.write"),
    ("repro.core.integrity", "AtomicCommit.commit", "spill.commit"),
]

#: Layers in report order.
LAYERS = ["import", "datasets", "build", "plan", "count", "repair", "output",
          "spill.write", "spill.commit", "spill.attach"]

#: Numeric codes for ``plan.count_backend`` (the metric values must be numbers).
BACKEND_CODES = {"batch": 1, "parallel": 2, "host": 3, "kernel": 4, "sharded": 5}

class Recorder:
    """In-memory span store with one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list = []
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()
        self.pid = os.getpid()
        #: objects the after-hooks keep for post-run probes (e.g. regret)
        self.captured: dict = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def ancestors_in(self, layer: str) -> bool:
        """Whether an open span of this thread belongs to ``layer``."""
        return any(span["layer"] == layer for span in self._stack())

    def open(self, name: str, layer: str) -> dict:
        with self._lock:
            self._next += 1
            span_id = self._next
        stack = self._stack()
        span = {"id": span_id, "parent": stack[-1]["id"] if stack else 0,
                "name": name, "layer": layer, "pid": self.pid,
                "tid": threading.get_ident(), "start": time.perf_counter_ns(),
                "end": 0, "attrs": {}}
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def add(self, name: str, layer: str, start_ns: int, end_ns: int, **attrs) -> None:
        """Record a span measured elsewhere (e.g. the import of the CLI)."""
        span = self.open(name, layer)
        self._stack().pop()
        span.update(start=start_ns, end=end_ns, attrs=attrs)
        with self._lock:
            self.spans.append(span)


# --------------------------------------------------------------------------- #
# Counters attached by after-hooks (run once the span has closed)
# --------------------------------------------------------------------------- #
def _path_size(source) -> int:
    if isinstance(source, (str, os.PathLike)):
        try:
            return os.path.getsize(source)
        except OSError:
            return 0
    return 0


def _dataset_pass(rec, span, args, kwargs, result):
    source = args[0] if args else kwargs.get("source") or kwargs.get("path")
    if not span["attrs"].get("nested"):
        span["attrs"].update(passes=1, bytes_read=_path_size(source))
    if isinstance(result, dict):          # collect_transactions
        span["attrs"]["transactions_returned"] = len(result)


def _collection_built(rec, span, args, kwargs, collection):
    sets = args[1] if len(args) > 1 else kwargs.get("sets")
    failed = collection.failed_insertions()
    words = sum(3 * bm.r // 4 for bm in collection.batmaps_sorted)
    span["attrs"].update(
        sets=len(sets), elements=int(sum(len(s) for s in sets)),
        failed_insertions=int(sum(len(v) for v in failed.values())),
        packed_bytes=4 * int(words))


def _count_plan(rec, span, args, kwargs, plan):
    span["attrs"]["backend"] = plan.backend
    rec.captured.setdefault("count_plans", []).append(plan.backend)


def _tile_stats(result) -> dict:
    stats = getattr(result, "stats", None) or {}
    return {"tiles_total": int(stats.get("tiles_total", 0)),
            "tiles_skipped": int(stats.get("tiles_skipped", 0))}


def _counted(rec, span, kind: str, obj, kwargs) -> None:
    """Remember what was counted; run the regret probe once if one is armed."""
    rec.captured["count_source"] = (kind, obj)
    probe = rec.captured.get("probe")
    if probe is not None and not rec.captured.get("probing") and "regret" not in rec.captured:
        probe(kind, obj, span["name"].rpartition(".")[2], kwargs)


def _dense_parallel_counted(rec, span, args, kwargs, result):
    from repro.kernels.tiling import TileScheduler

    counter = args[0]
    n = len(counter.collection)
    tiles = len(TileScheduler(n, counter._tile_edge(n)))
    span["attrs"].update(tiles_total=tiles, tiles_skipped=0, n_sets=n)
    _counted(rec, span, "collection", counter.collection, kwargs)


def _collection_counted(rec, span, args, kwargs, result):
    counter = args[0]
    span["attrs"].update(_tile_stats(result), n_sets=len(counter.collection))
    _counted(rec, span, "collection", counter.collection, kwargs)


def _sharded_counted(rec, span, args, kwargs, result):
    counter = args[0]
    span["attrs"].update(_tile_stats(result), n_sets=counter.sharded.n_physical_sets)
    widths = [np.load(shard.directory / "widths.npy") for shard in counter.sharded.shards]
    rec.captured["count_widths"] = np.concatenate(widths) if widths else np.zeros(0)
    _counted(rec, span, "sharded", counter, kwargs)


def pair_bytes(widths) -> int:
    """Packed bytes one all-pairs pass folds: the wider row's words, per pair.

    Two batmaps of different ranges are compared over the wider one (the
    narrower wraps), so pair ``(i, j)`` folds ``4 * max(w_i, w_j)`` bytes.
    """
    w = np.sort(np.asarray(widths, dtype=np.int64))
    return int(4 * (w * np.arange(w.size, dtype=np.int64)).sum())


def _pairs_reported(rec, span, args, kwargs, result):
    cli_args = args[1] if len(args) > 1 else kwargs.get("args")
    path = getattr(cli_args, "pairs_out", None)
    span["attrs"]["bytes"] = _path_size(path) if path is not None else 0


def _staged_bytes(rec, span, args, kwargs):
    commit = args[0]
    total = 0
    for directory, _dirs, files in os.walk(commit.staging):
        total += sum(os.path.getsize(Path(directory) / f) for f in files)
    span["attrs"]["bytes_written"] = total


AFTER_HOOKS = {
    "read_fimi": _dataset_pass,
    "scan_fimi_stats": _dataset_pass,
    "collect_transactions": _dataset_pass,
    "BatmapCollection.build": _collection_built,
    "plan_counts": _count_plan,
    "ParallelPairCounter.counts_sorted": _dense_parallel_counted,
    "ParallelPairCounter.count_result": _collection_counted,
    "BatchPairCounter.counts_sorted": _collection_counted,
    "BatchPairCounter.count_result": _collection_counted,
    "ShardedPairCounter.counts": _sharded_counted,
    "ShardedPairCounter.count_result": _sharded_counted,
    "_report_pairs": _pairs_reported,
}
BEFORE_HOOKS = {"AtomicCommit.commit": _staged_bytes}


# --------------------------------------------------------------------------- #
# Wrapping
# --------------------------------------------------------------------------- #
def _wrap_function(rec: Recorder, fn, name: str, layer: str):
    after = AFTER_HOOKS.get(name)
    before = BEFORE_HOOKS.get(name)

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            # A generator's work happens inside its consumer: one span per
            # item, and one dataset pass if no dataset call is consuming it.
            if layer == "datasets" and not rec.ancestors_in("datasets"):
                source = args[0] if args else kwargs.get("source")
                rec.add(f"{name}.pass", layer, time.perf_counter_ns(),
                        time.perf_counter_ns(), passes=1,
                        bytes_read=_path_size(source))
            iterator = fn(*args, **kwargs)
            while True:
                span = rec.open(f"{name}.next", layer)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    rec.close(span)
                transactions = getattr(item, "transactions", None)
                if transactions is not None:
                    span["attrs"]["transactions"] = len(transactions)
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # A dataset call inside another one (a scan's chunk reader) is not a pass.
        nested = layer == "datasets" and rec.ancestors_in("datasets")
        span = rec.open(name, layer)
        if nested:
            span["attrs"]["nested"] = True
        if before is not None:
            before(rec, span, args, kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if after is not None:
            after(rec, span, args, kwargs, result)
        return result
    return wrapper


def install(rec: Recorder, targets=TARGETS) -> None:
    """Wrap every target in place; rebind names other ``repro`` modules imported."""
    replaced = {}
    for module_name, attr, layer in targets:
        module = importlib.import_module(module_name)
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[member]
            if isinstance(raw, classmethod):
                setattr(owner, member,
                        classmethod(_wrap_function(rec, raw.__func__, attr, layer)))
            elif isinstance(raw, staticmethod):
                setattr(owner, member,
                        staticmethod(_wrap_function(rec, raw.__func__, attr, layer)))
            else:
                setattr(owner, member, _wrap_function(rec, raw, attr, layer))
        else:
            original = getattr(module, member)
            wrapped = _wrap_function(rec, original, attr, layer)
            setattr(module, member, wrapped)
            replaced[id(original)] = (original, wrapped)
    # ``from x import f`` copied the function into other modules' namespaces.
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])


# --------------------------------------------------------------------------- #
# Folding spans into layers
# --------------------------------------------------------------------------- #
def self_times(spans) -> dict:
    """(pid, span id) -> self time in ns: duration minus direct children's."""
    child_ns = defaultdict(int)
    for span in spans:
        if span["parent"]:
            child_ns[span["pid"], span["parent"]] += span["end"] - span["start"]
    return {(s["pid"], s["id"]): (s["end"] - s["start"]) - child_ns[s["pid"], s["id"]]
            for s in spans}


def layer_table(spans, wall_s: float) -> list:
    """One row per layer: self time, share of process wall, summed counters."""
    selfs = self_times(spans)
    rows = {}
    for span in spans:
        row = rows.setdefault(span["layer"], {"layer": span["layer"], "self_s": 0.0,
                                              "calls": 0, "counters": defaultdict(float)})
        row["self_s"] += selfs[span["pid"], span["id"]] / 1e9
        row["calls"] += 1
        for key, value in span["attrs"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row["counters"][key] += value
    ordered = [rows[layer] for layer in LAYERS if layer in rows]
    ordered += [row for layer, row in rows.items() if layer not in LAYERS]
    for row in ordered:
        row["counters"] = dict(row["counters"])
        row["wall_frac"] = row["self_s"] / wall_s if wall_s > 0 else 0.0
    return ordered


def fold(spans, wall_s: float, pair_bytes_total: int = 0) -> dict:
    """Per-layer metrics of one traced process (or several, walls summed)."""
    by = {row["layer"]: row for row in layer_table(spans, wall_s)}

    def self_s(layer):
        return by[layer]["self_s"] if layer in by else 0.0

    def counter(layer, key):
        return by[layer]["counters"].get(key, 0.0) if layer in by else 0.0

    parents = {(s["pid"], s["id"]): s for s in spans}

    def under(span, name):
        while (span["pid"], span["parent"]) in parents:
            span = parents[span["pid"], span["parent"]]
            if span["name"] == name:
                return True
        return False

    rescanned = sum(s["attrs"].get("transactions", 0) for s in spans
                    if s["name"].endswith(".next") and under(s, "collect_transactions"))
    plans = [s["attrs"]["backend"] for s in spans if s["name"] == "plan_counts"]
    total, skipped = counter("count", "tiles_total"), counter("count", "tiles_skipped")
    done = 1.0 - skipped / total if total else 1.0
    n_sets = max((s["attrs"].get("n_sets", 0) for s in spans if s["layer"] == "count"),
                 default=0)
    count_s = self_s("count")
    packed = counter("build", "packed_bytes")
    written = counter("spill.commit", "bytes_written")
    attributed = sum(row["self_s"] for row in by.values())
    return {
        "import.s": self_s("import"),
        "datasets.read_s": self_s("datasets"),
        "datasets.passes": counter("datasets", "passes"),
        "datasets.bytes_read": counter("datasets", "bytes_read"),
        "build.s": self_s("build"),
        "build.sets": counter("build", "sets"),
        "build.elements": counter("build", "elements"),
        "build.failed_insertions": counter("build", "failed_insertions"),
        "build.packed_bytes": packed,
        "plan.s": self_s("plan"),
        "plan.count_backend": BACKEND_CODES.get(plans[-1], 0) if plans else 0,
        "count.s": count_s,
        "count.tiles_total": total,
        "count.tiles_skipped": skipped,
        "count.bytes_computed": pair_bytes_total * done,
        "count.pairs_per_s": (n_sets * (n_sets - 1) / 2 * done / count_s) if count_s else 0.0,
        "repair.s": self_s("repair"),
        "repair.transactions_rescanned": rescanned,
        "output.s": self_s("output"),
        "output.bytes": counter("output", "bytes"),
        "spill.write_s": self_s("spill.write"),
        "spill.commit_s": self_s("spill.commit"),
        "spill.bytes_written": written,
        "spill.write_amp": written / packed if packed else 0.0,
        "unattributed_frac": max(0.0, wall_s - attributed) / wall_s if wall_s else 0.0,
    }


def render_table(rows, wall_s: float, title: str) -> str:
    """The human-readable per-layer table."""
    lines = [title, f"  {'layer':<14}{'self s':>9}{'% wall':>8}{'calls':>7}  counters"]
    attributed = 0.0
    for row in rows:
        attributed += row["self_s"]
        counters = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(row["counters"].items()))
        lines.append(f"  {row['layer']:<14}{row['self_s']:>9.3f}"
                     f"{100 * row['wall_frac']:>7.1f}%{row['calls']:>7}  {counters}")
    rest = max(0.0, wall_s - attributed)
    share = 100 * rest / wall_s if wall_s > 0 else 0.0
    lines.append(f"  {'unattributed':<14}{rest:>9.3f}{share:>7.1f}%")
    lines.append(f"  {'process wall':<14}{wall_s:>9.3f}")
    return "\n".join(lines)


def _fmt(value) -> str:
    return f"{int(value)}" if float(value).is_integer() else f"{value:.4g}"


def load_trace(path: Path, proc) -> tuple:
    """A traced child's spans and its process wall minus the tracer's write-out."""
    data = json.loads(Path(path).read_text())
    post_ns = int(Path(f"{path}.post").read_text())
    return data, proc.wall_s - post_ns / 1e9


def chrome_trace(spans, origin_ns: int) -> dict:
    """Chrome trace-event JSON (complete events, microseconds from ``origin_ns``)."""
    events = []
    for span in sorted(spans, key=lambda s: (s["pid"], s["start"])):
        args = {k: v for k, v in span["attrs"].items() if not isinstance(v, (list, dict))}
        args["layer"] = span["layer"]
        events.append({
            "name": span["name"], "cat": span["layer"], "ph": "X",
            "ts": (span["start"] - origin_ns) / 1e3,
            "dur": max(0.0, (span["end"] - span["start"]) / 1e3),
            "pid": span["pid"], "tid": span["tid"] % (1 << 31), "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
