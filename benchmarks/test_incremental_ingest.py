"""Incremental ingest: appending a delta must beat rebuilding the world.

The claim under test (E18): appending 10% new sets to a spilled collection
costs **under 25% of a full from-scratch rebuild** of the final dataset —
the whole point of delta-shard ingest is that existing shards are never
touched, so ingest cost tracks the delta, not the corpus.  The benchmark
also times a full compaction of the appended state and the post-compaction
point-query latency, and pins bit-identity: the appended-then-compacted
spill answers a query sample exactly like the from-scratch rebuild (same
seed, same family capacity).

Scale knobs: ``REPRO_BENCH_INC_SETS`` (base corpus size; CI downsizes).
The <25% assertion only fires at full scale — at toy sizes fixed overheads
(manifest IO, process setup) dominate and the ratio is meaningless.  It
compares the medians of alternating append and rebuild repeats.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pytest

from benchmarks.harness import time_call
from repro.core.sharded import ShardedCollection
from repro.serve.engine import SpillQueryEngine
from repro.utils.memory import parse_memory_size
from tests.conftest import random_sets

pytestmark = pytest.mark.bench

FULL_SCALE_SETS = 2000
N_SETS = int(os.environ.get("REPRO_BENCH_INC_SETS", FULL_SCALE_SETS))
UNIVERSE = 4096
CAPACITY = 8188  # lazy-family headroom so ingest could also grow the universe
MIN_SIZE, MAX_SIZE = 20, 200
BUDGET = parse_memory_size("256M")
SEED = 13
APPEND_FRACTION = 0.10
MAX_APPEND_RATIO = 0.25
REPEATS = 5
N_QUERY_SAMPLE = 200


def build_kwargs():
    return dict(rng=SEED, memory_budget=BUDGET, family_kind="lazy",
                family_capacity=CAPACITY)


def query_p50_ms(engine, pairs) -> float:
    samples = []
    for pair in pairs:
        start = time.perf_counter()
        engine.count_pairs(pair.reshape(1, 2))
        samples.append((time.perf_counter() - start) * 1e3)
    return float(np.median(samples))


def test_append_beats_rebuild(tmp_path, bench_artifact):
    rng = np.random.default_rng(4)
    n_delta = max(1, int(N_SETS * APPEND_FRACTION))
    base = random_sets(rng, N_SETS, UNIVERSE, min_size=MIN_SIZE,
                       max_size=MAX_SIZE)
    delta = random_sets(rng, n_delta, UNIVERSE, min_size=MIN_SIZE,
                        max_size=MAX_SIZE)

    build_seconds, _ = time_call(
        ShardedCollection.build, base, UNIVERSE, tmp_path / "base",
        **build_kwargs())
    # Alternating repeats, compared by their medians, so a burst of host
    # load lands on both sides instead of deciding the ratio on its own.
    # Every append runs on a fresh copy of the base spill.
    append_times, rebuild_times = [], []
    for k in range(REPEATS):
        shutil.copytree(tmp_path / "base", tmp_path / f"incremental-{k}")
        sharded = ShardedCollection.from_spill(tmp_path / f"incremental-{k}")
        append_times.append(time_call(sharded.append, delta)[0])
        seconds, rebuilt = time_call(
            ShardedCollection.build, base + delta, UNIVERSE,
            tmp_path / f"scratch-{k}", **build_kwargs())
        rebuild_times.append(seconds)
    append_seconds = float(np.median(append_times))
    rebuild_seconds = float(np.median(rebuild_times))
    compact_seconds, _ = time_call(sharded.compact, full=True)

    # Bit-identity spot check: same family (same seed + capacity), so the
    # compacted incremental spill and the rebuild serve identical answers.
    pair_rng = np.random.default_rng(6)
    pairs = pair_rng.integers(0, N_SETS + n_delta,
                              size=(N_QUERY_SAMPLE, 2)).astype(np.int64)
    incremental_engine = SpillQueryEngine(sharded)
    rebuilt_engine = SpillQueryEngine(rebuilt)
    try:
        np.testing.assert_array_equal(incremental_engine.count_pairs(pairs),
                                      rebuilt_engine.count_pairs(pairs))
        p50_ms = query_p50_ms(incremental_engine, pairs[:50])
    finally:
        incremental_engine.close()
        rebuilt_engine.close()

    ratio = append_seconds / rebuild_seconds
    print(f"\n{N_SETS} base sets + {n_delta} appended | build "
          f"{build_seconds:.2f}s | append {append_seconds:.2f}s | rebuild "
          f"{rebuild_seconds:.2f}s ({ratio:.0%}) | compact "
          f"{compact_seconds:.2f}s | post-compaction query p50 {p50_ms:.3f} ms")
    bench_artifact.add("n_sets", N_SETS)
    bench_artifact.add("n_appended", n_delta)
    bench_artifact.add("append_fraction", APPEND_FRACTION)
    bench_artifact.add("build_seconds", build_seconds)
    bench_artifact.add("repeats", REPEATS)
    bench_artifact.add("append_seconds", append_seconds)
    bench_artifact.add("rebuild_seconds", rebuild_seconds)
    bench_artifact.add("append_over_rebuild", ratio)
    bench_artifact.add("compact_seconds", compact_seconds)
    bench_artifact.add("post_compact_query_p50_ms", p50_ms)

    if N_SETS >= FULL_SCALE_SETS:
        assert append_seconds < MAX_APPEND_RATIO * rebuild_seconds, (
            f"appending {APPEND_FRACTION:.0%} cost {ratio:.0%} of a full "
            f"rebuild (limit {MAX_APPEND_RATIO:.0%})")
