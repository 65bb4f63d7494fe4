"""Collection-build throughput — bulk engine vs the per-element inserter.

Not a paper figure: this benchmark guards the construction side of the
pre-processing phase (Sections II-A/III-A).  PRs 1-3 made pair *counting*
vectorized and parallel, which left ``place_set`` — one cuckoo copy at a
time, in pure Python — as the dominant cost of Figure-6-scale runs.  The
bulk engine (:mod:`repro.core.bulk_build`) builds whole width groups per
round with NumPy scatters.

The acceptance bar recorded in EXPERIMENTS.md (E14): on a Figure-6-scale
synthetic mining workload of at least 10,000 tidlists, the bulk engine must
build the collection at least 10x faster than the per-element inserter and
the two collections must agree exactly (failed lists and spot-checked pair
counts).  The speedup assertion applies at full scale only; downsized CI
runs (via ``REPRO_BENCH_BUILD_SETS``) still check the equivalences.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pytest

from repro.core.collection import BatmapCollection
from repro.datasets.synthetic import generate_density_instance

pytestmark = pytest.mark.bench

#: Number of item tidlists (= sets) in the workload; ``>= 10_000`` is the
#: acceptance scale.  CI downsizes through the environment variable.
N_SETS = int(os.environ.get("REPRO_BENCH_BUILD_SETS", 10_000))
#: Item occurrences; scaled with the set count so the per-set size
#: distribution (~150 transactions per tidlist) matches the full-scale run.
TOTAL_ITEMS = N_SETS * 150
MIN_SPEEDUP = 10.0
#: Alternating host/bulk timing passes; the assertion reads their medians.
REPEATS = 3
FULL_SCALE = N_SETS >= 10_000


def _make_tidlists():
    db = generate_density_instance(n_items=N_SETS, density=0.05,
                                   total_items=TOTAL_ITEMS, rng=0)
    return db.tidlists(), db.n_transactions


class TestBuildThroughput:
    def test_speedup_and_equivalence(self):
        tidlists, universe = _make_tidlists()

        # Warm-up on a slice (page cache, allocator), then REPEATS
        # alternating host/bulk passes: the speed-up is the ratio of the two
        # medians, so one slow pass on a loaded host cannot decide it.
        BatmapCollection.build(tidlists[:200], universe, rng=1,
                               build_compute="bulk")
        times = {"host": [], "bulk": []}
        built = {}
        for _ in range(REPEATS):
            for engine in ("host", "bulk"):
                start = time.perf_counter()
                built[engine] = BatmapCollection.build(tidlists, universe, rng=1,
                                                       build_compute=engine)
                times[engine].append(time.perf_counter() - start)
        host, bulk = built["host"], built["bulk"]
        host_seconds = statistics.median(times["host"])
        bulk_seconds = statistics.median(times["bulk"])

        n_elements = sum(t.size for t in tidlists)
        speedup = host_seconds / bulk_seconds if bulk_seconds > 0 else float("inf")
        print(f"\n== collection build: bulk engine vs per-element inserter "
              f"({len(tidlists)} sets, {n_elements} elements) ==")
        print(f"   per-element inserter : {host_seconds:8.3f} s "
              f"({1e6 * host_seconds / n_elements:7.2f} us/element)")
        print(f"   bulk engine          : {bulk_seconds:8.3f} s "
              f"({1e6 * bulk_seconds / n_elements:7.2f} us/element)")
        print(f"   speedup              : {speedup:8.1f} x")

        # Equivalence: identical failure semantics everywhere, identical
        # pair counts on a slice (the full n^2 matrix is a counting
        # benchmark's job, not a build benchmark's).
        assert host.failed_insertions() == bulk.failed_insertions()
        probe = slice(0, min(1200, len(tidlists)))
        host_counts = BatmapCollection.build(
            tidlists[probe], universe, rng=1, build_compute="host"
        ).count_all_pairs()
        bulk_counts = BatmapCollection.build(
            tidlists[probe], universe, rng=1, build_compute="bulk"
        ).count_all_pairs()
        assert np.array_equal(host_counts, bulk_counts)

        if FULL_SCALE:
            assert speedup >= MIN_SPEEDUP
        else:
            print(f"   (downsized run: {len(tidlists)} sets — the "
                  f">= {MIN_SPEEDUP:.0f}x bar applies at >= 10,000 sets)")

    def test_benchmark_bulk_build(self, benchmark):
        tidlists, universe = _make_tidlists()
        subset = tidlists[: max(500, len(tidlists) // 8)]

        def run():
            return BatmapCollection.build(subset, universe, rng=1,
                                          build_compute="bulk")

        collection = benchmark(run)
        assert len(collection) == len(subset)
