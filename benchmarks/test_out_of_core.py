"""Out-of-core sharded mining: bounded resident memory under a ≥4x workload.

The claim under test (E15): on a workload whose in-memory pipeline needs at
least **4x the configured resident-set budget**, the sharded streaming
pipeline (``BatmapPairMiner.mine_stream``) returns identical frequent pairs
while its peak traced heap stays **under the budget**.

Accounting: peaks are measured with ``tracemalloc`` (numpy registers its
allocations there), which captures the pipeline's data structures while
excluding the interpreter/import baseline that no pipeline choice can
remove.  The budget covers *everything* the pipeline allocates — including
the O(universe) hash family and the dense result matrix, which the sharded
path must fit alongside its bounded shard state.

Scale knobs: ``REPRO_BENCH_OOC_ITEMS`` / ``REPRO_BENCH_OOC_TOTAL_ITEMS``
(CI downsizes the total; keep it >= ~10^5 or the in-memory path gets cheap
enough that no honest budget satisfies the 4x gap).
"""

from __future__ import annotations

import gc
import os
import tracemalloc

import numpy as np
import pytest

from benchmarks.harness import time_call
from repro.core.sharded import fixed_resident_bytes
from repro.datasets.fimi_io import read_fimi, write_fimi
from repro.datasets.synthetic import generate_density_instance
from repro.mining.pair_mining import BatmapPairMiner

pytestmark = pytest.mark.bench

N_ITEMS = int(os.environ.get("REPRO_BENCH_OOC_ITEMS", 256))
TOTAL_ITEMS = int(os.environ.get("REPRO_BENCH_OOC_TOTAL_ITEMS", 1_020_000))
DENSITY = 0.4
MIN_SUPPORT = 2
SEED = 1
#: Working allowance above the fixed residents; the budget is
#: ``fixed_resident_bytes(...) + WORKING_ALLOWANCE``.  Sized ~25% above the
#: pipeline's observed floor (bulk single-set group tables at r=8192 plus
#: one shard's tidlists) so the assertion guards regressions, not noise.
WORKING_ALLOWANCE = 8_000_000
#: The workload must cost at least this multiple of the budget in memory.
MIN_WORKLOAD_RATIO = 4.0


def traced_peak(fn, *args, **kwargs):
    """Run ``fn`` under tracemalloc; return (result, peak_bytes, seconds)."""
    gc.collect()
    tracemalloc.start()
    try:
        seconds, result = time_call(fn, *args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, seconds


def test_sharded_pipeline_respects_memory_budget(tmp_path, bench_artifact):
    db = generate_density_instance(N_ITEMS, DENSITY, TOTAL_ITEMS, rng=0)
    path = tmp_path / "ooc.fimi"
    write_fimi(db, path)
    universe, n_items = db.n_transactions, db.n_items
    del db
    budget = fixed_resident_bytes(universe, n_items) + WORKING_ALLOWANCE

    miner = BatmapPairMiner(compute="batch")
    # Warm-up on a tiny instance: lazy imports and pool machinery would
    # otherwise be billed to whichever traced window runs first.
    warm_db = generate_density_instance(16, 0.3, 500, rng=2)
    warm = tmp_path / "warm.fimi"
    write_fimi(warm_db, warm)
    miner.mine(read_fimi(warm), min_support=1, rng=SEED)
    miner.mine_stream(warm, min_support=1, rng=SEED, memory_budget="32M")
    del warm_db

    report_mem, peak_mem, mem_seconds = traced_peak(
        lambda: miner.mine(read_fimi(path), min_support=MIN_SUPPORT, rng=SEED))
    # Park the reference result on disk so the comparison state does not
    # occupy heap inside the streaming pipeline's traced window.
    reference = tmp_path / "reference-counts.npy"
    np.save(reference, report_mem.supports.counts)
    del report_mem

    report, peak_stream, stream_seconds = traced_peak(
        lambda: miner.mine_stream(path, min_support=MIN_SUPPORT, rng=SEED,
                                  memory_budget=budget))

    print(f"\nbudget {budget} B | in-memory peak {peak_mem} B "
          f"({peak_mem / budget:.1f}x budget, {mem_seconds:.1f}s) | "
          f"streaming peak {peak_stream} B "
          f"({peak_stream / budget:.2f}x budget, {stream_seconds:.1f}s) | "
          f"packed {report.batmap_bytes} B | backends "
          f"{report.count_backend}/{report.build_backend}")
    bench_artifact.add("total_items_processed", TOTAL_ITEMS)
    bench_artifact.add("budget_bytes", budget)
    bench_artifact.add("in_memory_peak_bytes", int(peak_mem))
    bench_artifact.add("streaming_peak_bytes", int(peak_stream))
    bench_artifact.add("in_memory_seconds", mem_seconds)
    bench_artifact.add("streaming_seconds", stream_seconds)
    bench_artifact.add("packed_bytes", report.batmap_bytes)
    bench_artifact.add("workload_over_budget", peak_mem / budget)

    # The workload genuinely exceeds the budget: the in-memory pipeline
    # needs at least MIN_WORKLOAD_RATIO times more resident memory.
    assert peak_mem >= MIN_WORKLOAD_RATIO * budget, (
        f"in-memory peak {peak_mem} is below {MIN_WORKLOAD_RATIO}x the "
        f"budget {budget}; raise REPRO_BENCH_OOC_TOTAL_ITEMS"
    )
    # The sharded pipeline honours the configured ceiling on that workload.
    assert peak_stream < budget, (
        f"streaming peak {peak_stream} exceeds the memory budget {budget}"
    )
    # And it is the same computation: a bit-identical support matrix.
    np.testing.assert_array_equal(report.supports.counts, np.load(reference))
