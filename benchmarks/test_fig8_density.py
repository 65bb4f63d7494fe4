"""Figure 8 — pair-generation time for varying item density.

Paper setup: instance size 10 million occurrences, n = 8000 items fixed,
density swept from 0.1% to 10% (log scale).  Apriori and FP-growth slow down
markedly as the instance gets denser; the GPU batmap time is almost
independent of density, with a mild *increase* at the lowest densities caused
by the compression floor (hash ranges cannot shrink below 2^s, Section III-A).

Scaled harness: n = 200 items, the same density sweep.  Each CPU baseline
point is the median of :data:`CPU_REPEATS` runs, Apriori and FP-growth
alternating, so one burst of host load cannot decide a point on its own.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.harness import (
    SeriesTable,
    TIME_LIMIT_SECONDS,
    make_instance,
    run_apriori_pairs,
    run_batmap_miner,
    run_fpgrowth_pairs,
    time_call,
)

pytestmark = pytest.mark.bench

DENSITY_SWEEP = [0.002, 0.005, 0.01, 0.02, 0.05, 0.1]
N_ITEMS = 200
CPU_REPEATS = 3


def cpu_baseline_seconds(db) -> tuple[float, float]:
    """Median wall of Apriori and of FP-growth over alternating repeats."""
    apriori, fp = [], []
    for _ in range(CPU_REPEATS):
        apriori.append(time_call(run_apriori_pairs, db)[0])
        fp.append(time_call(run_fpgrowth_pairs, db)[0])
    return float(np.median(apriori)), float(np.median(fp))


def density_series() -> SeriesTable:
    table = SeriesTable(
        title="Figure 8 (scaled) — pair generation time vs item density",
        x_label="density",
    )
    table.x_values = list(DENSITY_SWEEP)
    apriori_t, fp_t, gpu_t, gpu_bytes = [], [], [], []
    for p in DENSITY_SWEEP:
        db = make_instance(N_ITEMS, p, seed=int(p * 10_000))
        t_apriori, t_fp = cpu_baseline_seconds(db)
        report = run_batmap_miner(db)
        apriori_t.append(min(t_apriori, TIME_LIMIT_SECONDS))
        fp_t.append(min(t_fp, TIME_LIMIT_SECONDS))
        gpu_t.append(report.counting_seconds)
        gpu_bytes.append(report.device_bytes)
    table.add("apriori_s", apriori_t)
    table.add("fpgrowth_s", fp_t)
    table.add("gpu_device_s", gpu_t)
    table.add("gpu_device_bytes", gpu_bytes)
    table.note(f"n = {N_ITEMS} items, instance size fixed; paper uses n = 8000, 10M items")
    return table


class TestFigure8:
    def test_report(self):
        table = density_series()
        table.show()
        apriori = table.series["apriori_s"]
        fp = table.series["fpgrowth_s"]
        gpu = table.series["gpu_device_s"]
        # CPU miners degrade as the instance gets denser.  (At the very lowest
        # densities the Python baselines also pay a per-transaction overhead —
        # fixed instance size means many more transactions — so the comparison
        # anchors at the sweep's fastest point rather than its sparsest point;
        # see EXPERIMENTS.md E4.)
        assert fp[-1] > 2 * min(fp)
        assert apriori[-1] > 1.2 * min(apriori)
        # The GPU counting time is nearly density-independent above the
        # compression floor ...
        gpu_upper = gpu[1:]  # densities >= 0.005
        assert max(gpu_upper) / max(min(gpu_upper), 1e-12) < 3
        # ... and shows the paper's mild increase at the lowest density, where
        # hash ranges are pinned at 2**shift.
        assert gpu[0] >= gpu[1]
        # Overall the GPU series varies far less than the densest/sparsest
        # swing of the CPU miners.
        gpu_spread = max(gpu_upper) / max(min(gpu_upper), 1e-12)
        fp_spread = max(fp) / max(min(fp), 1e-12)
        assert gpu_spread < fp_spread

    def test_low_density_floor_increases_device_bytes_per_element(self):
        """The compression floor makes very sparse instances relatively more expensive."""
        sparse = make_instance(N_ITEMS, 0.002, seed=1)
        dense = make_instance(N_ITEMS, 0.05, seed=2)
        sparse_report = run_batmap_miner(sparse)
        dense_report = run_batmap_miner(dense)
        sparse_cost = sparse_report.device_bytes / max(sparse.total_items, 1)
        dense_cost = dense_report.device_bytes / max(dense.total_items, 1)
        assert sparse_cost > dense_cost

    def test_benchmark_batmap_dense_instance(self, benchmark):
        db = make_instance(N_ITEMS, 0.1, seed=3)
        report = benchmark(lambda: run_batmap_miner(db))
        assert report.counting_seconds > 0
