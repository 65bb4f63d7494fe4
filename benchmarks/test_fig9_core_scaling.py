"""Figure 9 — relative speed-up of the CPU miners vs number of computation units.

Paper setup: instance of 10 million occurrences, 4000 items, density 5%;
parallel execution on i cores simulated by splitting the instance into i
equal parts; i in {1, 2, 4, 8}.  Finding: neither Apriori nor FP-growth
benefits noticeably from more than four cores (consistent with earlier work
on parallel Apriori).

Scaled harness: 200 items, same splitting methodology, with the simulated
makespan modelled as max(part times) + the measured serial merge of the
per-part count dicts (see EXPERIMENTS.md E5) — the serial reduction is what
caps the speed-up below linear.

**Measured mode** (:class:`TestFigure9Measured`): in addition to the paper's
split-simulation, the threaded executor (:mod:`repro.parallel.executor`)
runs the batmap pair-counting workload for real — engine set-up, thread
start, row tiles reduced into the result — and the recorded speed-up curve
is a wall-clock measurement, not a model.  See EXPERIMENTS.md E12 and E23.
"""

from __future__ import annotations

import os
import statistics

import numpy as np
import pytest

from benchmarks.harness import SeriesTable, make_instance
from repro.baselines.apriori import AprioriMiner
from repro.baselines.fpgrowth import FPGrowthMiner
from repro.core.collection import BatmapCollection
from repro.parallel.executor import measure_executor_scaling
from repro.parallel.scaling import measure_split_scaling, relative_speedups

pytestmark = pytest.mark.bench


CORE_COUNTS = (1, 2, 4, 8)
#: Alternating Apriori / FP-growth measurements per point (median taken).
MEASUREMENTS = 3
N_ITEMS = 200
DENSITY = 0.05

#: Worker counts of the measured (non-simulated) executor runs.
MEASURED_WORKERS = (1, 2, 4)
#: Sets in the measured pair-counting instance; sized so the counting work
#: dominates thread start-up (override for a closer / faster run).
MEASURED_N_SETS = int(os.environ.get("REPRO_BENCH_MEASURED_SETS", 1200))


def core_scaling_series() -> SeriesTable:
    db = make_instance(N_ITEMS, DENSITY, seed=11)
    table = SeriesTable(
        title="Figure 9 (scaled) — relative speed-up vs number of computation units",
        x_label="#cores",
    )
    table.x_values = list(CORE_COUNTS)

    # Each point is the median of MEASUREMENTS speed-ups, Apriori and
    # FP-growth alternating, each measurement best-of-2 for the parts and
    # the serial merge: the efficiency-monotonicity assertions tolerate
    # only small noise, and one slow window on a loaded host moves a single
    # measurement, not the median.
    runs = {"apriori": [], "fpgrowth": []}
    for _ in range(MEASUREMENTS):
        runs["apriori"].append(relative_speedups(measure_split_scaling(
            lambda t, n, s: AprioriMiner(max_size=2).mine(t, n, s),
            db, min_support=1, core_counts=CORE_COUNTS, repeats=2)))
        runs["fpgrowth"].append(relative_speedups(measure_split_scaling(
            lambda t, n, s: FPGrowthMiner(max_size=2).mine_pairs(t, n, s),
            db, min_support=1, core_counts=CORE_COUNTS, repeats=2)))
    apriori_speedup, fp_speedup = (
        {c: statistics.median(run[c] for run in runs[name]) for c in CORE_COUNTS}
        for name in ("apriori", "fpgrowth"))
    table.add("theoretical", list(CORE_COUNTS))
    table.add("apriori", [round(apriori_speedup[c], 2) for c in CORE_COUNTS])
    table.add("fpgrowth", [round(fp_speedup[c], 2) for c in CORE_COUNTS])
    table.note("parallelism simulated by instance splitting: "
               "max part time + measured serial merge (EXPERIMENTS.md E5)")
    return table


class TestFigure9:
    def test_report(self):
        table = core_scaling_series()
        table.show()
        apriori = dict(zip(table.x_values, table.series["apriori"]))
        fp = dict(zip(table.x_values, table.series["fpgrowth"]))
        for series in (apriori, fp):
            # splitting the instance always stays below the ideal linear speed-up
            assert series[8] < 0.85 * 8.0
            # and the parallel efficiency (speed-up per core) keeps degrading
            # as cores are added — the qualitative finding behind the paper's
            # "no noticeable benefit beyond four cores".  (The hard plateau at
            # exactly 4 cores depends on Borgelt's C implementations' serial
            # fraction and is not asserted here; see EXPERIMENTS.md E5.)
            efficiency = [series[c] / c for c in (1, 2, 4, 8)]
            assert efficiency[1] <= efficiency[0] + 0.05
            assert efficiency[2] <= efficiency[1] + 0.05
            assert efficiency[3] <= efficiency[2] + 0.05

    def test_benchmark_apriori_split4(self, benchmark):
        db = make_instance(N_ITEMS, DENSITY, seed=12)
        parts = db.split(4)

        def run_all_parts():
            return [AprioriMiner(max_size=2).mine(p.transactions, p.n_items, 1)
                    for p in parts]

        results = benchmark(run_all_parts)
        assert len(results) == 4


# --------------------------------------------------------------------------- #
# Measured mode: the executor runs the workload for real
# --------------------------------------------------------------------------- #
def _measured_collection(seed: int = 13) -> BatmapCollection:
    """A pair-counting instance large enough that the threads pay off."""
    rng = np.random.default_rng(seed)
    universe = 8192
    sets = [np.sort(rng.choice(universe, size=int(rng.integers(16, 260)),
                               replace=False))
            for _ in range(MEASURED_N_SETS)]
    return BatmapCollection.build(sets, universe, rng=seed)


def measured_core_scaling_series() -> tuple:
    """Real threaded speed-up of all-pairs counting (not a simulation).

    Every point is an end-to-end wall-clock run of
    :class:`~repro.parallel.executor.ParallelPairCounter`: engine set-up,
    thread start and the tiled count are all inside the measured window.
    """
    collection = _measured_collection()
    points = measure_executor_scaling(collection, worker_counts=MEASURED_WORKERS,
                                      repeats=2)
    speedups = relative_speedups(points)
    table = SeriesTable(
        title="Figure 9 (measured) — real threaded pair-counting speed-up",
        x_label="#workers",
    )
    table.x_values = list(MEASURED_WORKERS)
    table.add("theoretical", list(MEASURED_WORKERS))
    table.add("seconds", [round(p.seconds, 3) for p in points])
    table.add("speedup", [round(speedups[w], 2) for w in MEASURED_WORKERS])
    table.note(f"measured end-to-end on {os.cpu_count()} host cores "
               f"({MEASURED_N_SETS} sets, threaded executor; "
               "EXPERIMENTS.md E12, E23)")
    return table, speedups


class TestFigure9Measured:
    def test_report(self):
        table, speedups = measured_core_scaling_series()
        table.show()
        assert speedups[1] == pytest.approx(1.0)
        assert all(s > 0 for s in speedups.values())
        cores = os.cpu_count() or 1
        if cores >= 4:
            # On real multi-core hardware 4 workers must at least halve the
            # 1-worker wall clock (the PR 2 acceptance bar).  On fewer cores
            # no real speed-up is physically available, so only sanity holds.
            # Downsized runs (CI smoke) use a softer bar: with a smaller
            # instance the fixed thread start-up overhead claims a larger share.
            assert speedups[4] >= (2.0 if MEASURED_N_SETS >= 1200 else 1.5)
        if cores < 2:
            # Single-core host: parallelism cannot win, but the executor must
            # not collapse either (thread start-up overhead stays bounded).
            assert speedups[max(MEASURED_WORKERS)] >= 0.3
