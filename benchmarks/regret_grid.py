"""Regret grid: serial batch engine vs the thread pool, over sets x width x shards.

Run: ``PYTHONPATH=src python benchmarks/regret_grid.py [--workers 2] [--repeats 3]``

For every shape it builds one collection of random sets (set size picks the
packed row width), then times all-pairs counting on the serial batch engine
and on the parallel engine (``--workers`` threads), best of ``--repeats``
alternating runs.  In-memory shapes time the dense ``counts_sorted``;
sharded shapes spill the collection into ``shards`` shards and time the
sparse ``count_result`` that ``repro mine --stream`` runs.  The last
column is ``parallel / batch``: below 1 the threads win.  EXPERIMENTS.md
E23 records the table and the planner floors derived from it.
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.batch import BatchPairCounter
from repro.core.collection import BatmapCollection
from repro.core.sharded import ShardedCollection
from repro.parallel import executor
from repro.parallel.executor import ParallelPairCounter
from repro.parallel.sharded import ShardedPairCounter

SET_COUNTS = (256, 512, 1024, 1536, 2048)
#: (set size, universe): packed rows of ~24, 96, 384 and 1536 words
SHAPES = ((16, 1 << 10), (60, 1 << 12), (250, 1 << 14), (1000, 1 << 16))
SHARD_COUNTS = (1, 4)


def _sets(rng, n_sets: int, size: int, universe: int) -> list:
    return [np.sort(rng.choice(universe, size=size, replace=False)) for _ in range(n_sets)]


def _best(fns: dict, repeats: int) -> dict:
    best = {name: float("inf") for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def in_memory(sets, universe: int, workers: int, repeats: int) -> tuple:
    coll = BatmapCollection.build(sets, universe, rng=1)

    def parallel():
        with ParallelPairCounter(coll, workers=workers) as counter:
            counter.counts_sorted()

    times = _best({"batch": lambda: BatchPairCounter(coll).counts_sorted(),
                   "parallel": parallel}, repeats)
    words = sum(3 * bm.r // 4 for bm in coll.batmaps_sorted) / len(coll)
    return words, times


def sharded(sets, universe: int, shards: int, workers: int, repeats: int,
            workdir: Path) -> tuple:
    spill = ShardedCollection.build(sets, universe, workdir / f"s{len(sets)}-{universe}",
                                    memory_budget=1 << 30, rng=1,
                                    max_sets_per_shard=-(-len(sets) // shards))
    support = max(2, len(sets[0]) // 8)

    def run(compute):
        ShardedPairCounter(spill, compute=compute, workers=workers,
                           result_format="sparse", min_support=support).count_result()

    times = _best({"batch": lambda: run("batch"), "parallel": lambda: run("parallel")},
                  repeats)
    return spill.total_words / spill.n_physical_sets, times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    # Time the threads at every shape: the planner floor is what this grid derives.
    executor.PARALLEL_MIN_SETS = 1
    rng = np.random.default_rng(0)
    print(f"{'sets':>5} {'words':>6} {'shards':>6} {'batch_s':>9} "
          f"{'parallel_s':>10} {'ratio':>6}")
    with tempfile.TemporaryDirectory(prefix="regret-grid-") as tmp:
        for n_sets in SET_COUNTS:
            for size, universe in SHAPES:
                sets = _sets(rng, n_sets, size, universe)
                for shards in SHARD_COUNTS:
                    if shards == 1:
                        words, t = in_memory(sets, universe, args.workers, args.repeats)
                    else:
                        words, t = sharded(sets, universe, shards, args.workers,
                                           args.repeats, Path(tmp))
                    print(f"{n_sets:>5} {words:>6.0f} {shards:>6} {t['batch']:>9.4f} "
                          f"{t['parallel']:>10.4f} {t['parallel'] / t['batch']:>6.2f}",
                          flush=True)


if __name__ == "__main__":
    main()
