"""Real parallel pair counting: the batch engine on a pool of threads.

Everything else in :mod:`repro.parallel` *models* parallel execution (the
split-and-max methodology of Figure 9, the bandwidth-saturation model of
Figure 11).  This module actually runs it: :class:`ParallelPairCounter` is
the serial :class:`~repro.core.batch.BatchPairCounter` with a
:class:`~repro.core.batch.TilePool` attached.  The compiled SWAR fold
releases the GIL for the whole call, so the pool's threads count row tiles
of the one packed buffer at the same time, and each thread reduces its
block straight into the dense matrix or the sparse / top-k accumulator.  Because every tile is computed by the very same engine the
serial path uses, the parallel counts are bit-identical to
``compute="batch"`` on every workload (all-pairs, explicit pair lists,
cross rectangles).

:class:`ParallelPairCounter` is a context manager; ``close()`` (and hence
``__exit__``) joins the threads.

Small inputs do not pay for the threads: the workload planner
(:func:`repro.core.plan.plan_counts`) falls back to ``"batch"`` below
:data:`PARALLEL_MIN_SETS`, with one worker, or when the compiled kernel is
not loaded (the NumPy fallback holds the GIL for much of its work).
"""

from __future__ import annotations

import os
import time

from repro.core.batch import DEFAULT_BLOCK_WORDS, BatchPairCounter, TilePool
from repro.parallel.scaling import ScalingPoint
from repro.utils.validation import require, require_positive

__all__ = [
    "PARALLEL_MIN_SETS",
    "MAX_AUTO_WORKERS",
    "DEFAULT_TILE_CAP",
    "ParallelPairCounter",
    "auto_tile_edge",
    "resolve_worker_count",
    "measure_executor_scaling",
]

#: Below this many sets the serial batch engine wins and the planner falls
#: back to it.  From the regret grid of EXPERIMENTS.md E23 (2 threads,
#: compiled kernel, rows of 24-1536 words, 1 or 4 shards): threads took
#: 1.02-1.30x the batch time at 256-1024 sets (bar the widest rows) and
#: 0.54-0.97x at 1536 and 2048 sets.
PARALLEL_MIN_SETS = 1536

#: Auto-selected worker counts are capped here: the pair-count kernel is
#: memory-bound, so (exactly as Figure 11 measures for the CPU SWAR loop)
#: throughput saturates within a socket long before high core counts.
MAX_AUTO_WORKERS = 8

#: Upper bound on the auto-selected tile edge (rows per tile).  Tiles trade
#: per-call overhead against load balance across the threads.
DEFAULT_TILE_CAP = 128


def auto_tile_edge(n: int, workers: int) -> int:
    """Auto-selected rows per tile: ~2 tiles per worker, cache-capped.

    The single source of the tiling policy — the counter's default and the
    measured-scaling benchmark (which pins one edge across worker counts)
    must agree, or recorded speed-up curves would measure a different
    blocking than production uses.
    """
    return max(32, min(DEFAULT_TILE_CAP, -(-n // (2 * workers))))


def resolve_worker_count(workers=None) -> int:
    """Number of worker threads to use.

    ``None`` auto-selects ``min(os.cpu_count(), MAX_AUTO_WORKERS)``; explicit
    values are validated but honoured even beyond the core count (useful for
    oversubscription experiments).
    """
    if workers is None:
        return max(1, min(os.cpu_count() or 1, MAX_AUTO_WORKERS))
    require_positive(workers, "workers")
    return int(workers)


class ParallelPairCounter(BatchPairCounter):
    """:class:`~repro.core.batch.BatchPairCounter` with its tiles on threads.

    Use as a context manager::

        with ParallelPairCounter(collection, workers=4) as counter:
            counts = counter.count_all_pairs()

    Every query of the batch engine is available and returns bit-identical
    results.  ``tile_size`` sets the rows per tile (default:
    :func:`auto_tile_edge`).
    """

    def __init__(
        self,
        collection,
        *,
        workers=None,
        tile_size=None,
        block_words: int = DEFAULT_BLOCK_WORDS,
    ) -> None:
        if tile_size is not None:
            require_positive(tile_size, "tile_size")
        super().__init__(collection, block_words=block_words)
        self.workers = resolve_worker_count(workers)
        self.tile_size = tile_size
        self._band_rows = self._tile_edge(len(collection))

    def _tile_edge(self, n: int) -> int:
        """Rows per tile: explicit, or the shared auto-tiling policy."""
        if self.tile_size is not None:
            return self.tile_size
        return auto_tile_edge(n, self.workers)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ParallelPairCounter":
        """Start the worker threads (idempotent)."""
        if self._pool is None:
            self._pool = TilePool(self.workers)
        return self

    def close(self) -> None:
        """Join the worker threads (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "ParallelPairCounter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Queries (the batch engine's, with the threads started)
    # ------------------------------------------------------------------ #
    def counts_sorted(self):
        """Dense ``n x n`` count matrix in width-sorted (device) order, cached."""
        self.start()
        return super().counts_sorted()

    def count_result(self, **kwargs):
        """All-pairs counts as a :class:`~repro.core.results.CountResult`.

        Takes the arguments of :meth:`BatchPairCounter.count_result`.  Tiles
        below the pruning bound are skipped before they reach a thread.
        """
        self.start()
        return super().count_result(**kwargs)


# --------------------------------------------------------------------------- #
# Measured scaling (the non-simulated Figure 9 counterpart)
# --------------------------------------------------------------------------- #
def measure_executor_scaling(
    collection,
    worker_counts=(1, 2, 4),
    *,
    tile_size=None,
    repeats: int = 1,
) -> list:
    """Wall-clock the parallel counter's all-pairs counting at several worker counts.

    Unlike :func:`~repro.parallel.scaling.measure_split_scaling` — which
    *simulates* parallelism by splitting the instance and taking the max part
    time — every point here is a real end-to-end run: engine set-up, thread
    start, the tiled count and the reduction are all inside the measured
    window.  Returns :class:`~repro.parallel.scaling.ScalingPoint` objects so
    :func:`~repro.parallel.scaling.relative_speedups` applies unchanged.

    The tile size is pinned across worker counts (auto-tiling would shrink
    tiles as workers grow, and tile size alone changes cache behaviour —
    conflating blocking effects with parallel speed-up).  An untimed warm-up
    run precedes the measurements — the first pass over a fresh collection
    pays one-off costs (buffer page-in, allocator growth) that would
    otherwise be billed to whichever worker count happens to run first — and
    with ``repeats > 1`` the repeats are the outer loop, so background-load
    drift hits every worker count alike (the E5 timing discipline).
    """
    require_positive(repeats, "repeats")
    require(len(worker_counts) > 0, "worker_counts must not be empty")
    if tile_size is None:
        tile_size = auto_tile_edge(len(collection), max(worker_counts))

    def run_once(workers) -> float:
        start = time.perf_counter()
        with ParallelPairCounter(
            collection, workers=workers, tile_size=tile_size
        ) as counter:
            counter.counts_sorted()
        return time.perf_counter() - start

    run_once(worker_counts[0])  # warm-up, untimed
    best = {workers: float("inf") for workers in worker_counts}
    for _ in range(repeats):
        for workers in worker_counts:
            best[workers] = min(best[workers], run_once(workers))
    return [
        ScalingPoint(cores=int(workers), seconds=best[workers],
                     part_seconds=(best[workers],), merge_seconds=0.0)
        for workers in worker_counts
    ]
