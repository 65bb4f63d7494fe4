"""Real multiprocess pair counting over a shared-memory device buffer.

Everything else in :mod:`repro.parallel` *models* parallel execution (the
split-and-max methodology of Figure 9, the bandwidth-saturation model of
Figure 11).  This module actually runs it: the packed ``uint32`` device
buffer a :class:`~repro.core.collection.BatmapCollection` builds for the GPU
simulator is placed in ``multiprocessing.shared_memory``, the ``n x n`` pair
space is partitioned into the same upper-triangle tiles the device schedule
uses (:class:`~repro.kernels.tiling.TileScheduler`), and a pool of worker
processes re-attaches the buffer **zero-copy** and counts one tile per task
with the width-class SWAR engine (:class:`~repro.core.batch.WidthClassIndex`).

Per-task results are *per-tile count dicts* — ``{tile_key: count_block}`` —
and the parent folds them into one table with the same serial reduction the
Figure 9 simulation measures (:func:`~repro.parallel.scaling.merge_part_counts`)
before scattering the blocks into the dense result matrix.  Because every
tile is computed by the very same engine the serial batch path uses, the
parallel counts are bit-identical to ``compute="batch"`` on every workload
(all-pairs, explicit pair lists, cross rectangles).

Lifecycle / safety:

* :class:`ParallelPairCounter` is a context manager; ``close()`` (and hence
  ``__exit__``) shuts the pool down and **unlinks** the shared segment even
  when a worker died or a query raised, so no ``/dev/shm`` residue survives
  a failure;
* a ``weakref.finalize`` safety net unlinks the segment at garbage
  collection / interpreter exit if a caller never closed the counter;
* workers attach without taking ``multiprocessing.resource_tracker``
  ownership (``track=False`` on Python 3.13+), so the parent's ``unlink``
  stays the segment's single owner and no "leaked shared_memory" warnings
  are emitted at shutdown.

Small inputs are not worth a process pool: the workload planner
(:func:`repro.core.plan.plan_counts`) falls back to ``"batch"`` below
:data:`PARALLEL_MIN_SETS` or when only one worker is available.
"""

from __future__ import annotations

import multiprocessing
import os
import secrets
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory

import numpy as np

from repro.core.batch import DEFAULT_BLOCK_WORDS, BatchPairCounter, WidthClassIndex
from repro.core.results import DenseCountResult, SparseAccumulator, TopKAccumulator
from repro.kernels.tiling import TileScheduler
from repro.parallel.scaling import ScalingPoint, merge_part_counts
from repro.utils.validation import require, require_positive

__all__ = [
    "SHM_PREFIX",
    "PARALLEL_MIN_SETS",
    "MAX_AUTO_WORKERS",
    "DEFAULT_TILE_CAP",
    "SharedDeviceBuffer",
    "ParallelPairCounter",
    "auto_tile_edge",
    "resolve_worker_count",
    "measure_executor_scaling",
]

#: Prefix of every shared-memory segment the executor creates; the leak
#: regression tests scan ``/dev/shm`` for it.
SHM_PREFIX = "repro-batmap-"

#: Below this many sets the pool/segment setup dominates the counting work
#: and the serial batch engine wins; the planner falls back to it.  Measured
#: with the compiled SWAR kernel on a 2-core host (EXPERIMENTS.md E21):
#: density instances cross over between 1200 sets (batch 0.34 s, pool
#: 0.47 s) and 1600 sets (0.75 s vs 0.50 s); Zipfian collections stay
#: faster or tied on batch up to ~4000 sets.
PARALLEL_MIN_SETS = 1536

#: Auto-selected worker counts are capped here: the pair-count kernel is
#: memory-bound, so (exactly as Figure 11 measures for the CPU SWAR loop)
#: throughput saturates within a socket long before high core counts.
MAX_AUTO_WORKERS = 8

#: Upper bound on the auto-selected tile edge.  With the compiled kernel the
#: edge trades per-tile transfer against load balance, and neither side
#: dominates (E21, 2 workers): a 1600-set density instance counts in 0.49 s
#: at 128 and 0.55 s at 256, a 2173-set Zipfian one in 0.40 s and 0.32 s.
#: 128 keeps the sharded pipeline's tiles unchanged.
DEFAULT_TILE_CAP = 128


def auto_tile_edge(n: int, workers: int) -> int:
    """Auto-selected tile side: ~2 tile rows per worker, cache-capped.

    The single source of the tiling policy — the executor's per-query
    default and the measured-scaling benchmark (which pins one edge across
    worker counts) must agree, or recorded speed-up curves would measure a
    different blocking than production uses.
    """
    return max(32, min(DEFAULT_TILE_CAP, -(-n // (2 * workers))))


def resolve_worker_count(workers=None) -> int:
    """Number of worker processes to use.

    ``None`` auto-selects ``min(os.cpu_count(), MAX_AUTO_WORKERS)``; explicit
    values are validated but honoured even beyond the core count (useful for
    oversubscription experiments).
    """
    if workers is None:
        return max(1, min(os.cpu_count() or 1, MAX_AUTO_WORKERS))
    require_positive(workers, "workers")
    return int(workers)


# --------------------------------------------------------------------------- #
# Shared segment (parent side)
# --------------------------------------------------------------------------- #
def _unlink_quietly(shm: shared_memory.SharedMemory) -> None:
    """Best-effort close + unlink used by error paths and the GC safety net."""
    try:
        shm.close()
    except Exception:
        pass
    try:
        shm.unlink()
    except Exception:
        pass


class SharedDeviceBuffer:
    """A packed device buffer copied once into a named shared-memory segment.

    Created by the parent; workers re-attach by :attr:`name` and view the
    words zero-copy.  Context-manager exit (or :meth:`unlink`) removes the
    segment; a finalizer removes it at garbage collection as a last resort.
    """

    def __init__(self, words: np.ndarray) -> None:
        words = np.ascontiguousarray(words, dtype=np.uint32)
        require(words.size > 0, "cannot share an empty device buffer")
        self.n_words = int(words.size)
        self._shm = None
        for _ in range(16):
            name = f"{SHM_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
            try:
                self._shm = shared_memory.SharedMemory(
                    create=True, size=words.nbytes, name=name
                )
                break
            except FileExistsError:  # pragma: no cover - 2^32 collision
                continue
        if self._shm is None:  # pragma: no cover
            raise OSError("could not allocate a uniquely named shared-memory segment")
        view = np.frombuffer(self._shm.buf, dtype=np.uint32, count=self.n_words)
        view[:] = words
        del view  # the mmap cannot close while ndarray views are alive
        self._finalizer = weakref.finalize(self, _unlink_quietly, self._shm)

    @property
    def name(self) -> str:
        return self._shm.name

    def unlink(self) -> None:
        """Close the mapping and remove the segment (idempotent)."""
        if self._finalizer.alive:
            self._finalizer()

    def __enter__(self) -> "SharedDeviceBuffer":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
_worker_shm = None
_worker_index = None


def _attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without taking resource-tracker ownership.

    Python < 3.13 registers every attachment with the resource tracker.
    Pool workers share the parent's tracker process, whose cache is a set —
    so the duplicate registration is a harmless no-op and the parent's
    ``unlink()`` remains the single owner.  (A worker must *not* unregister:
    that would steal the parent's entry and make the parent's own unlink
    fail inside the tracker.)  3.13+ skips the registration entirely via
    ``track=False``.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def _init_worker(name, n_words, offsets, widths, block_words) -> None:
    """Pool initializer: re-attach the buffer and rebuild the SWAR engine.

    The words array is a zero-copy view of the shared mapping; only the
    per-slot offset/width metadata travels by pickle, once per worker.
    """
    global _worker_shm, _worker_index
    _worker_shm = _attach_shared_memory(name)
    words = np.frombuffer(_worker_shm.buf, dtype=np.uint32, count=n_words)
    _worker_index = WidthClassIndex(words, offsets, widths, block_words=block_words)


def _all_pairs_tile(p, q, row_start, row_end, col_start, col_end) -> dict:
    """One upper-triangle tile of the all-pairs matrix, keyed by tile coords."""
    block = _worker_index.cross_slots(
        np.arange(row_start, row_end), np.arange(col_start, col_end)
    )
    return {(p, q): block}


def _cross_tile(p, q, row_slots, col_slots) -> dict:
    """One tile of a cross-rectangle workload, keyed by tile coords."""
    return {(p, q): _worker_index.cross_slots(row_slots, col_slots)}


def _pairwise_chunk(start, a_slots, b_slots) -> dict:
    """One chunk of an explicit pairs-list workload, keyed by output offset."""
    return {start: _worker_index.pairwise_slots(a_slots, b_slots)}


# --------------------------------------------------------------------------- #
# Parent-side executor
# --------------------------------------------------------------------------- #
class ParallelPairCounter:
    """Multiprocess counterpart of :class:`~repro.core.batch.BatchPairCounter`.

    Use as a context manager::

        with ParallelPairCounter(collection, workers=4) as counter:
            counts = counter.count_all_pairs()

    Queries mirror the batch engine (:meth:`counts_sorted`,
    :meth:`count_all_pairs`, :meth:`count_pairs`, :meth:`count_cross`) and
    return bit-identical results; the work is tiled, fanned out to the pool,
    and reduced with :func:`~repro.parallel.scaling.merge_part_counts`.
    """

    def __init__(
        self,
        collection,
        *,
        workers=None,
        tile_size=None,
        block_words: int = DEFAULT_BLOCK_WORDS,
        mp_context=None,
    ) -> None:
        BatchPairCounter._validate(collection)
        if tile_size is not None:
            require_positive(tile_size, "tile_size")
        self.collection = collection
        self.workers = resolve_worker_count(workers)
        self.tile_size = tile_size
        self.block_words = int(block_words)
        self._mp_context = mp_context
        self._buffer = collection.device_buffer()
        self._shared = None
        self._pool = None
        self._counts_sorted = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ParallelPairCounter":
        """Create the shared segment and spin up the pool (idempotent)."""
        if self._pool is not None:
            return self
        self._shared = SharedDeviceBuffer(self._buffer.words)
        try:
            ctx = self._mp_context or multiprocessing.get_context()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(
                    self._shared.name,
                    self._shared.n_words,
                    self._buffer.offsets,
                    self._buffer.widths,
                    self.block_words,
                ),
            )
        except BaseException:
            self._shared.unlink()
            self._shared = None
            raise
        return self

    def close(self) -> None:
        """Shut the pool down and unlink the segment (idempotent, error-safe)."""
        pool, self._pool = self._pool, None
        shared, self._shared = self._shared, None
        try:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
        finally:
            if shared is not None:
                shared.unlink()

    def __enter__(self) -> "ParallelPairCounter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Fan-out / reduce
    # ------------------------------------------------------------------ #
    def _tile_edge(self, n: int) -> int:
        """Tile side length: explicit, or the shared auto-tiling policy."""
        if self.tile_size is not None:
            return self.tile_size
        return auto_tile_edge(n, self.workers)

    def _map_merge(self, fn, tasks) -> dict:
        """Submit every task, then serially fold the per-tile dicts into one.

        The reduction is the same :func:`merge_part_counts` the Figure 9
        simulation measures as its serial term — here applied to dicts whose
        values are count blocks, so the fold cost is per tile, not per pair.
        """
        self.start()
        futures = [self._pool.submit(fn, *task) for task in tasks]
        try:
            parts = [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return merge_part_counts(parts)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def counts_sorted(self) -> np.ndarray:
        """Dense ``n x n`` count matrix in width-sorted (device) order, cached."""
        if self._counts_sorted is None:
            n = len(self.collection)
            edge = self._tile_edge(n)
            tasks = [
                (t.p, t.q, t.row_start, t.row_end, t.col_start, t.col_end)
                for t in TileScheduler(n, edge)
            ]
            merged = self._map_merge(_all_pairs_tile, tasks)
            out = np.zeros((n, n), dtype=np.int64)
            for (p, q), block in merged.items():
                rows = slice(p * edge, p * edge + block.shape[0])
                cols = slice(q * edge, q * edge + block.shape[1])
                out[rows, cols] = block
                if p != q:
                    out[cols, rows] = block.T
            self._counts_sorted = out
        return self._counts_sorted

    def count_all_pairs(self) -> np.ndarray:
        """Dense ``n x n`` count matrix indexed by *original* set indices."""
        counts = self.counts_sorted()
        order = self.collection.order
        out = np.empty_like(counts)
        out[np.ix_(order, order)] = counts
        return out

    def slot_bounds(self) -> np.ndarray:
        """Per-slot count upper bounds from exact set sizes (width-sorted order).

        Same bound as :meth:`BatchPairCounter.slot_bounds`: ``Batmap.set_size``
        counts stored and failed insertions, so it also bounds the post-repair
        support — tile skipping stays sound under the miner's ``min_support``.
        """
        return np.array([bm.set_size for bm in self.collection.batmaps_sorted],
                        dtype=np.int64)

    def count_result(
        self,
        *,
        result_format: str = "dense",
        min_support: int = 0,
        top_k=None,
        bounds=None,
    ):
        """All-pairs counts as a :class:`~repro.core.results.CountResult`.

        The pruning happens on the *parent* side, before fan-out: every
        upper-triangle tile whose count upper bound (from ``bounds``, default
        :meth:`slot_bounds`) falls below the threshold is never submitted to
        the pool, so skipped tiles cost neither a pickle round-trip nor any
        SWAR work.  Surviving tile blocks are reduced into a COO accumulator
        (or a top-k heap) instead of being scattered into a dense matrix, so
        the parent's resident result stays proportional to the nonzeros.
        Counts are bit-identical to :meth:`BatchPairCounter.count_result`.
        """
        require(result_format in ("dense", "sparse"),
                f"result_format must be 'dense' or 'sparse', got {result_format!r}")
        require(min_support >= 0, f"min_support must be >= 0, got {min_support}")
        if top_k is None and result_format == "dense":
            return DenseCountResult(self.count_all_pairs())
        if top_k is not None:
            require_positive(top_k, "top_k")
        order = self.collection.order
        n = len(self.collection)
        bounds = (self.slot_bounds() if bounds is None
                  else np.asarray(bounds, dtype=np.int64))
        edge = self._tile_edge(n)
        # The heap floor is unknown before any tile returns, so parallel
        # submission prunes against the static min_support bound only; the
        # running floor still filters entries at reduce time below.
        floor = max(1, min_support) if top_k is not None else min_support
        tasks = []
        skipped = 0
        tiles_total = 0
        for t in TileScheduler(n, edge):
            tiles_total += 1
            if floor > 0:
                bound = min(int(bounds[t.row_start:t.row_end].max()),
                            int(bounds[t.col_start:t.col_end].max()))
                if bound < floor:
                    skipped += 1
                    continue
            tasks.append((t.p, t.q, t.row_start, t.row_end, t.col_start, t.col_end))
        stats = {"tiles_total": tiles_total, "tiles_skipped": skipped}
        merged = self._map_merge(_all_pairs_tile, tasks) if tasks else {}

        def tile_axes(p, q, block):
            rows = np.arange(p * edge, p * edge + block.shape[0])
            cols = np.arange(q * edge, q * edge + block.shape[1])
            if p == q:
                block = np.where(rows[:, None] <= cols[None, :], block, 0)
            return rows, cols, block

        if top_k is not None:
            acc = TopKAccumulator(top_k)
            for (p, q), block in merged.items():
                rows, cols, block = tile_axes(p, q, block)
                fl = max(1, min_support, acc.floor)
                r_local, c_local = np.nonzero(block >= fl)
                if r_local.size == 0:
                    continue
                oi = order[rows[r_local]]
                oj = order[cols[c_local]]
                keep = oi != oj
                if not keep.any():
                    continue
                values = block[r_local, c_local][keep]
                acc.push(np.minimum(oi[keep], oj[keep]),
                         np.maximum(oi[keep], oj[keep]), values)
            return acc.result(n, min_support=min_support, stats=stats,
                              fill_zeros=min_support <= 1)
        sparse = SparseAccumulator(n, min_support=min_support)
        for (p, q), block in merged.items():
            rows, cols, block = tile_axes(p, q, block)
            sparse.add_block(order[rows], order[cols], block)
        sparse.tiles_total = stats["tiles_total"]
        sparse.tiles_skipped = stats["tiles_skipped"]
        return sparse.finalize()

    def count_pairs(self, pairs) -> np.ndarray:
        """Counts for an explicit list of ``(i, j)`` original-index pairs."""
        pairs = np.asarray(pairs, dtype=np.int64)
        require(pairs.ndim == 2 and pairs.shape[1] == 2,
                f"pairs must have shape (k, 2), got {pairs.shape}")
        total = pairs.shape[0]
        if total == 0:
            return np.zeros(0, dtype=np.int64)
        rank = self.collection.rank
        a = rank[pairs[:, 0]]
        b = rank[pairs[:, 1]]
        chunk = -(-total // (4 * self.workers))
        tasks = [(start, a[start:start + chunk], b[start:start + chunk])
                 for start in range(0, total, chunk)]
        merged = self._map_merge(_pairwise_chunk, tasks)
        out = np.empty(total, dtype=np.int64)
        for start, counts in merged.items():
            out[start:start + counts.size] = counts
        return out

    def count_pair(self, i: int, j: int) -> int:
        """Stored-copy intersection count of original sets ``i`` and ``j``."""
        return int(self.count_pairs(np.array([[i, j]], dtype=np.int64))[0])

    def count_cross(self, rows, cols) -> np.ndarray:
        """Rectangular count matrix between two lists of original indices."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        out = np.zeros((rows.size, cols.size), dtype=np.int64)
        if rows.size == 0 or cols.size == 0:
            return out
        rank = self.collection.rank
        row_slots = rank[rows]
        col_slots = rank[cols]
        edge = self._tile_edge(max(rows.size, cols.size))
        tasks = [
            (p, q, row_slots[p * edge:(p + 1) * edge], col_slots[q * edge:(q + 1) * edge])
            for p in range(-(-rows.size // edge))
            for q in range(-(-cols.size // edge))
        ]
        merged = self._map_merge(_cross_tile, tasks)
        for (p, q), block in merged.items():
            out[p * edge:p * edge + block.shape[0],
                q * edge:q * edge + block.shape[1]] = block
        return out


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
    """Wall-clock the executor's all-pairs counting at several worker counts.

    Unlike :func:`~repro.parallel.scaling.measure_split_scaling` — which
    *simulates* parallelism by splitting the instance and taking the max part
    time — every point here is a real end-to-end run: segment creation, pool
    startup, tile fan-out, and the serial merge are all inside the measured
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
