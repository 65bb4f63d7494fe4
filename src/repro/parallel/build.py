"""Multiprocess bulk construction: set-sharded building over shared memory.

The counterpart of :mod:`repro.parallel.executor` for the *construction*
phase.  Because bulk placement is per-set independent (claims never cross
sets — see :mod:`repro.core.bulk_build`), the collection can be split into
contiguous shards of width-sorted slots and each shard built by a worker
process with the very same round-based engine the in-process path uses; the
results are **bit-identical** to a single-process bulk build regardless of
the sharding.

Data movement mirrors the executor's discipline, reversed: there the parent
shares a read-only packed buffer and workers read; here the parent shares a
writable *entries* buffer — one slice per batmap, at offsets known before
any placement runs (``3 * r_k`` entries per set) — and workers write their
shard's encoded entries straight into it.  Only the input element arrays
(pickled once, with the hash family shipped once per worker through the
pool initializer) and the small per-set failure/stats metadata cross the
process boundary; the bulk of the output never does.

The pay-off floors live in the workload planner
(:func:`repro.core.plan.plan_build`): construction runs as compiled C, so
shipping sets out and entries back costs about as much as the placement
it spreads, and the pool only wins on very large collections; below the
floors the planner demotes to the in-process bulk engine.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.core.bulk_build import BulkBuiltSet, bulk_build_sets
from repro.core.config import BatmapConfig, DEFAULT_CONFIG
from repro.parallel.executor import (
    SharedDeviceBuffer,
    _attach_shared_memory,
    resolve_worker_count,
)
from repro.utils.validation import require

__all__ = ["SharedEntriesBuffer", "parallel_bulk_build_sets"]


class SharedEntriesBuffer(SharedDeviceBuffer):
    """A writable shared segment sized for every batmap's entries.

    Reuses the executor's naming/unlink lifecycle (same ``repro-batmap-``
    prefix, same finalizer safety net) but starts zero-filled instead of
    copying an existing buffer: workers fill their slices, the parent reads
    the result back once.
    """

    def __init__(self, n_items: int, dtype: np.dtype) -> None:
        # Allocate through the parent class with a zero seed array of the
        # right byte size; entry dtypes are 8/16/32-bit unsigned, all of
        # which tile exactly into the uint32 words the base class stores.
        itemsize = np.dtype(dtype).itemsize
        n_words = max(1, -(-n_items * itemsize // 4))
        super().__init__(np.zeros(n_words, dtype=np.uint32))
        self.n_items = int(n_items)
        self.dtype = np.dtype(dtype)

    def view(self) -> np.ndarray:
        return np.frombuffer(self._shm.buf, dtype=self.dtype,
                             count=self.n_items)


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
_build_state = None


def _init_build_worker(name, n_items, dtype_str, family, config) -> None:
    """Attach the shared entries buffer and stash the per-worker context."""
    global _build_state
    shm = _attach_shared_memory(name)
    view = np.frombuffer(shm.buf, dtype=np.dtype(dtype_str), count=n_items)
    _build_state = (shm, view, family, config)


def _build_shard(sets, rs, offsets) -> list:
    """Build one shard of sets; write entries into the shared buffer.

    Returns only the small per-set metadata ``(r, failed, stats)`` — the
    encoded entries travel through shared memory.
    """
    _, view, family, config = _build_state
    built = bulk_build_sets(sets, rs, family, config)
    meta = []
    for b, offset in zip(built, offsets):
        view[int(offset):int(offset) + b.entries.size] = b.entries.reshape(-1)
        meta.append((b.r, b.failed, b.stats))
    return meta


# --------------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------------- #
def _shard_bounds(lengths: np.ndarray, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous slot ranges with roughly equal element totals per shard."""
    total = int(lengths.sum())
    cumulative = np.cumsum(lengths)
    bounds = []
    start = 0
    for shard in range(1, n_shards + 1):
        stop = int(np.searchsorted(cumulative, shard * total / n_shards,
                                   side="right"))
        stop = max(stop, start)
        if shard == n_shards:
            stop = int(lengths.size)
        if stop > start:
            bounds.append((start, stop))
        start = stop
    return bounds or [(0, int(lengths.size))]


def parallel_bulk_build_sets(
    sets: list[np.ndarray],
    rs: list[int],
    family,
    config: BatmapConfig = DEFAULT_CONFIG,
    *,
    workers: int | None = None,
    mp_context=None,
) -> list[BulkBuiltSet]:
    """Build every set with the bulk engine across a process pool.

    ``sets`` are sorted, deduplicated element arrays and ``rs[k]`` the hash
    range of ``sets[k]`` (the same contract as
    :func:`~repro.core.bulk_build.bulk_build_sets`, whose results this
    matches bit for bit).  The pool is torn down and the shared segment
    unlinked before returning, on success and on every error path.
    """
    require(len(sets) == len(rs), "sets and rs must have the same length")
    require(len(sets) > 0, "cannot build an empty collection")
    n_workers = resolve_worker_count(workers)
    entry_counts = np.array([3 * int(r) for r in rs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(entry_counts)[:-1]]).astype(np.int64)
    total = int(entry_counts.sum())
    lengths = np.array([s.size for s in sets], dtype=np.int64)
    # ~2 shards per worker so an unlucky heavy shard cannot serialise the end.
    bounds = _shard_bounds(lengths, 2 * n_workers)

    dtype = config.entry_dtype
    with SharedEntriesBuffer(total, dtype) as shared:
        ctx = mp_context or multiprocessing.get_context()
        with ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=ctx,
            initializer=_init_build_worker,
            initargs=(shared.name, total, dtype.str, family, config),
        ) as pool:
            futures = [
                pool.submit(_build_shard, sets[lo:hi], rs[lo:hi],
                            offsets[lo:hi])
                for lo, hi in bounds
            ]
            metas: list = []
            try:
                for future in futures:
                    metas.extend(future.result())
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
        # One copy out of the segment; per-set entries are views into it.
        all_entries = shared.view().copy()

    built = []
    for k, (r, failed, stats) in enumerate(metas):
        entries = all_entries[int(offsets[k]):int(offsets[k]) + 3 * r]
        built.append(BulkBuiltSet(r=int(r), entries=entries.reshape(3, r),
                                  failed=tuple(failed), stats=stats))
    return built
