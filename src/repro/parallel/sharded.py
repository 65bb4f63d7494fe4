"""Counting over a spilled collection: one tile-walk shard per spilled shard.

The out-of-core counterpart of :mod:`repro.parallel.executor` for a
:class:`~repro.core.sharded.ShardedCollection`: every spilled shard is one
:class:`~repro.core.batch.Shard` of :func:`~repro.core.batch.walk_tiles`,
memory-mapped only when the walk reaches it (two at a time), counted with
the same width-class SWAR engine inline or on a
:class:`~repro.core.batch.TilePool` of threads.  Tombstoned sets map to no
output id and are never counted.  The workload planner
(:func:`repro.core.plan.plan_counts`) picks the backend, with the policy
every other integration point shares.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.core.batch import (
    DEFAULT_BLOCK_WORDS,
    SPARSE_TILE_ENTRIES,
    Shard,
    TilePool,
    count_shards,
)
from repro.core.plan import PlanFeatures, plan_counts, resolve_result_format
from repro.parallel.executor import DEFAULT_TILE_CAP, resolve_worker_count
from repro.utils.validation import require, require_positive

__all__ = [
    "block_words_for_budget",
    "ShardedPairCounter",
]


def block_words_for_budget(memory_budget=None) -> int:
    """SWAR block budget honouring a resident-set ceiling.

    The broadcast comparison keeps a handful of ``block_words``-sized uint64
    temporaries alive; dividing the budget by 128 keeps their total around a
    quarter of the ceiling.  Without a budget the cache-sized default
    applies unchanged.
    """
    if memory_budget is None:
        return DEFAULT_BLOCK_WORDS
    require_positive(memory_budget, "memory_budget")
    return int(min(DEFAULT_BLOCK_WORDS, max(1 << 12, memory_budget // 128)))


class ShardedPairCounter:
    """All-pairs counting over a spilled :class:`ShardedCollection`.

    ``compute`` mirrors the collection API and is resolved by the workload
    planner: ``"batch"`` counts every tile inline, ``"parallel"`` counts
    them on a pool of threads (falling back to serial below the planner's
    floors), ``"auto"`` applies the full policy, and ``"host"`` runs the
    batch engine because a spilled source has no per-pair engine.
    ``memory_budget`` additionally shrinks the SWAR block budget so
    counting temporaries respect the same ceiling the shards were sized for.
    ``result_format`` (``"auto"`` resolved against that budget) picks one of
    the two result types :meth:`count_result` returns: dense, or sparse
    pruned at ``min_support``.
    """

    def __init__(
        self,
        sharded,
        *,
        compute: str = "auto",
        workers=None,
        tile_size=None,
        memory_budget=None,
        result_format: str = "dense",
        min_support: int = 0,
    ) -> None:
        require(compute in ("auto", "batch", "host", "parallel"),
                f"compute must be 'auto', 'batch', 'host' or 'parallel', got {compute!r}")
        require(sharded.n_shards > 0, "cannot count an empty sharded collection")
        require(min_support >= 0, f"min_support must be >= 0, got {min_support}")
        if tile_size is not None:
            require_positive(tile_size, "tile_size")
        self.sharded = sharded
        self.workers = resolve_worker_count(workers)
        self.tile_size = tile_size
        self.result_format = resolve_result_format(
            result_format, sharded.n_physical_sets, memory_budget)
        self.min_support = int(min_support)
        if memory_budget is not None and self.result_format == "dense":
            # The dense result matrix is resident throughout counting; only
            # the remainder bounds the SWAR temporaries.  A sparse result
            # keeps only surviving nonzeros, so the full budget stays
            # available for counting temporaries.
            memory_budget = max(1, memory_budget - 8 * sharded.n_physical_sets ** 2)
        self.block_words = block_words_for_budget(memory_budget)
        features = PlanFeatures(
            n_sets=sharded.n_physical_sets,
            total_words=sharded.total_words,
            r0=sharded.r0,
            byte_entries=True,
            n_shards=sharded.n_shards,
            result_format=self.result_format,
            min_support=self.min_support,
        )
        self.plan = plan_counts(features, requested=compute, workers=workers)

    # ------------------------------------------------------------------ #
    def _tile_edge(self) -> int:
        if self.tile_size is not None:
            return self.tile_size
        largest = max(shard.n_sets for shard in self.sharded.shards)
        return max(32, min(DEFAULT_TILE_CAP, largest))

    def shards(self, bounds=None) -> list:
        """One lazily attached :class:`~repro.core.batch.Shard` per spilled shard.

        Slots map to live indices (tombstoned ones to none); ``bounds``
        (per shard, see :meth:`shard_slot_bounds`) enables tile pruning.
        """
        live_pos = self.sharded.live_positions

        def attach(p):
            return lambda: self.sharded.attach(p, block_words=self.block_words)

        return [Shard.of(attach(p), live_pos[shard.global_order],
                         None if bounds is None else bounds[p])
                for p, shard in enumerate(self.sharded.shards)]

    def _count(self, result_format: str, *, min_support: int = 0, bounds=None,
               tile_entries: int = SPARSE_TILE_ENTRIES):
        """One triangle walk over every shard, on the planned backend."""
        n = self.sharded.n_sets
        sparse = result_format == "sparse"
        shards = self.shards(self.shard_slot_bounds(bounds) if sparse else None)
        if self.plan.backend == "parallel":
            pool, band_rows = TilePool(self.plan.workers), self._tile_edge()
        else:
            pool, band_rows = nullcontext(None), None
        with pool as pool:
            return count_shards(
                shards, shape=(n, n), result_format=result_format,
                min_support=min_support,
                repairable=self.repairable() if sparse else None,
                pool=pool, band_rows=band_rows, tile_entries=tile_entries)

    def counts(self) -> np.ndarray:
        """Dense count matrix over the *live* sets, in live index order.

        Bit-identical to a from-scratch build over only the live sets.
        """
        return self._count("dense").matrix()

    # ------------------------------------------------------------------ #
    # CountResult-producing queries (dense / sparse-pruned)
    # ------------------------------------------------------------------ #
    def shard_slot_bounds(self, bounds=None) -> list:
        """Per-shard, slot-indexed count upper bounds.

        ``bounds`` — when the caller knows exact post-repair set sizes (the
        miner's item supports) — is indexed by *physical* set id; without it
        the bound falls back to the packed widths plus the per-set failed
        counts (:meth:`~repro.core.sharded.ShardInfo.slot_bounds`), which
        only needs the mmap'd layout arrays.
        """
        if bounds is not None:
            bounds = np.asarray(bounds, dtype=np.int64)
            return [bounds[shard.global_order] for shard in self.sharded.shards]
        return [shard.slot_bounds(np.load(shard.directory / "widths.npy"))
                for shard in self.sharded.shards]

    def repairable(self) -> np.ndarray:
        """Live-index mask of the sets with failed insertions (see ``SparseAccumulator``)."""
        live_pos = self.sharded.live_positions
        mask = np.zeros(self.sharded.n_sets, dtype=bool)
        for shard in self.sharded.shards:
            local = np.asarray(shard.failed, dtype=np.int64).reshape(-1, 2)[:, 1]
            live = live_pos[local + shard.lo]
            mask[live[live >= 0]] = True
        return mask

    def count_result(self, *, min_support=None, bounds=None,
                     tile_entries: int = SPARSE_TILE_ENTRIES):
        """All-pairs counts as a :class:`~repro.core.results.CountResult`.

        The dense format is the unpruned oracle.  A sparse result never
        materialises the ``n x n`` matrix: tiles below the bound are
        skipped before any SWAR work and surviving blocks reduce straight
        into the COO accumulator.  Results are expressed in live indices
        (tombstoned sets dropped), bit-identical to filtering :meth:`counts`.
        """
        ms = self.min_support if min_support is None else int(min_support)
        require(ms >= 0, f"min_support must be >= 0, got {ms}")
        return self._count(self.result_format, min_support=ms, bounds=bounds,
                           tile_entries=tile_entries)
