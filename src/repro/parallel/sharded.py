"""Shard-aware tile scheduling: stream shard-pair rectangles through the engine.

The out-of-core counterpart of :mod:`repro.parallel.executor` for a
:class:`~repro.core.sharded.ShardedCollection`: the ``n x n`` pair space
decomposes into shard-pair rectangles (upper triangle of shard pairs only,
by symmetry), at most two shards are attached (memory-mapped) at a time,
and every rectangle is cut into row tiles answered by the very same
width-class SWAR engine — inline, or on a
:class:`~repro.core.batch.TilePool` of threads that all read the same
mapped rows.  Counts are bit-identical to both in-memory engines on every
workload.

Backend choice routes through the workload planner
(:func:`repro.core.plan.plan_counts`): small collections, single-core hosts
and the NumPy kernel fallback stay serial, everything else runs on threads
— the same policy every other integration point shares.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.core.batch import (
    DEFAULT_BLOCK_WORDS,
    SPARSE_TILE_ENTRIES,
    TilePool,
    sparse_all_pairs,
    sparse_cross,
    width_slot_bounds,
)
from repro.core.plan import PlanFeatures, plan_counts, resolve_result_format
from repro.core.results import DenseCountResult, SparseAccumulator, TopKAccumulator
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

    ``compute`` mirrors the collection API: ``"batch"`` (and ``"host"``)
    count every tile inline; ``"parallel"`` counts them on a pool of
    threads (falling back to serial below the planner's floors); ``"auto"``
    asks the workload planner.  Either way shard pairs stream with at most
    two shards attached.  ``memory_budget`` additionally shrinks the SWAR
    block budget so counting temporaries respect the same ceiling the shards
    were sized for.
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
        requested = {"auto": "auto", "host": "batch", "batch": "batch",
                     "parallel": "parallel"}[compute]
        features = PlanFeatures(
            n_sets=sharded.n_physical_sets,
            total_words=sharded.total_words,
            r0=sharded.r0,
            byte_entries=True,
            n_shards=sharded.n_shards,
            result_format=self.result_format,
            min_support=self.min_support,
        )
        self.plan = plan_counts(features, requested=requested, workers=workers)

    # ------------------------------------------------------------------ #
    def _tile_edge(self) -> int:
        if self.tile_size is not None:
            return self.tile_size
        largest = max(shard.n_sets for shard in self.sharded.shards)
        return max(32, min(DEFAULT_TILE_CAP, largest))

    def _tiling(self):
        """``(pool context, rows per tile)`` for the planned backend.

        Serial runs keep each query's own default tiling; threaded runs cut
        rectangles into tiles of :meth:`_tile_edge` rows so every thread
        has work.
        """
        if self.plan.backend == "parallel":
            return TilePool(self.plan.workers), self._tile_edge()
        return nullcontext(None), None

    def _shard_pairs(self):
        """``(p, index_p, q, index_q)`` per shard pair, ``q >= p``; two attached at a time."""
        shards = self.sharded.shards
        for p in range(len(shards)):
            idx_p = self.sharded.attach(p, block_words=self.block_words)
            yield p, idx_p, p, idx_p
            for q in range(p + 1, len(shards)):
                yield p, idx_p, q, self.sharded.attach(q, block_words=self.block_words)

    def counts(self) -> np.ndarray:
        """Dense count matrix over the *live* sets, in live index order.

        Tiles are computed in physical (storage) space — tombstones never
        change a stored row, so per-tile work is untouched — and the final
        matrix drops tombstoned rows/columns, matching a from-scratch build
        over only the live sets bit for bit.
        """
        n = self.sharded.n_physical_sets
        shards = self.sharded.shards
        out = np.zeros((n, n), dtype=np.int64)
        context, band_rows = self._tiling()
        with context as pool:
            for p, idx_p, q, idx_q in self._shard_pairs():
                rows_global = shards[p].global_order
                cols_global = shards[q].global_order
                if p == q:
                    out[np.ix_(rows_global, rows_global)] = idx_p.all_pairs(
                        pool=pool, band_rows=band_rows)
                    continue
                rect = idx_p.cross_index(idx_q, pool=pool, band_rows=band_rows)
                out[np.ix_(rows_global, cols_global)] = rect
                out[np.ix_(cols_global, rows_global)] = rect.T
        tombstones = getattr(self.sharded, "tombstones", None)
        if tombstones is not None and tombstones.size:
            live = self.sharded.live_ids
            out = out[np.ix_(live, live)]
        return out

    # ------------------------------------------------------------------ #
    # CountResult-producing queries (sparse / pruned / top-k)
    # ------------------------------------------------------------------ #
    def shard_slot_bounds(self, bounds=None) -> list:
        """Per-shard, slot-indexed count upper bounds (tombstoned slots zeroed).

        ``bounds`` — when the caller knows exact post-repair set sizes (the
        miner's item supports) — is indexed by *physical* set id; without it
        the bound falls back to the packed widths plus the per-set failed
        counts (:func:`~repro.core.batch.width_slot_bounds`), which only
        needs the mmap'd layout arrays.  Tombstoned slots get a zero bound:
        their entries are dropped from the result anyway, so zeroing lets
        whole tiles of deleted sets prune away.
        """
        live_pos = self.sharded.live_positions
        per_shard = []
        for shard in self.sharded.shards:
            if bounds is not None:
                b = np.asarray(bounds, dtype=np.int64)[shard.global_order]
            else:
                widths = np.load(shard.directory / "widths.npy")
                failed_local = np.bincount(
                    np.asarray(shard.failed, dtype=np.int64).reshape(-1, 2)[:, 1],
                    minlength=shard.n_sets)
                b = width_slot_bounds(widths, failed_local[shard.order])
            b = b.copy()
            b[live_pos[shard.global_order] < 0] = 0
            per_shard.append(b)
        return per_shard

    def repairable(self) -> np.ndarray:
        """Live-index mask of the sets with failed insertions (see ``SparseAccumulator``)."""
        live_pos = self.sharded.live_positions
        mask = np.zeros(self.sharded.n_sets, dtype=bool)
        for shard in self.sharded.shards:
            local = np.asarray(shard.failed, dtype=np.int64).reshape(-1, 2)[:, 1]
            live = live_pos[local + shard.lo]
            mask[live[live >= 0]] = True
        return mask

    def count_result(self, *, min_support=None, top_k=None, bounds=None,
                     tile_entries: int = SPARSE_TILE_ENTRIES):
        """All-pairs counts as a :class:`~repro.core.results.CountResult`.

        The dense format wraps :meth:`counts` unchanged (the oracle path).
        Sparse and top-k results never materialise the ``n x n`` matrix:
        shard-pair rectangles stream through the pruned tile walkers
        (:func:`~repro.core.batch.sparse_all_pairs` within a shard,
        :func:`~repro.core.batch.sparse_cross` across shards), inline or on
        the planned thread pool; tiles below the bound are skipped before
        any SWAR work and surviving blocks reduce straight into the COO/heap
        accumulator.  Results are expressed in live indices (tombstoned sets
        dropped), bit-identical to filtering :meth:`counts`.
        """
        ms = self.min_support if min_support is None else int(min_support)
        require(ms >= 0, f"min_support must be >= 0, got {ms}")
        if top_k is not None:
            require_positive(top_k, "top_k")
        if top_k is None and self.result_format == "dense":
            return DenseCountResult(self.counts())
        live_pos = self.sharded.live_positions
        n_live = self.sharded.n_sets
        shard_bounds = self.shard_slot_bounds(bounds)

        if top_k is not None:
            acc = TopKAccumulator(top_k)

            def threshold():
                return max(ms, acc.floor)
        else:
            acc = SparseAccumulator(n_live, min_support=ms,
                                    repairable=self.repairable())

            def threshold():
                return ms

        def consume_factory(row_order, col_order):
            """Tile sink mapping slot axes -> physical -> live indices."""

            def consume(rows, cols, block):
                li = live_pos[row_order[rows]]
                lj = live_pos[col_order[cols]]
                keep_r = li >= 0
                keep_c = lj >= 0
                if not (keep_r.all() and keep_c.all()):
                    block = block[np.ix_(keep_r, keep_c)]
                    li, lj = li[keep_r], lj[keep_c]
                if top_k is None:
                    acc.add_block(li, lj, block)
                    return
                floor = max(1, ms, acc.floor)
                r_l, c_l = np.nonzero(block >= floor)
                if r_l.size == 0:
                    return
                oi, oj = li[r_l], lj[c_l]
                keep = oi != oj
                if not keep.any():
                    return
                acc.push(np.minimum(oi[keep], oj[keep]),
                         np.maximum(oi[keep], oj[keep]),
                         block[r_l, c_l][keep])

            return consume

        stats = {"tiles_total": 0, "tiles_skipped": 0}
        shards = self.sharded.shards
        context, band_rows = self._tiling()
        with context as pool:
            for p, idx_p, q, idx_q in self._shard_pairs():
                consume = consume_factory(shards[p].global_order,
                                          shards[q].global_order)
                if p == q:
                    part = sparse_all_pairs(
                        idx_p, consume=consume, bounds=shard_bounds[p],
                        threshold=threshold, tile_entries=tile_entries,
                        pool=pool, band_rows=band_rows)
                else:
                    part = sparse_cross(
                        idx_p, idx_q, consume=consume,
                        row_bounds=shard_bounds[p], col_bounds=shard_bounds[q],
                        threshold=threshold, tile_entries=tile_entries,
                        pool=pool, band_rows=band_rows)
                stats["tiles_total"] += part["tiles_total"]
                stats["tiles_skipped"] += part["tiles_skipped"]
        if top_k is not None:
            return acc.result(n_live, min_support=ms, stats=stats,
                              fill_zeros=ms <= 1)
        acc.tiles_total = stats["tiles_total"]
        acc.tiles_skipped = stats["tiles_skipped"]
        return acc.finalize()
