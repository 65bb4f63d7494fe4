"""Vectorized batch pair counting over a packed :class:`BatmapCollection`.

The host-side reference path used to compute every intersection count with a
per-pair Python call (``count_common`` inside a double loop): one
``_check_compatible`` validation, one re-tiling of the smaller batmap and one
SWAR pass *per pair*.  For ``n`` sets that is ``O(n^2)`` interpreter overhead
dominating the actual bit work.

This module replaces that loop with a **batch engine** that operates directly
on the flat device buffer the collection already builds for the GPU
simulator:

* batmaps are grouped into *width classes* (same packed word width, i.e. the
  same hash range ``r``); each class is materialised as one dense
  ``(n_class, width)`` ``uint32`` matrix gathered from the device buffer;
* all pairs within a class — and all cross-class pairs, folded through the
  range-nesting property ``h mod r_small == (h mod r_large) mod r_small`` —
  are counted in row tiles, one call of a SWAR fold primitive per tile
  (:mod:`repro.core.swar_kernel`: compiled C, or NumPy when no compiler is
  available);
* compatibility (shared hash family, compression floor) is validated **once**
  per engine, not once per pair.

Because the interleaved device layout of Figure 4 is block-aligned to the
collection granularity ``r0 >= 4`` (a power of two, so every table slice is
32-bit aligned), folding word position ``p`` of a wide batmap onto word
position ``p mod width_small`` of a narrow one matches exactly the per-row
``mod r_small`` folding of :func:`repro.core.intersection.count_common` —
the engine's counts are bit-identical to the per-pair reference.

The module is split into two layers:

* :class:`WidthClassIndex` — the pure *layout-level* engine.  It knows only
  the flat ``uint32`` word buffer plus per-slot offsets and widths; every
  query is expressed in width-sorted **slot** indices.  Because it needs no
  :class:`Batmap` objects, hash family or original-index mapping, the
  out-of-core pipeline builds one over each memory-mapped spilled shard.
* :class:`BatchPairCounter` — the collection-level wrapper: validates
  compatibility once, owns the original-index <-> slot mapping and the
  cached all-pairs matrix.

Every tiled query is one call of :func:`walk_tiles`: a walk over a
sequence of :class:`Shard` (a width-class index plus where its slots land in
the output) that covers an upper triangle or a rows x columns rectangle in
class-pair tiles, skips tiles whose count bound cannot reach the sink's
floor, and feeds one sink — a dense scatter or a
:class:`~repro.core.results.SparseAccumulator`.  An
in-memory collection is one shard; a spill is one shard per spilled file
set, attached only when the walk reaches it.  With a
:class:`TilePool` the tiles run on threads: the compiled fold releases the
GIL for the whole call, and each thread reduces its block straight into
the sink (dense tiles own disjoint regions, the sparse accumulator
stores each tile with one list append).

The engine is the shared hot path for :meth:`BatmapCollection.count_all_pairs`,
the boolean-matrix workloads (:mod:`repro.matrix.multiply`), the mining
pipeline (:mod:`repro.mining.pair_mining`), the parallel and sharded
counters of :mod:`repro.parallel` and the query server
(:mod:`repro.serve.engine`).
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np

from repro.core.errors import LayoutError
from repro.core.intersection import require_compression_floor, require_same_family
from repro.core.results import CountResult, DenseCountResult, SparseAccumulator
from repro.core.swar_kernel import DEFAULT_BLOCK_WORDS, fold_counts, fold_counts_rows
from repro.utils.arrays import sorted_unique
from repro.utils.validation import require, require_positive

__all__ = [
    "WidthClassIndex",
    "BatchPairCounter",
    "TilePool",
    "map_tiles",
    "Shard",
    "DenseSink",
    "walk_tiles",
    "count_shards",
    "DEFAULT_BLOCK_WORDS",
    "SPARSE_TILE_ENTRIES",
]


#: Rows per tile of a dense walk (sparse walks size tiles by
#: :data:`SPARSE_TILE_ENTRIES`): within one width class only the diagonal
#: ``band x band`` blocks of a triangle are counted twice.
SYMMETRIC_BAND_ROWS = 128

#: Upper bound on the entries of one sparse-mode count tile (the dense
#: ``(rows, cols)`` int64 block that exists only transiently between the
#: SWAR fold and the nonzero extraction).  2**20 entries keep each
#: temporary at 8 MB — small enough that the sparse path's peak is governed
#: by the stored nonzeros, not by tile scratch.
SPARSE_TILE_ENTRIES = 1 << 20


def _span(slots: np.ndarray):
    """``slots`` as a slice when they run consecutively upward (width-sorted classes do)."""
    if (slots.size and int(slots[-1]) - int(slots[0]) == slots.size - 1
            and (slots.size < 3 or bool((np.diff(slots) == 1).all()))):
        return slice(int(slots[0]), int(slots[-1]) + 1)
    return slots


def _scatter(out: np.ndarray, rows, cols, block: np.ndarray) -> None:
    """``out[rows x cols] = block``, a slice copy when both axes are consecutive."""
    rows, cols = _span(rows), _span(cols)
    if isinstance(rows, slice) and isinstance(cols, slice):
        out[rows, cols] = block
    else:
        out[np.ix_(np.r_[rows], np.r_[cols])] = block


class TilePool:
    """Threads that count tiles concurrently.

    The compiled fold releases the GIL for the whole call, so the threads
    count tiles in parallel, all reading the same rows.  Use as a context
    manager, or call :meth:`close`.
    """

    def __init__(self, workers: int) -> None:
        from concurrent.futures import ThreadPoolExecutor  # only parallel runs need it

        require_positive(workers, "workers")
        self.workers = int(workers)
        self._executor = ThreadPoolExecutor(self.workers,
                                            thread_name_prefix="repro-tile")

    def map(self, fn, tiles):
        """Yield ``(tile, fn(tile))`` in tile order, ``2 * workers`` tiles in flight.

        The window bounds the count blocks alive at once.  ``tiles`` is
        pulled from the calling thread.  An exception raised by ``fn`` reaches
        the caller, and the tiles still queued are cancelled.
        """
        window: deque = deque()
        try:
            for tile in tiles:
                window.append((tile, self._executor.submit(fn, tile)))
                if len(window) >= 2 * self.workers:
                    done, future = window.popleft()
                    yield done, future.result()
            while window:
                done, future = window.popleft()
                yield done, future.result()
        finally:
            for _, future in window:
                future.cancel()

    def close(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "TilePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def map_tiles(fn, tiles, pool: TilePool | None = None):
    """``(tile, fn(tile))`` for every tile: on ``pool``'s threads, or inline."""
    if pool is not None:
        return pool.map(fn, tiles)
    return ((tile, fn(tile)) for tile in tiles)


def _require_nested(widths_a: np.ndarray, widths_b: np.ndarray) -> None:
    merged = sorted_unique(np.concatenate([widths_a, widths_b]))
    for small, large in zip(merged[:-1], merged[1:]):
        require(int(large) % int(small) == 0,
                f"cross-buffer widths {int(large)} and {int(small)} do not nest; "
                "both shards must be packed from the same nested range family")


class WidthClassIndex:
    """Width-class pair-counting engine over a flat packed word buffer.

    The layout-level half of the batch engine: it is built from the three
    arrays of a :class:`~repro.core.collection.DeviceBuffer` (``words``,
    ``offsets``, ``widths``) and answers counting queries in width-sorted
    *slot* indices.  It never touches :class:`Batmap` objects, so it can be
    built over a memory-mapped spilled shard as well as an in-memory buffer.

    Dense per-class matrices are materialised lazily: whole-class queries
    (:meth:`all_pairs`) gather and cache them, while tile-shaped queries
    (:meth:`cross_index`, :meth:`pairwise_index`) gather only the rows they
    need.

    ``block_words`` bounds the broadcast temporaries of the NumPy fallback
    primitive; the compiled kernel makes none.
    """

    def __init__(
        self,
        words: np.ndarray,
        offsets: np.ndarray,
        widths: np.ndarray,
        *,
        block_words: int = DEFAULT_BLOCK_WORDS,
    ) -> None:
        require_positive(block_words, "block_words")
        self.words = words
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.widths = np.asarray(widths, dtype=np.int64)
        self.block_words = int(block_words)
        self.n_slots = int(self.offsets.size)
        require(self.n_slots > 0, "cannot index an empty device buffer")
        require(self.widths.size == self.n_slots,
                "offsets and widths must have the same length")

        self.class_widths = sorted_unique(self.widths)      # ascending
        #: per sorted slot: index of its width class / its row inside the class
        self.class_of = np.empty(self.n_slots, dtype=np.int64)
        self.row_of = np.empty(self.n_slots, dtype=np.int64)
        self.members: list[np.ndarray] = []
        for class_index, width in enumerate(self.class_widths.tolist()):
            slots = np.nonzero(self.widths == width)[0]
            self.members.append(slots)
            self.class_of[slots] = class_index
            self.row_of[slots] = np.arange(slots.size)
        for small, large in zip(self.class_widths[:-1], self.class_widths[1:]):
            require(int(large) % int(small) == 0,
                    f"width {int(large)} is not a multiple of width {int(small)}; "
                    "ranges must be nested powers of two")
        self._class_words: list = [None] * len(self.members)

    @property
    def n_classes(self) -> int:
        return len(self.members)

    # ------------------------------------------------------------------ #
    # Gathering
    # ------------------------------------------------------------------ #
    def class_words(self, class_index: int) -> np.ndarray:
        """Dense ``(n_members, width)`` matrix of one width class (cached)."""
        if self._class_words[class_index] is None:
            self._class_words[class_index] = self._gather(self.members[class_index])
        return self._class_words[class_index]

    def _gather(self, slots: np.ndarray) -> np.ndarray:
        """Word matrix for slots that all share one width (direct buffer gather)."""
        width = int(self.widths[slots[0]]) if slots.size else 0
        gather = self.offsets[slots][:, None] + np.arange(width)[None, :]
        return self.words[gather]

    def _rows(self, slots: np.ndarray, class_index: int) -> np.ndarray:
        """Rows for same-class slots; a view of the class cache when it exists."""
        cached = self._class_words[class_index]
        if cached is not None:
            return cached[_span(self.row_of[slots])]
        return self._gather(slots)

    def _fold(self, large: np.ndarray, small: np.ndarray) -> np.ndarray:
        """Pairwise counts (rows of ``large`` x rows of ``small``), wide folded onto narrow."""
        return fold_counts(large, small, block_words=self.block_words)

    # ------------------------------------------------------------------ #
    # Slot-level queries
    # ------------------------------------------------------------------ #
    def all_pairs(self, *, pool: TilePool | None = None,
                  band_rows: int | None = None) -> np.ndarray:
        """Dense ``n x n`` count matrix in width-sorted (slot) order.

        A triangle walk (:func:`walk_tiles`) in bands of ``band_rows`` rows
        (default :data:`SYMMETRIC_BAND_ROWS`), each band scattered with its
        mirror.  The diagonal needs no special-casing: comparing a batmap
        with itself matches exactly the slots whose indicator bit is set,
        one per stored element, i.e. :attr:`Batmap.stored_count`.
        """
        slots = np.arange(self.n_slots)
        return count_shards([Shard(self, slots, slots)],
                            shape=(self.n_slots, self.n_slots),
                            pool=pool, band_rows=band_rows).matrix()

    def cross_slots(self, row_slots, col_slots, *, pool: TilePool | None = None,
                    band_rows: int | None = None) -> np.ndarray:
        """Rectangular count matrix between two lists of width-sorted slots."""
        return self.cross_index(self, row_slots, col_slots, pool=pool,
                                band_rows=band_rows)

    def cross_index(self, other: "WidthClassIndex", row_slots=None, col_slots=None,
                    *, pool: TilePool | None = None,
                    band_rows: int | None = None) -> np.ndarray:
        """Rectangular counts: rows of *this* buffer against columns of *another*.

        The cross-shard primitive of the out-of-core pipeline
        (:mod:`repro.core.sharded`): two collections spilled as separate
        packed buffers are compared without ever concatenating them — rows
        are gathered from each side's own (possibly memory-mapped) words.
        Correctness requires both buffers to be interleaved with the *same*
        block granularity ``r0`` (the spill format pins a collection-wide
        ``r0`` for exactly this reason) and every pair of widths to nest;
        the nesting is checked here, the shared ``r0`` is the caller's
        contract.  With ``other is self`` this is :meth:`cross_slots`.
        A rectangle walk (:func:`walk_tiles`) in tiles of ``band_rows``
        rows, run on ``pool`` when one is given.
        """
        row_slots = (np.arange(self.n_slots) if row_slots is None
                     else np.asarray(row_slots, dtype=np.int64).ravel())
        col_slots = (np.arange(other.n_slots) if col_slots is None
                     else np.asarray(col_slots, dtype=np.int64).ravel())
        return count_shards(
            [Shard(self, row_slots, np.arange(row_slots.size))],
            [Shard(other, col_slots, np.arange(col_slots.size))],
            shape=(row_slots.size, col_slots.size),
            pool=pool, band_rows=band_rows).matrix()

    def pairwise_slots(self, a_slots, b_slots) -> np.ndarray:
        """Aligned counts: slot ``a_slots[k]`` intersected with ``b_slots[k]``."""
        return self.pairwise_index(self, a_slots, b_slots)

    def pairwise_index(self, other: "WidthClassIndex", a_slots, b_slots) -> np.ndarray:
        """Aligned cross-buffer counts: *this* slot ``a_slots[k]`` vs ``other``'s ``b_slots[k]``.

        The pairs-list counterpart of :meth:`cross_index`: pairs are grouped
        by their (width, width) class combination so every group runs as one
        vectorised row-aligned fold, and the result keeps the input order.
        As with :meth:`cross_index`, both buffers must be interleaved at the
        same granularity ``r0``; width nesting is checked here.  With
        ``other is self`` this is :meth:`pairwise_slots`.
        """
        a_slots = np.asarray(a_slots, dtype=np.int64).ravel()
        b_slots = np.asarray(b_slots, dtype=np.int64).ravel()
        require(a_slots.size == b_slots.size,
                "pairwise operands must have the same length")
        out = np.empty(a_slots.size, dtype=np.int64)
        if a_slots.size == 0:
            return out
        if other is not self:
            _require_nested(self.class_widths, other.class_widths)
        combos = self.class_of[a_slots] * other.n_classes + other.class_of[b_slots]
        for combo in sorted_unique(combos).tolist():
            ci_idx, cj_idx = divmod(combo, other.n_classes)
            mask = combos == combo
            a = self._rows(a_slots[mask], ci_idx)
            b = other._rows(b_slots[mask], cj_idx)
            if a.shape[1] >= b.shape[1]:
                out[mask] = fold_counts_rows(a, b)
            else:
                out[mask] = fold_counts_rows(b, a)
        return out


class Shard(NamedTuple):
    """One width-class index in a walk, and where its slots land in the output.

    ``index`` is a :class:`WidthClassIndex` or a zero-argument callable
    attaching one when the walk reaches it.  Slot ``slots[k]`` (ascending in
    a triangle; a rectangle's may repeat) is output row/column ``ids[k]``
    and has counts of at most ``bounds[k]`` (optional, for pruning).
    """

    index: object
    slots: np.ndarray
    ids: np.ndarray
    bounds: np.ndarray | None = None

    @classmethod
    def of(cls, index, slot_ids, bounds=None) -> "Shard":
        """A shard from a slot -> output id map; slots mapped to -1 are not counted."""
        slot_ids = np.asarray(slot_ids, dtype=np.int64)
        slots = np.flatnonzero(slot_ids >= 0)
        if bounds is not None:
            bounds = np.asarray(bounds, dtype=np.int64)[slots]
        return cls(index, slots, slot_ids[slots], bounds)

    def attached(self) -> "Shard":
        if isinstance(self.index, WidthClassIndex):
            return self
        return self._replace(index=self.index())


class DenseSink:
    """Scatter tiles into a dense matrix; ``mirror`` also writes each transpose.

    Tiles own disjoint regions (a tile and its mirror): threads need no lock.
    """

    min_support = 0   # every tile is counted

    def __init__(self, out: np.ndarray, *, mirror: bool = False) -> None:
        self.out = out
        self.mirror = mirror

    def add_block(self, rows, cols, block) -> None:
        _scatter(self.out, rows, cols, block)
        if self.mirror:
            _scatter(self.out, cols, rows, block.T)


def _tile_rows(tile_entries: int | None, n_cols: int, band_rows: int | None) -> int:
    """Rows per tile: ``tile_entries`` worth (capped at ``band_rows``), or a dense band."""
    if tile_entries is None:
        return band_rows or SYMMETRIC_BAND_ROWS
    rows = max(1, tile_entries // max(1, n_cols))
    return rows if band_rows is None else min(rows, band_rows)


def walk_tiles(rows, cols=None, *, sink, pool: TilePool | None = None,
               band_rows: int | None = None, tile_entries: int | None = None) -> dict:
    """Count every pair of a triangle or a rectangle of shards into ``sink``.

    Without ``cols`` the walk covers each unordered pair of the ``rows``
    shards' slots once: every shard with itself, then with each later one;
    with ``cols`` it covers ``rows x cols``.  Shards are attached as the walk
    reaches them, one row and one column shard at a time.  Each shard pair
    is cut into class-pair tiles of ``tile_entries`` worth of rows (capped
    at ``band_rows``), or of ``band_rows`` rows (default
    :data:`SYMMETRIC_BAND_ROWS`) without ``tile_entries``.  A triangle's
    same-class tile meets the columns from its first row on, masked to the
    slot-order upper triangle unless the sink mirrors.

    ``sink`` has ``mirror``, ``min_support`` and ``add_block(row_ids,
    col_ids, block)``; a tile whose bound ``min(max(row bounds), max(column
    bounds))`` is below ``min_support`` is skipped before any SWAR work.  Tiles
    are pulled and pruned in the calling thread and counted on ``pool``
    (``add_block`` then runs on its threads).  Returns ``{"tiles_total":
    ..., "tiles_skipped": ...}``.
    """
    stats = {"tiles_total": 0, "tiles_skipped": 0}
    floor = sink.min_support

    def shard_pairs():
        for p, row in enumerate(rows):
            if row.slots.size == 0:
                continue
            row = row.attached()
            if cols is None:
                yield row, row, True
            for col in (rows[p + 1:] if cols is None else cols):
                if col.slots.size:
                    yield row, col.attached(), False

    def tiles():
        for row, col, triangle in shard_pairs():
            if not triangle and col.index is not row.index:
                _require_nested(row.index.class_widths, col.index.class_widths)
            prunable = row.bounds is not None and col.bounds is not None
            row_class = row.index.class_of[row.slots]
            col_class = col.index.class_of[col.slots]
            for c in sorted_unique(row_class).tolist() if triangle else ():
                row.index.class_words(c)  # a triangle reads every class whole
            for cj in sorted_unique(col_class).tolist():
                col_pos = np.flatnonzero(col_class == cj)
                chunk = _tile_rows(tile_entries, col_pos.size, band_rows)
                col_bound = int(col.bounds[col_pos].max()) if prunable else 0
                for ci in sorted_unique(row_class).tolist():
                    if triangle and ci < cj:
                        continue
                    row_pos = np.flatnonzero(row_class == ci)
                    for start in range(0, row_pos.size, chunk):
                        rp = row_pos[start:start + chunk]
                        diagonal = triangle and ci == cj
                        stats["tiles_total"] += 1
                        if (prunable and floor > 0
                                and min(int(row.bounds[rp].max()), col_bound) < floor):
                            stats["tiles_skipped"] += 1
                            continue
                        yield (row, ci, rp, col, cj,
                               col_pos[start:] if diagonal else col_pos, diagonal)

    def count(tile) -> None:
        row, ci, rp, col, cj, cp, diagonal = tile
        a = row.index._rows(row.slots[rp], ci)
        b = col.index._rows(col.slots[cp], cj)
        block = (row.index._fold(a, b) if a.shape[1] >= b.shape[1]
                 else row.index._fold(b, a).T)
        if diagonal and not sink.mirror:
            block = np.where(row.slots[rp][:, None] <= col.slots[cp][None, :],
                             block, 0)
        sink.add_block(row.ids[rp], col.ids[cp], block)

    for _ in map_tiles(count, tiles(), pool):
        pass
    return stats


def count_shards(rows, cols=None, *, shape, result_format: str = "dense",
                 min_support: int = 0, repairable=None,
                 pool: TilePool | None = None, band_rows: int | None = None,
                 tile_entries: int = SPARSE_TILE_ENTRIES) -> CountResult:
    """One :func:`walk_tiles` walk as a :class:`~repro.core.results.CountResult` of ``shape``.

    A triangle (no ``cols``) is symmetric.  ``"dense"`` computes every
    count; ``"sparse"`` keeps COO triplets pruned at ``min_support``
    (``repairable``: see :class:`~repro.core.results.SparseAccumulator`).
    """
    symmetric = cols is None
    if result_format == "dense":
        out = np.zeros(shape, dtype=np.int64)
        stats = walk_tiles(rows, cols, sink=DenseSink(out, mirror=symmetric),
                           pool=pool, band_rows=band_rows)
        return DenseCountResult(out, symmetric=symmetric, stats=stats)
    acc = SparseAccumulator(*shape, symmetric=symmetric, min_support=min_support,
                            repairable=repairable)
    stats = walk_tiles(rows, cols, sink=acc, pool=pool, band_rows=band_rows,
                       tile_entries=tile_entries)
    return acc.finalize(stats)


class BatchPairCounter:
    """All-pairs / pairs-list / rectangle intersection counts for one collection.

    The engine validates compatibility once, gathers the packed words once,
    and answers every subsequent query with the SWAR fold primitives — no
    per-pair Python call.  Build it through
    :meth:`repro.core.collection.BatmapCollection.batch_counter`, which caches
    one instance per collection.  :meth:`count_result` returns one of the
    two result types: a :class:`~repro.core.results.DenseCountResult` or a
    pruned :class:`~repro.core.results.SparseCountResult`.

    Queries run their tiles inline; :class:`repro.parallel.executor.ParallelPairCounter`
    is this engine with a :class:`TilePool` attached.
    """

    #: threads the tiled queries run on (``None``: inline)
    _pool: TilePool | None = None
    #: rows per tile of the tiled queries (``None``: each query's default)
    _band_rows: int | None = None

    def __init__(self, collection, *, block_words: int = DEFAULT_BLOCK_WORDS) -> None:
        self.collection = collection
        self.block_words = int(block_words)
        self._validate(collection)
        buffer = collection.device_buffer()
        self.index = WidthClassIndex(
            buffer.words, buffer.offsets, buffer.widths, block_words=block_words
        )
        self._counts_sorted = None

    # ------------------------------------------------------------------ #
    # Validation (once per engine, replacing the per-pair _check_compatible)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate(collection) -> None:
        batmaps = collection.batmaps_sorted
        require(len(batmaps) > 0, "cannot build a batch counter for an empty collection")
        family = batmaps[0].family
        for bm in batmaps[1:]:
            require_same_family(family, bm.family)
        r0 = collection.r0
        require_compression_floor(r0, family.shift)
        if r0 < 4:
            raise LayoutError(
                f"batch counting requires word-aligned ranges (r0 >= 4), got r0 = {r0}"
            )
        if collection.config.entry_storage_bits != 8:
            raise LayoutError(
                "batch counting requires one-byte entries; "
                f"payload_bits={collection.config.payload_bits} stores "
                f"{collection.config.entry_dtype} — use the per-pair reference path"
            )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def counts_sorted(self) -> np.ndarray:
        """Dense ``n x n`` count matrix in width-sorted (device) order, cached."""
        if self._counts_sorted is None:
            self._counts_sorted = self.index.all_pairs(pool=self._pool,
                                                       band_rows=self._band_rows)
        return self._counts_sorted

    def count_all_pairs(self) -> np.ndarray:
        """Dense ``n x n`` count matrix indexed by *original* set indices."""
        counts = self.counts_sorted()
        order = self.collection.order
        out = np.empty_like(counts)
        out[np.ix_(order, order)] = counts
        return out

    def count_pairs(self, pairs) -> np.ndarray:
        """Counts for an explicit list of ``(i, j)`` original-index pairs."""
        pairs = np.asarray(pairs, dtype=np.int64)
        require(pairs.ndim == 2 and pairs.shape[1] == 2,
                f"pairs must have shape (k, 2), got {pairs.shape}")
        if pairs.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        rank = self.collection.rank
        return self.index.pairwise_slots(rank[pairs[:, 0]], rank[pairs[:, 1]])

    def count_pair(self, i: int, j: int) -> int:
        """Stored-copy intersection count of original sets ``i`` and ``j``."""
        return int(self.count_pairs(np.array([[i, j]], dtype=np.int64))[0])

    def count_cross(self, rows, cols) -> np.ndarray:
        """Rectangular count matrix between two lists of original indices.

        This is the boolean-matrix-product shape: entry ``(p, q)`` is the
        intersection count of original sets ``rows[p]`` and ``cols[q]``.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        rank = self.collection.rank
        return self.index.cross_slots(rank[rows], rank[cols], pool=self._pool,
                                      band_rows=self._band_rows)

    # ------------------------------------------------------------------ #
    # CountResult-producing queries (dense / sparse-pruned)
    # ------------------------------------------------------------------ #
    def slot_bounds(self) -> np.ndarray:
        """Per-slot count upper bounds from exact set sizes.

        ``Batmap.set_size`` counts stored *and* failed insertions, so the
        bound holds for the post-repair support too — which is what makes
        tile skipping sound for the miner's ``min_support`` filter (repair
        runs after counting and only ever adds).
        """
        return np.array([bm.set_size for bm in self.collection.batmaps_sorted],
                        dtype=np.int64)

    def repairable(self) -> np.ndarray:
        """Original-index mask of the sets with failed insertions.

        Repair raises only pairs that involve one of them, so a sparse sink
        may drop every other count below its ``min_support``.
        """
        mask = np.zeros(len(self.collection), dtype=bool)
        for slot, bm in enumerate(self.collection.batmaps_sorted):
            if bm.failed:
                mask[self.collection.order[slot]] = True
        return mask

    def count_result(
        self,
        *,
        result_format: str = "dense",
        min_support: int = 0,
        bounds=None,
        tile_entries: int = SPARSE_TILE_ENTRIES,
    ):
        """All-pairs counts as a :class:`~repro.core.results.CountResult`.

        ``result_format="dense"`` wraps the cached dense matrix (the oracle
        path, unchanged).  ``"sparse"`` is a pruned triangle walk
        (:func:`count_shards`): tiles whose count upper bound (from
        ``bounds``, default :meth:`slot_bounds`) falls below ``min_support``
        are skipped before any SWAR work, and surviving nonzeros accumulate
        as COO triplets in original index order.
        """
        require(result_format in ("dense", "sparse"),
                f"result_format must be 'dense' or 'sparse', got {result_format!r}")
        require(min_support >= 0, f"min_support must be >= 0, got {min_support}")
        if result_format == "dense":
            # the dense path computes every count — nothing is pruned, so
            # the result carries no filtering floor
            return DenseCountResult(self.count_all_pairs())
        n = len(self.collection)
        shard = Shard(self.index, np.arange(n), self.collection.order,
                      self.slot_bounds() if bounds is None
                      else np.asarray(bounds, dtype=np.int64))
        return count_shards(
            [shard], shape=(n, n), result_format=result_format,
            min_support=min_support, repairable=self.repairable(),
            pool=self._pool, band_rows=self._band_rows, tile_entries=tile_entries)

    def count_cross_result(
        self,
        rows,
        cols,
        *,
        min_support: int = 0,
        bounds=None,
        tile_entries: int = SPARSE_TILE_ENTRIES,
    ):
        """Rectangular counts (:meth:`count_cross` shape) as a sparse result.

        ``rows`` / ``cols`` are *original* set indices; the returned non-symmetric
        :class:`~repro.core.results.SparseCountResult` is indexed by
        position within those lists — entry ``(p, q)`` is the count of
        ``rows[p]`` x ``cols[q]``.  With ``min_support > 0``, tiles whose
        set-size bound cannot reach the threshold are skipped before any
        SWAR work (sound for the matrix product: repair only adds).
        """
        require(min_support >= 0, f"min_support must be >= 0, got {min_support}")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        bounds = (self.slot_bounds() if bounds is None
                  else np.asarray(bounds, dtype=np.int64))
        row_slots = self.collection.rank[rows]
        col_slots = self.collection.rank[cols]
        return count_shards(
            [Shard(self.index, row_slots, np.arange(rows.size), bounds[row_slots])],
            [Shard(self.index, col_slots, np.arange(cols.size), bounds[col_slots])],
            shape=(rows.size, cols.size), result_format="sparse",
            min_support=min_support, pool=self._pool, band_rows=self._band_rows,
            tile_entries=tile_entries)
