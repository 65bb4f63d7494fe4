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

Every tiled query takes an optional :class:`TilePool`: the compiled fold
releases the GIL for the whole call, so a pool of threads counts tiles in
parallel over the same (possibly memory-mapped) rows, and each thread
reduces its block straight into the dense matrix (tiles own disjoint
regions) or the thread-safe result accumulator.  Without a pool the same
tiles run inline.

The engine is the shared hot path for :meth:`BatmapCollection.count_all_pairs`,
the boolean-matrix workloads (:mod:`repro.matrix.multiply`), the mining
pipeline (:mod:`repro.mining.pair_mining`) and the parallel counters of
:mod:`repro.parallel`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.errors import LayoutError
from repro.core.intersection import require_compression_floor, require_same_family
from repro.core.results import (
    DenseCountResult,
    SparseAccumulator,
    TopKAccumulator,
)
from repro.core.swar_kernel import DEFAULT_BLOCK_WORDS, fold_counts, fold_counts_rows
from repro.utils.arrays import sorted_unique
from repro.utils.validation import require, require_positive

__all__ = [
    "WidthClass",
    "WidthClassIndex",
    "BatchPairCounter",
    "TilePool",
    "map_tiles",
    "DEFAULT_BLOCK_WORDS",
    "SPARSE_TILE_ENTRIES",
    "sparse_all_pairs",
    "sparse_cross",
    "width_slot_bounds",
]


@dataclass(frozen=True, eq=False)
class WidthClass:
    """All batmaps of one packed width, gathered into a dense word matrix.

    ``eq=False``: the ndarray fields make the generated ``__eq__`` raise on
    ambiguous truth values; identity comparison is the meaningful one here.
    """

    width: int                  #: packed width in 32-bit words (3 * r / 4)
    sorted_indices: np.ndarray  #: sorted-order slots of the members, ascending
    words: np.ndarray           #: uint32 matrix of shape (n_members, width)

    def __len__(self) -> int:
        return int(self.sorted_indices.size)


#: Rows per band of :meth:`WidthClassIndex.all_pairs` within one width
#: class: only the diagonal ``band x band`` blocks are counted twice.
SYMMETRIC_BAND_ROWS = 128


def _span(slots: np.ndarray):
    """``slots`` as a slice when they are consecutive (width-sorted classes are)."""
    if slots.size and int(slots[-1]) - int(slots[0]) == slots.size - 1:
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
        pulled from the calling thread, so a pruning check inside it sees
        every block reduced so far.  An exception raised by ``fn`` reaches
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

    def width_class(self, class_index: int) -> WidthClass:
        return WidthClass(
            width=int(self.class_widths[class_index]),
            sorted_indices=self.members[class_index],
            words=self.class_words(class_index),
        )

    def _gather(self, slots: np.ndarray) -> np.ndarray:
        """Word matrix for slots that all share one width (direct buffer gather)."""
        width = int(self.widths[slots[0]]) if slots.size else 0
        gather = self.offsets[slots][:, None] + np.arange(width)[None, :]
        return self.words[gather]

    def _rows(self, slots: np.ndarray, class_index: int) -> np.ndarray:
        """Rows for same-class slots; reuses the class cache when it exists."""
        cached = self._class_words[class_index]
        if cached is not None:
            return cached[self.row_of[slots]]
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

        Counted in bands of ``band_rows`` rows (default
        :data:`SYMMETRIC_BAND_ROWS`): within a class a band meets
        the columns from its own first row on (the rest is its mirror), and
        a band of a wider class meets every row of each narrower one.
        The diagonal needs no special-casing: comparing a batmap with itself
        matches exactly the slots whose indicator bit is set, one per stored
        element, i.e. :attr:`Batmap.stored_count`.
        """
        band_rows = band_rows or SYMMETRIC_BAND_ROWS
        out = np.empty((self.n_slots, self.n_slots), dtype=np.int64)

        def bands():
            for narrow in range(self.n_classes):
                self.class_words(narrow)
                for wide in range(narrow, self.n_classes):
                    self.class_words(wide)
                    for start in range(0, self.members[wide].size, band_rows):
                        yield wide, narrow, start

        def count(band) -> None:
            # bands own disjoint regions of ``out`` (a band and its mirror)
            wide, narrow, start = band
            first = start if wide == narrow else 0
            block = self._fold(self._class_words[wide][start:start + band_rows],
                               self._class_words[narrow][first:])
            rows = self.members[wide][start:start + band_rows]
            cols = self.members[narrow][first:]
            _scatter(out, rows, cols, block)
            _scatter(out, cols, rows, block.T)

        for _ in map_tiles(count, bands(), pool):
            pass
        return out

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
        Each class pair is cut into tiles of ``band_rows`` rows (default:
        one tile), run on ``pool`` when one is given.
        """
        row_slots = (np.arange(self.n_slots) if row_slots is None
                     else np.asarray(row_slots, dtype=np.int64).ravel())
        col_slots = (np.arange(other.n_slots) if col_slots is None
                     else np.asarray(col_slots, dtype=np.int64).ravel())
        out = np.zeros((row_slots.size, col_slots.size), dtype=np.int64)
        if row_slots.size == 0 or col_slots.size == 0:
            return out
        def count(tile) -> None:
            _scatter(out, tile[1], tile[3],
                     _fold_tile(self, other, row_slots, col_slots, tile))

        tiles = _cross_tiles(self, other, row_slots, col_slots,
                             lambda n_cols: band_rows or row_slots.size)
        for _ in map_tiles(count, tiles, pool):
            pass
        return out

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


def _cross_tiles(index, other, row_slots, col_slots, rows_per_tile):
    """Class-pair tiles of a rectangle: ``(ci, row positions, cj, col positions)``.

    Positions index ``row_slots`` / ``col_slots``; each class pair is cut
    into tiles of at most ``rows_per_tile(n_cols)`` rows.
    """
    if other is not index:
        _require_nested(index.class_widths, other.class_widths)
    row_class = index.class_of[row_slots]
    col_class = other.class_of[col_slots]
    for cj in sorted_unique(col_class).tolist():
        col_pos = np.flatnonzero(col_class == cj)
        chunk = rows_per_tile(col_pos.size)
        for ci in sorted_unique(row_class).tolist():
            row_pos = np.flatnonzero(row_class == ci)
            for start in range(0, row_pos.size, chunk):
                yield ci, row_pos[start:start + chunk], cj, col_pos


def _fold_tile(index, other, row_slots, col_slots, tile) -> np.ndarray:
    """Counts of one :func:`_cross_tiles` tile, the wider side folded onto the narrower."""
    ci, row_pos, cj, col_pos = tile
    a = index._rows(row_slots[row_pos], ci)
    b = other._rows(col_slots[col_pos], cj)
    if a.shape[1] >= b.shape[1]:
        return index._fold(a, b)
    return index._fold(b, a).T


#: Upper bound on the entries of one sparse-mode count tile (the dense
#: ``(rows, cols)`` int64 block that exists only transiently between the
#: SWAR fold and the nonzero extraction).  2**20 entries keep each
#: temporary at 8 MB — small enough that the sparse path's peak is governed
#: by the stored nonzeros, not by tile scratch.
SPARSE_TILE_ENTRIES = 1 << 20


def _tile_rows(tile_entries: int, n_cols: int, band_rows: int | None) -> int:
    """Rows per sparse tile: ``tile_entries`` worth, capped at ``band_rows``."""
    rows = max(1, tile_entries // max(1, n_cols))
    return rows if band_rows is None else min(rows, band_rows)


def width_slot_bounds(widths, failed_per_slot=None) -> np.ndarray:
    """Per-slot count upper bounds derived from packed row widths alone.

    A row of ``w`` words holds ``4 * w = 3r`` byte entries, and every stored
    element occupies two cuckoo copies, so at most ``2 * w`` elements are
    stored; adding the per-set failed-insertion count bounds the *repaired*
    set size as well.  Exact set sizes (when the caller knows them — the
    miner's item supports, a live collection's ``Batmap.set_size``) give a
    tighter bound; this is the fallback for mmap'd spilled shards where
    only the layout is resident.
    """
    bounds = 2 * np.asarray(widths, dtype=np.int64)
    if failed_per_slot is not None:
        bounds = bounds + np.asarray(failed_per_slot, dtype=np.int64)
    return bounds


def sparse_all_pairs(
    index: WidthClassIndex,
    *,
    consume,
    bounds=None,
    threshold=None,
    tile_entries: int = SPARSE_TILE_ENTRIES,
    pool: TilePool | None = None,
    band_rows: int | None = None,
) -> dict:
    """All-pairs counting as a stream of pruned tiles instead of one matrix.

    Walks the same class-pair structure as :meth:`WidthClassIndex.all_pairs`
    but chunks each class pair into row tiles of at most ``tile_entries``
    entries (and ``band_rows`` rows, when given) and hands every *computed*
    tile to ``consume(rows, cols, block)`` (slot-space axes) instead of
    scattering into a preallocated ``n x n`` result.  Before any SWAR work,
    each tile's count upper bound — ``min(max(bounds[rows]),
    max(bounds[cols]))`` — is tested against the caller's running
    ``threshold()``; tiles strictly below it are skipped entirely.
    Same-class tiles are pre-masked to the slot-space upper triangle so each
    unordered pair reaches ``consume`` exactly once (diagonal self-counts
    included).  With a ``pool`` the tiles are counted on its threads, and
    ``consume`` runs on them too: it must be thread-safe (the result
    accumulators are).

    Returns pruning telemetry: ``{"tiles_total": ..., "tiles_skipped": ...}``.
    """
    require_positive(tile_entries, "tile_entries")
    thr = threshold if threshold is not None else (lambda: 0)
    if bounds is not None:
        bounds = np.asarray(bounds, dtype=np.int64)
    stats = {"tiles_total": 0, "tiles_skipped": 0}

    def tiles():
        for ci in range(index.n_classes):
            cols = index.members[ci]
            index.class_words(ci)
            col_bound = int(bounds[cols].max()) if bounds is not None else None
            chunk = _tile_rows(tile_entries, cols.size, band_rows)
            for cj in range(ci, index.n_classes):
                rows_all = index.members[cj]
                for start in range(0, rows_all.size, chunk):
                    rows = rows_all[start:start + chunk]
                    stats["tiles_total"] += 1
                    floor = thr()
                    if floor > 0 and bounds is not None:
                        if min(int(bounds[rows].max()), col_bound) < floor:
                            stats["tiles_skipped"] += 1
                            continue
                    yield ci, cj, rows

    def count(tile) -> None:
        ci, cj, rows = tile
        cols = index.members[ci]
        a = index._rows(rows, cj)
        b = index.class_words(ci)
        if ci != cj:
            consume(rows, cols, index._fold(a, b))
            return
        # columns left of the first row lie wholly below the diagonal:
        # masked to zero, so never counted
        first = int(np.searchsorted(cols, rows[0]))
        block = np.zeros((rows.size, cols.size), dtype=np.int64)
        block[:, first:] = index._fold(a, b[first:])
        consume(rows, cols, np.where(rows[:, None] <= cols[None, :], block, 0))

    for _ in map_tiles(count, tiles(), pool):
        pass
    return stats


def sparse_cross(
    index: WidthClassIndex,
    other: WidthClassIndex,
    *,
    consume,
    row_slots=None,
    col_slots=None,
    row_bounds=None,
    col_bounds=None,
    threshold=None,
    tile_entries: int = SPARSE_TILE_ENTRIES,
    pool: TilePool | None = None,
    band_rows: int | None = None,
) -> dict:
    """Rectangular counting as a stream of pruned tiles (cross-buffer safe).

    The sparse counterpart of :meth:`WidthClassIndex.cross_index`: rows are
    gathered from ``index``, columns from ``other`` (which may be ``index``
    itself), grouped by width-class pair, chunked to ``tile_entries``
    (and ``band_rows``) and pruned against ``threshold()`` exactly as
    :func:`sparse_all_pairs` does, on ``pool`` when one is given (where
    ``consume`` must be thread-safe).
    ``consume(rows, cols, block)`` receives *slot ids* on each side — every
    ordered (row, col) pair exactly once, no triangle masking — so the
    caller owns the slot-to-global mapping and any symmetry canonicalisation.
    """
    require_positive(tile_entries, "tile_entries")
    thr = threshold if threshold is not None else (lambda: 0)
    row_slots = (np.arange(index.n_slots) if row_slots is None
                 else np.asarray(row_slots, dtype=np.int64).ravel())
    col_slots = (np.arange(other.n_slots) if col_slots is None
                 else np.asarray(col_slots, dtype=np.int64).ravel())
    stats = {"tiles_total": 0, "tiles_skipped": 0}
    if row_slots.size == 0 or col_slots.size == 0:
        return stats
    prunable = row_bounds is not None and col_bounds is not None
    if prunable:
        row_bounds = np.asarray(row_bounds, dtype=np.int64)
        col_bounds = np.asarray(col_bounds, dtype=np.int64)

    def tiles():
        for tile in _cross_tiles(
                index, other, row_slots, col_slots,
                lambda n_cols: _tile_rows(tile_entries, n_cols, band_rows)):
            stats["tiles_total"] += 1
            floor = thr()
            if floor > 0 and prunable:
                _, row_pos, _, col_pos = tile
                if min(int(row_bounds[row_slots[row_pos]].max()),
                       int(col_bounds[col_slots[col_pos]].max())) < floor:
                    stats["tiles_skipped"] += 1
                    continue
            yield tile

    def count(tile) -> None:
        consume(row_slots[tile[1]], col_slots[tile[3]],
                _fold_tile(index, other, row_slots, col_slots, tile))

    for _ in map_tiles(count, tiles(), pool):
        pass
    return stats


class BatchPairCounter:
    """All-pairs / pairs-list / top-k intersection counts for one collection.

    The engine validates compatibility once, gathers the packed words once,
    and answers every subsequent query with the SWAR fold primitives — no
    per-pair Python call.  Build it through
    :meth:`repro.core.collection.BatmapCollection.batch_counter`, which caches
    one instance per collection.

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

    @property
    def classes(self) -> list[WidthClass]:
        """The width classes as dense matrices (materialised on access)."""
        return [self.index.width_class(i) for i in range(self.index.n_classes)]

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

    def top_k(self, k: int) -> list:
        """The ``k`` off-diagonal pairs with the largest counts.

        Returns ``[((i, j), count), ...]`` with ``i < j`` in original indices,
        descending by count with ties broken by the index pair (the same
        ranking convention as :meth:`repro.mining.support.PairSupports.top_k`).
        """
        require_positive(k, "k")
        counts = self.count_all_pairs()
        n = counts.shape[0]
        iu, ju = np.triu_indices(n, 1)
        values = counts[iu, ju]
        k = min(k, values.size)
        if k == 0:
            return []
        # partial-select, then widen to every pair tied at the selection
        # boundary so rank ties resolve by the index convention (argpartition
        # alone picks an arbitrary subset of boundary ties), then exact-sort
        # only that candidate pool
        candidate = np.argpartition(values, -k)[-k:]
        boundary = int(values[candidate].min())
        pool = np.nonzero(values >= boundary)[0]
        order = np.lexsort((ju[pool], iu[pool], -values[pool]))
        ranked = pool[order][:k]
        return [((int(iu[idx]), int(ju[idx])), int(values[idx])) for idx in ranked]

    # ------------------------------------------------------------------ #
    # CountResult-producing queries (sparse / pruned / top-k)
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
        top_k: int | None = None,
        bounds=None,
        tile_entries: int = SPARSE_TILE_ENTRIES,
    ):
        """All-pairs counts as a :class:`~repro.core.results.CountResult`.

        ``result_format="dense"`` wraps the cached dense matrix (the oracle
        path, unchanged).  ``"sparse"`` streams pruned tiles through
        :func:`sparse_all_pairs`: tiles whose count upper bound (from
        ``bounds``, default :meth:`slot_bounds`) falls below ``min_support``
        are skipped before any SWAR work, and surviving nonzeros accumulate
        as COO triplets in original index order.  ``top_k=k`` instead keeps
        a running heap whose floor tightens the pruning threshold as it
        fills, returning a :class:`~repro.core.results.TopKCountResult`.
        """
        require(result_format in ("dense", "sparse"),
                f"result_format must be 'dense' or 'sparse', got {result_format!r}")
        require(min_support >= 0, f"min_support must be >= 0, got {min_support}")
        order = self.collection.order
        n = len(order)
        if bounds is None:
            bounds = self.slot_bounds()
        if top_k is not None:
            acc = TopKAccumulator(top_k)

            def consume_topk(rows, cols, block):
                floor = max(1, min_support, acc.floor)
                r_local, c_local = np.nonzero(block >= floor)
                if r_local.size == 0:
                    return
                oi = order[rows[r_local]]
                oj = order[cols[c_local]]
                keep = oi != oj
                if not keep.any():
                    return
                values = block[r_local, c_local][keep]
                oi, oj = oi[keep], oj[keep]
                acc.push(np.minimum(oi, oj), np.maximum(oi, oj), values)

            stats = sparse_all_pairs(
                self.index, consume=consume_topk, bounds=bounds,
                threshold=lambda: max(min_support, acc.floor),
                tile_entries=tile_entries, pool=self._pool,
                band_rows=self._band_rows)
            return acc.result(n, min_support=min_support, stats=stats,
                              fill_zeros=min_support <= 1)
        if result_format == "dense":
            # the dense path computes every count — nothing is pruned, so
            # the result carries no filtering floor
            return DenseCountResult(self.count_all_pairs())
        sparse = SparseAccumulator(n, min_support=min_support,
                                   repairable=self.repairable())

        def consume(rows, cols, block):
            sparse.add_block(order[rows], order[cols], block)

        stats = sparse_all_pairs(
            self.index, consume=consume, bounds=bounds,
            threshold=lambda: min_support, tile_entries=tile_entries,
            pool=self._pool, band_rows=self._band_rows)
        sparse.tiles_total = stats["tiles_total"]
        sparse.tiles_skipped = stats["tiles_skipped"]
        return sparse.finalize()

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

        ``rows`` / ``cols`` are *original* set indices (each side free of
        duplicates); the returned non-symmetric
        :class:`~repro.core.results.SparseCountResult` is indexed by
        position within those lists — entry ``(p, q)`` is the count of
        ``rows[p]`` x ``cols[q]``.  With ``min_support > 0``, tiles whose
        set-size bound cannot reach the threshold are skipped before any
        SWAR work (sound for the matrix product: repair only adds).
        """
        require(min_support >= 0, f"min_support must be >= 0, got {min_support}")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        require(sorted_unique(rows).size == rows.size
                and sorted_unique(cols).size == cols.size,
                "count_cross_result requires duplicate-free index lists")
        rank = self.collection.rank
        row_slots = rank[rows]
        col_slots = rank[cols]
        n = len(self.collection)
        row_of = np.full(n, -1, dtype=np.int64)
        row_of[row_slots] = np.arange(rows.size)
        col_of = np.full(n, -1, dtype=np.int64)
        col_of[col_slots] = np.arange(cols.size)
        if bounds is None:
            bounds = self.slot_bounds()
        acc = SparseAccumulator(rows.size, cols.size, symmetric=False,
                                min_support=min_support)

        def consume(r_slots, c_slots, block):
            acc.add_block(row_of[r_slots], col_of[c_slots], block)

        stats = sparse_cross(
            self.index, self.index, consume=consume,
            row_slots=row_slots, col_slots=col_slots,
            row_bounds=bounds, col_bounds=bounds,
            threshold=(lambda: min_support) if min_support > 0 else None,
            tile_entries=tile_entries, pool=self._pool, band_rows=self._band_rows)
        acc.tiles_total = stats["tiles_total"]
        acc.tiles_skipped = stats["tiles_skipped"]
        return acc.finalize()
