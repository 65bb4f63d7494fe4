"""Host-side preprocessing for batmap frequent pair mining (Section III-C).

Steps, in the order the paper describes them:

1. (optional) drop items below the support threshold and relabel the
   survivors densely — "All existing frequent itemset methods do this";
2. convert the transaction database to the vertical format (one tidlist per
   item);
3. build one batmap per tidlist, all sharing the same hash family, recording
   failed cuckoo insertions;
4. sort the batmaps by increasing width so the 16-wide device work groups
   are not dominated by one long batmap.

The output bundles everything the device phase and the repair phase need.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.collection import BatmapCollection
from repro.core.config import BatmapConfig, DEFAULT_CONFIG
from repro.core.errors import DataFormatError
from repro.core.hashing import ExtensibleHashFamily, HashFamily
from repro.core.integrity import writer_lock
from repro.core.sharded import (
    ShardedCollection,
    ShardedCollectionBuilder,
    plan_shard_ranges,
    set_packed_bytes,
    working_budget,
)
from repro.datasets.streaming import (
    DEFAULT_CHUNK_ITEMS,
    DEFAULT_CHUNK_TRANSACTIONS,
    FimiStats,
    iter_fimi_chunks,
    scan_fimi_stats,
)
from repro.datasets.transactions import TransactionDatabase
from repro.utils.arrays import sorted_unique
from repro.utils.memory import parse_memory_size
from repro.utils.rng import RngLike
from repro.utils.validation import require

__all__ = [
    "PreprocessedData",
    "preprocess",
    "StreamedPreprocessedData",
    "preprocess_streaming",
]


@dataclass
class PreprocessedData:
    """Everything produced by the host-side preprocessing phase."""

    collection: BatmapCollection
    database: TransactionDatabase          #: the (possibly filtered/relabelled) database
    item_map: np.ndarray                   #: new item id -> original item id
    min_support: int

    @property
    def n_items(self) -> int:
        return len(self.collection)

    @property
    def universe_size(self) -> int:
        """Number of transactions = the batmap element universe."""
        return self.collection.universe_size

    @property
    def batmap_bytes(self) -> int:
        """Size of the packed batmap buffer shipped to the device."""
        return self.collection.memory_bytes

    def failed_insertions(self) -> dict[int, list[int]]:
        """Transaction id -> item ids whose insertion of that transaction failed (F_b)."""
        return self.collection.failed_insertions()


def preprocess(
    database: TransactionDatabase,
    *,
    min_support: int = 1,
    config: BatmapConfig = DEFAULT_CONFIG,
    rng: RngLike = None,
    filter_items: bool = True,
    build_compute: str = "auto",
    build_workers: int | None = None,
) -> PreprocessedData:
    """Build the batmap collection for a transaction database.

    Parameters
    ----------
    min_support:
        Items with support below this are removed before batmaps are built
        (when ``filter_items`` is true), mirroring the preprocessing every
        competing miner performs.
    build_compute:
        Construction engine for the batmap collection, routed through
        :func:`~repro.core.plan.plan_build`: ``"host"`` (serial per-element
        inserter), ``"bulk"`` (vectorized round-based engine),
        ``"parallel"`` (bulk build on threads) or ``"auto"`` (planner
        picks).  Tidlist collections are exactly the Figure 6/7 workload
        whose preprocessing phase the bulk engine accelerates.
    """
    require(min_support >= 1, f"min_support must be >= 1, got {min_support}")
    if filter_items and min_support > 1:
        filtered, kept = database.filter_by_support(min_support)
    else:
        filtered, kept = database, np.arange(database.n_items, dtype=np.int64)
    if filtered.n_transactions == 0:
        raise ValueError("cannot preprocess an empty transaction database")

    tidlists = filtered.tidlists()
    universe = max(1, filtered.n_transactions)
    collection = BatmapCollection.build(
        tidlists,
        universe_size=universe,
        config=config,
        rng=rng,
        build_compute=build_compute,
        build_workers=build_workers,
    )
    return PreprocessedData(
        collection=collection,
        database=filtered,
        item_map=kept,
        min_support=min_support,
    )


# --------------------------------------------------------------------------- #
# Out-of-core streaming preprocessing
# --------------------------------------------------------------------------- #
@dataclass
class StreamedPreprocessedData:
    """The streaming pipeline's counterpart of :class:`PreprocessedData`.

    The collection is sharded and spilled; the database stays on disk (only
    its :class:`~repro.datasets.streaming.FimiStats` are retained, plus the
    source path so the repair phase can extract the few transactions it
    needs in one more bounded pass).
    """

    collection: ShardedCollection
    source: object                         #: the FIMI source (path or line iterable)
    stats: FimiStats
    item_map: np.ndarray                   #: new item id -> original item id
    min_support: int
    max_transactions: int | None = None
    #: the resolved counting result format ("dense" or "sparse"); "auto"
    #: requests are settled during preprocessing, where the kept-item count
    #: and the budget first meet
    result_format: str = "dense"

    @property
    def n_items(self) -> int:
        return len(self.collection)

    @property
    def item_support_bounds(self) -> np.ndarray:
        """Exact per-item set sizes (tidlist lengths), by *physical* set id.

        The tightest sound tile-pruning bound: an item's support bounds its
        pair supports, repair included.
        """
        return np.asarray(self.stats.item_supports, dtype=np.int64)[self.item_map]

    @property
    def universe_size(self) -> int:
        return self.collection.universe_size

    @property
    def batmap_bytes(self) -> int:
        """Total packed bytes across all spilled shards."""
        return self.collection.total_packed_bytes

    def failed_insertions(self) -> dict:
        return self.collection.failed_insertions()


def preprocess_streaming(
    source,
    spill_dir: str | Path,
    *,
    memory_budget: int,
    min_support: int = 1,
    config: BatmapConfig = DEFAULT_CONFIG,
    rng: RngLike = None,
    filter_items: bool = True,
    build_compute: str = "auto",
    build_workers: int | None = None,
    family_kind: str = "eager",
    family_capacity: int | None = None,
    chunk_transactions: int | None = None,
    chunk_items: int | None = None,
    max_transactions: int | None = None,
    result_format: str = "dense",
) -> StreamedPreprocessedData:
    """Out-of-core preprocessing: three bounded-memory passes over the stream.

    1. **Scan** — :func:`~repro.datasets.streaming.scan_fimi_stats` computes
       transaction count, item supports and the instance size; support
       filtering, dense relabelling, the collection-global interleave
       granularity ``r0`` and the shard ranges all derive from it.
    2. **Partition** — occurrences are streamed again as ``(item, tid)``
       pairs and appended to one raw spill file per shard, so each shard's
       vertical tidlists can later be assembled without the others.
    3. **Build** — shard by shard: load the partition, assemble tidlists,
       build through :class:`~repro.core.sharded.ShardedCollectionBuilder`
       (planner-routed engines), spill the packed buffer, free everything.

    The hash family is created exactly as :func:`preprocess` creates it
    (same universe, same ``rng``), and per-set placement is independent of
    sharding — the resulting counts are bit-identical to the in-memory
    path on any workload that fits both.
    """
    require(min_support >= 1, f"min_support must be >= 1, got {min_support}")
    memory_budget = parse_memory_size(memory_budget)
    if not isinstance(source, (str, Path)):
        # The pipeline makes several passes (scan, partition, repair), so a
        # one-shot line iterator would silently parse as empty on the second
        # pass.  Buffer non-path sources up front — a convenience path for
        # tests and small inputs; true out-of-core operation needs a file.
        source = list(source)
    # Cap chunks on both axes: transactions (per-row arrays) and
    # occurrences (item data, and the byte blocks the reader parses).
    auto_chunk = chunk_transactions is None
    auto_items = chunk_items is None
    if auto_chunk:
        chunk_transactions = int(min(DEFAULT_CHUNK_TRANSACTIONS,
                                     max(64, memory_budget // (4 * 600))))
    if auto_items:
        # Each chunked occurrence costs ~56 B across the partition pass's
        # simultaneous arrays (chunk indices, remapped ids, occurrence
        # tids, pairs, shard routing) — ~1/160 of the budget keeps that
        # pass near a third of it.
        chunk_items = int(min(DEFAULT_CHUNK_ITEMS,
                              max(1024, memory_budget // 160)))
    stats = scan_fimi_stats(source, chunk_transactions=chunk_transactions,
                            chunk_items=chunk_items,
                            max_transactions=max_transactions)
    if stats.n_transactions == 0:
        raise DataFormatError(f"{stats.name}: no transactions found in input")

    if filter_items and min_support > 1:
        kept = np.nonzero(stats.item_supports >= min_support)[0]
        if kept.size == 0:
            raise DataFormatError(
                f"{stats.name}: no item reaches min_support={min_support}")
    else:
        kept = np.arange(max(1, stats.n_items), dtype=np.int64)
    sizes = (stats.item_supports[kept] if stats.n_items
             else np.zeros(kept.size, dtype=np.int64))
    remap = -np.ones(max(1, stats.n_items), dtype=np.int64)
    remap[kept] = np.arange(kept.size)

    universe = max(1, stats.n_transactions)
    if family_kind == "lazy":
        # Extensible family: later `repro ingest --append` calls may grow
        # the universe up to the capacity without rehashing.
        capacity = (family_capacity if family_capacity is not None
                    else config.universe_capacity(universe))
        require(capacity >= universe,
                f"family_capacity ({capacity}) must cover the universe "
                f"({universe})")
        family = ExtensibleHashFamily.create(
            universe, capacity=capacity,
            shift=config.shift_for_universe(capacity), rng=rng)
    else:
        require(family_kind == "eager",
                f"family_kind must be 'eager' or 'lazy', got {family_kind!r}")
        shift = config.shift_for_universe(universe)
        family = HashFamily.create(universe, shift=shift, rng=rng)
    range_universe = family.range_universe
    # The budget must also hold the fixed residents (hash family, and — for
    # the dense result format only — the n x n count matrix); what is left
    # governs shard sizing and chunking.  A sparse result keeps just the
    # surviving nonzeros resident, so instances whose dense matrix alone
    # exceeds the budget still preprocess under it.  "auto" resolves here,
    # where the kept-item count is first known; the resolved format travels
    # on the returned data so counting uses the same decision.
    from repro.core.plan import resolve_result_format

    result_format = resolve_result_format(result_format, int(kept.size),
                                          memory_budget)
    available = working_budget(memory_budget, universe, int(kept.size),
                               lazy_family=family_kind == "lazy",
                               result_format=result_format)
    if auto_chunk:
        chunk_transactions = int(min(DEFAULT_CHUNK_TRANSACTIONS,
                                     max(64, available // (4 * 600))))
    if auto_items:
        chunk_items = int(min(DEFAULT_CHUNK_ITEMS,
                              max(1024, available // 160)))
    packed = set_packed_bytes(sizes, range_universe, config)
    ranges = plan_shard_ranges(packed, available)
    bounds = np.array([hi for _, hi in ranges], dtype=np.int64)
    r0 = int(min(
        max(4, config.range_for_size(int(size), range_universe))
        for size in sizes.tolist()
    ))

    spill_dir = Path(spill_dir)
    spill_dir.mkdir(parents=True, exist_ok=True)
    # One writer from the first tidlist part to the commit: a concurrent
    # build into the same directory would append to these parts.
    with writer_lock(spill_dir):
        parts_dir = spill_dir / "tidlists"
        parts_dir.mkdir(parents=True, exist_ok=True)
        handles = {}
        try:
            for chunk in iter_fimi_chunks(source, chunk_transactions=chunk_transactions,
                                          chunk_items=chunk_items,
                                          max_transactions=max_transactions):
                mapped = remap[chunk.indices]
                kept_items = mapped >= 0
                if not kept_items.any():
                    continue
                pairs = np.empty((int(np.count_nonzero(kept_items)), 2), dtype=np.int64)
                pairs[:, 0] = mapped[kept_items]
                pairs[:, 1] = chunk.occurrence_tids()[kept_items]
                del mapped, kept_items
                shard_of = np.searchsorted(bounds, pairs[:, 0], side="right")
                for s in sorted_unique(shard_of).tolist():
                    handle = handles.get(s)
                    if handle is None:
                        handle = handles[s] = (parts_dir / f"part_{s:04d}.bin").open("ab")
                    handle.write(np.ascontiguousarray(pairs[shard_of == s]).tobytes())
        finally:
            for handle in handles.values():
                handle.close()

        builder = ShardedCollectionBuilder(
            spill_dir, universe, r0, family=family, config=config,
            build_compute=build_compute, build_workers=build_workers,
            memory_budget=available,
        )
        for s, (lo, hi) in enumerate(ranges):
            part = parts_dir / f"part_{s:04d}.bin"
            if part.exists():
                data = np.fromfile(part, dtype=np.int64).reshape(-1, 2)
            else:
                data = np.zeros((0, 2), dtype=np.int64)
            local = data[:, 0] - lo
            order = np.argsort(local, kind="stable")  # appends keep tids ascending
            tids_sorted = data[:, 1][order]
            local_sorted = local[order]
            # Free the sort intermediates before any batmap is built — together
            # they are ~5x the tidlist data and would otherwise sit under the
            # build's working set.
            del data, local, order
            cuts = np.searchsorted(local_sorted, np.arange(hi - lo + 1))
            del local_sorted
            tidlists = [tids_sorted[cuts[i]:cuts[i + 1]] for i in range(hi - lo)]
            builder.add_shard(tidlists)
            del tidlists, tids_sorted
            if part.exists():
                part.unlink()
        shutil.rmtree(parts_dir, ignore_errors=True)
        collection = builder.finalize()

    return StreamedPreprocessedData(
        collection=collection,
        source=source,
        stats=stats,
        item_map=kept,
        min_support=min_support,
        max_transactions=max_transactions,
        result_format=result_format,
    )
