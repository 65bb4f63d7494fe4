"""Size-tiered (LSM-style) compaction of spilled delta shards.

Delta-shard ingest (:meth:`~repro.core.sharded.ShardedCollectionBuilder.append`)
keeps writes cheap by never touching existing shards, but every appended
shard amplifies counting: ``k`` shards mean ``k*(k+1)/2`` shard-pair
rectangles per all-pairs count, and tombstoned rows keep occupying disk and
tile work until something removes them.  This module is that something — the
classic LSM answer, adapted to the spill format's one hard constraint:
shards cover *contiguous* global id ranges (serve-time addressing is a
``searchsorted`` over shard boundaries), so only **adjacent** shards merge.

Merging is pure data movement.  A spilled row's bytes depend only on
(set, family, r, config) — never on which shard holds it — so compaction
concatenates the member shards' rows (dropping tombstoned ones), re-sorts
the width classes, and rewrites offsets; no placement, no hashing, no
change to any count.  Bit-identity of every read path before and after a
compaction is pinned by ``tests/test_compaction.py``.

Memory accounting matches the build side: one merged shard's packed words
stay at or below ``memory_budget // SHARD_BUDGET_DIVISOR`` (the same shard
budget :func:`~repro.core.sharded.plan_shard_ranges` enforces), so the merge
phase never holds more resident bytes than the original build did.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.integrity import AtomicCommit, writer_lock
from repro.core.manifest import SpillManifest, file_digest, write_tombstones
from repro.core.sharded import (
    SHARD_BUDGET_DIVISOR,
    ShardInfo,
    ShardedCollection,
    _failed_array,
    _write_shard_arrays,
)
from repro.utils.faultpoints import faultpoint
from repro.utils.validation import require, require_positive

__all__ = [
    "COMPACTION_MIN_RUN",
    "CompactionTask",
    "plan_compaction",
    "compact",
]

#: Adjacent same-tier shards required before the tiered policy triggers a
#: merge.  Below this the merge's write amplification outweighs the saved
#: rectangle count; at or above it one merge removes ``min_run - 1`` shards
#: from every future count.
COMPACTION_MIN_RUN = 4


@dataclass(frozen=True)
class CompactionTask:
    """One planned merge: a contiguous run of shard indices plus the why."""

    start: int   #: first shard index of the run
    stop: int    #: one past the last shard index
    reason: str

    @property
    def n_shards(self) -> int:
        """Number of shards this task merges."""
        return self.stop - self.start


def _size_tier(nbytes: int) -> int:
    """Tier of a shard by packed size: floor(log2(nbytes)), 0 for empty."""
    return max(0, int(nbytes).bit_length() - 1)


def _split_by_budget(start: int, stop: int, nbytes, shard_budget) -> list:
    """Split ``[start, stop)`` greedily so each group's total fits the budget.

    A single shard over the budget still gets its own group — like
    ``plan_shard_ranges``, the budget bounds what a merge may *combine*, it
    cannot shrink what already exists.
    """
    if shard_budget is None:
        return [(start, stop)]
    groups = []
    lo = start
    running = 0
    for k in range(start, stop):
        size = int(nbytes[k])
        if k > lo and running + size > shard_budget:
            groups.append((lo, k))
            lo, running = k, 0
        running += size
    if lo < stop:
        groups.append((lo, stop))
    return groups


def plan_compaction(
    shard_nbytes,
    *,
    memory_budget: int | None = None,
    min_run: int = COMPACTION_MIN_RUN,
    full: bool = False,
) -> list:
    """Plan which adjacent shard runs to merge.

    The **tiered** policy (``full=False``) groups adjacent shards by size
    tier (``floor(log2(nbytes))``) and schedules a merge for every run of at
    least ``min_run`` same-tier shards — the steady-state policy that folds
    accumulated delta shards into their base without rewriting the whole
    spill.  The **full** policy (``full=True``) schedules everything into as
    few shards as the budget allows, including singleton runs (so a full
    compaction also purges tombstones from shards that have no merge
    partner).

    ``memory_budget`` caps each merged shard at the same
    ``budget // SHARD_BUDGET_DIVISOR`` shard budget the builder uses;
    ``None`` means unbounded merges.  Returns :class:`CompactionTask` runs in
    ascending shard order.
    """
    nbytes = np.asarray(shard_nbytes, dtype=np.int64)
    require_positive(min_run, "min_run")
    shard_budget = None
    if memory_budget is not None:
        require_positive(memory_budget, "memory_budget")
        shard_budget = max(1, memory_budget // SHARD_BUDGET_DIVISOR)

    tasks: list[CompactionTask] = []
    if full:
        for lo, hi in _split_by_budget(0, int(nbytes.size), nbytes, shard_budget):
            tasks.append(CompactionTask(
                lo, hi, "full compaction requested"))
        return tasks

    start = 0
    while start < nbytes.size:
        tier = _size_tier(int(nbytes[start]))
        stop = start
        while stop < nbytes.size and _size_tier(int(nbytes[stop])) == tier:
            stop += 1
        if stop - start >= min_run:
            for lo, hi in _split_by_budget(start, stop, nbytes, shard_budget):
                if hi - lo >= 2:
                    tasks.append(CompactionTask(
                        lo, hi,
                        f"{stop - start} adjacent shards in size tier {tier} "
                        f"(threshold {min_run})"))
        start = stop
    return tasks


def _load_shard_rows(shard: ShardInfo):
    """Per-local-row ``(widths, offsets, words)`` of one spilled shard.

    Returns arrays indexed by *local set id* (not slot): the row's true
    width in words, its offset into the shard's words buffer, plus the
    buffer itself (memory-mapped — only copied rows are materialised).
    """
    words = np.load(shard.directory / "words.npy", mmap_mode="r")
    offsets = np.load(shard.directory / "offsets.npy")
    widths = np.load(shard.directory / "widths.npy")
    rank = np.empty(shard.n_sets, dtype=np.int64)
    rank[shard.order] = np.arange(shard.n_sets, dtype=np.int64)
    return widths[rank], offsets[rank], words


def _merge_group(
    members: list,
    staged,
    directory,
    tombstoned: np.ndarray,
    lo: int,
) -> ShardInfo:
    """Write one merged shard from ``members``, dropping tombstoned rows.

    The arrays go to ``staged``; the returned :class:`ShardInfo` names its
    committed ``directory`` and covers ``[lo, lo + surviving rows)``.
    ``tombstoned`` is a boolean mask over physical ids.
    """
    row_widths = []     # true width per surviving row, in (member, local) order
    row_sources = []    # (member_idx, local_id) per surviving row
    per_member = []
    for m, shard in enumerate(members):
        widths_by_row, offsets_by_row, words = _load_shard_rows(shard)
        per_member.append((widths_by_row, offsets_by_row, words))
        for local in range(shard.n_sets):
            if tombstoned[shard.lo + local]:
                continue
            row_widths.append(int(widths_by_row[local]))
            row_sources.append((m, local))
    n_rows = len(row_widths)
    widths_arr = np.asarray(row_widths, dtype=np.int64)
    # Width-class layout: slots ascend by width, ties stably by new local id
    # (any consistent order works — ``order.npy`` carries the mapping).
    order = np.argsort(widths_arr, kind="stable").astype(np.int64)
    sorted_widths = widths_arr[order]
    padded = ((sorted_widths + 15) // 16) * 16
    offsets = np.zeros(n_rows, dtype=np.int64)
    if n_rows:
        offsets[1:] = np.cumsum(padded)[:-1]
    total = int(padded.sum())
    merged_words = np.zeros(total, dtype=np.uint32)
    for slot, row in enumerate(order.tolist()):
        m, local = row_sources[row]
        widths_by_row, offsets_by_row, words = per_member[m]
        start = int(offsets_by_row[local])
        width = int(widths_by_row[local])
        merged_words[offsets[slot]:offsets[slot] + width] = words[start:start + width]

    # Failed insertions: remap member-local ids to merged-local ids, drop
    # tombstoned rows (their sets no longer exist in any read path).
    new_local = {src: k for k, src in enumerate(row_sources)}
    failed_pairs = []
    for m, shard in enumerate(members):
        for element, local in shard.failed.tolist():
            key = (m, int(local))
            if key in new_local:
                failed_pairs.append((int(element), new_local[key]))
    failed = _failed_array(failed_pairs)
    digests = _write_shard_arrays(staged, merged_words, offsets, sorted_widths,
                                  order, failed)
    return ShardInfo(
        lo=lo, hi=lo + n_rows, directory=directory,
        nbytes=int(merged_words.nbytes), build_backend="compacted",
        order=order, failed=failed, kind="base", file_digests=digests,
    )


def compact(
    sharded: ShardedCollection,
    *,
    memory_budget: int | None = None,
    min_run: int = COMPACTION_MIN_RUN,
    full: bool = False,
) -> ShardedCollection:
    """Merge shards per :func:`plan_compaction` and publish the next generation.

    Tombstoned rows inside every rewritten shard are physically purged;
    their ids vanish from the tombstone set and later physical ids shift
    down — the *live* index space (what counts, queries and failed lists
    are expressed in) is unchanged, which is why every result is bit-identical
    across a compaction.  Consumed shard directories are removed after the
    new manifest is written; the passed-in collection object is stale
    afterwards — use the returned one.

    A no-op plan (nothing to merge, nothing to purge) returns ``sharded``
    unchanged without bumping the generation.
    """
    require(sharded.n_shards > 0, "cannot compact an empty collection")
    tasks = plan_compaction([s.nbytes for s in sharded.shards],
                            memory_budget=memory_budget, min_run=min_run,
                            full=full)
    tombstoned = np.zeros(sharded.n_physical_sets, dtype=bool)
    tombstoned[sharded.tombstones] = True

    # Skip pointless rewrites: a singleton task with nothing to purge.
    def _is_noop(task: CompactionTask) -> bool:
        if task.n_shards > 1:
            return False
        shard = sharded.shards[task.start]
        return not tombstoned[shard.lo:shard.hi].any()

    effective = [t for t in tasks if not _is_noop(t)]
    if not effective:
        return sharded
    by_start = {task.start: task for task in effective}

    record = sharded.manifest
    generation = record.generation + 1
    with writer_lock(sharded.spill_dir, record.generation):
        commit = AtomicCommit(sharded.spill_dir)
        try:
            new_shards: list[ShardInfo] = []
            merged_count = 0
            k = 0
            while k < len(sharded.shards):
                task = by_start.get(k)
                lo = new_shards[-1].hi if new_shards else 0
                if task is None:
                    shard = sharded.shards[k]
                    new_shards.append(replace(shard, lo=lo, hi=lo + shard.n_sets))
                    k += 1
                    continue
                members = sharded.shards[task.start:task.stop]
                name = f"compact_{generation:04d}_{merged_count:04d}"
                merged_count += 1
                faultpoint("compact.merge")
                info = _merge_group(members, commit.stage(name),
                                    sharded.spill_dir / name, tombstoned, lo)
                if info.n_sets:  # skip fully-purged (empty) groups entirely
                    new_shards.append(info)
                else:
                    # The staged (empty) directory still gets renamed in at
                    # commit; unreferenced, it is swept as garbage right after.
                    commit.add_garbage(info.directory)
                for shard in members:
                    commit.add_garbage(shard.directory)
                k = task.stop

            # Remap tombstones: rows in rewritten groups were purged (dropped
            # from the set); rows in kept shards shift down by the purges
            # before them.
            keep_mask = np.ones(sharded.n_physical_sets, dtype=bool)
            for task in effective:
                lo = sharded.shards[task.start].lo
                hi = sharded.shards[task.stop - 1].hi
                keep_mask[lo:hi] &= ~tombstoned[lo:hi]
            new_ids = np.cumsum(keep_mask) - 1
            old_tombstones = sharded.tombstones
            surviving = old_tombstones[keep_mask[old_tombstones]]
            new_tombstones = new_ids[surviving].astype(np.int64)

            tombstones_entry = None
            if new_tombstones.size:
                name = f"tombstones_{generation:04d}.npy"
                staged = commit.stage(name)
                write_tombstones(staged, new_tombstones)
                tombstones_entry = {"file": name, "digest": file_digest(staged),
                                    "n": int(new_tombstones.size)}
            if record.tombstones_file is not None:
                commit.add_garbage(sharded.spill_dir / record.tombstones_file)
            document = record.next_document(
                [shard.manifest_entry() for shard in new_shards],
                tombstones=tombstones_entry)
            commit.commit(document)
        except BaseException:
            commit.abort()
            raise
    return ShardedCollection(SpillManifest(sharded.spill_dir, document),
                             new_shards, family=sharded._family,
                             tombstones=new_tombstones)
