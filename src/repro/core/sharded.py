"""Out-of-core sharded batmap collections: build, spill, memory-mapped re-attach.

A :class:`~repro.core.collection.BatmapCollection` holds every batmap and the
whole packed device buffer in memory at once — the resident-set assumption
the paper's in-memory workloads make.  This module removes it: a
:class:`ShardedCollection` partitions the sets into contiguous *shards*,
builds each shard as an ordinary ``BatmapCollection`` (through the PR-4 bulk
engine via :func:`~repro.core.plan.plan_build`), spills the shard's packed
words to disk in exactly the :class:`~repro.core.batch.WidthClassIndex`
layout (``words`` / ``offsets`` / ``widths``), and frees it before the next
shard is built.  Counting re-attaches shards with ``numpy`` memory mapping,
so the resident set is bounded by the shard budget, never by the instance.

Identity guarantees (pinned by ``tests/test_sharded.py``):

* per-set placement depends only on the set, the shared hash family, the
  hash range and the config — never on which shard (or whether any shard)
  the set landed in — so sharded construction is byte-identical to the
  monolithic build;
* every shard is packed with one **collection-global** interleave
  granularity ``r0`` (the minimum range over *all* sets, exactly what the
  monolithic device buffer would use), so cross-shard folds satisfy the same
  ``p mod width`` identity as in-buffer folds and all counts are
  bit-identical to the in-memory engines.
"""

from __future__ import annotations

import shutil
from array import array
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.plan import (
    MIN_WORKING_BUDGET,
    SHARD_BUDGET_DIVISOR,
    fixed_resident_bytes,
    padded_row_bytes,
    plan_shard_ranges,
    shard_build_compute,
    working_budget,
)
from repro.core.config import BatmapConfig, DEFAULT_CONFIG
from repro.core.errors import LayoutError, SpillFormatError
from repro.core.hashing import (
    ExtensibleHashFamily,
    HashFamily,
    load_family,
    save_family,
)
from repro.core.integrity import AtomicCommit, sweep_stale_staging, writer_lock
from repro.core.manifest import (
    FAMILY_NAME,
    MANIFEST_NAME,
    SHARD_ARRAY_NAMES,
    SUPPORTED_SPILL_VERSIONS,
    TOMBSTONES_NAME,
    SpillManifest,
    blake2b,
    delete_sets,
    file_digest,
    read_manifest,
)
from repro.utils.bits import pack_bytes_to_words, unpack_words_to_bytes
from repro.utils.faultpoints import faultpoint
from repro.utils.rng import RngLike
from repro.utils.validation import require, require_positive

if TYPE_CHECKING:  # the build and count modules load only where they run
    from repro.core.batch import WidthClassIndex
    from repro.core.collection import BatmapCollection

__all__ = [
    "SHARD_BUDGET_DIVISOR",
    "MIN_WORKING_BUDGET",
    "MANIFEST_NAME",
    "FAMILY_NAME",
    "TOMBSTONES_NAME",
    "SUPPORTED_SPILL_VERSIONS",
    "set_packed_bytes",
    "collection_r0",
    "fixed_resident_bytes",
    "working_budget",
    "plan_shard_ranges",
    "ShardInfo",
    "ShardedCollection",
    "ShardedCollectionBuilder",
]

def set_packed_bytes(sizes, universe_size: int, config: BatmapConfig) -> np.ndarray:
    """Padded packed device bytes per set, from set sizes alone.

    The same geometry :func:`~repro.core.bulk_build.device_word_layout`
    assigns once the batmaps exist (range from
    :meth:`~repro.core.config.BatmapConfig.range_for_size` clamped to the
    word floor, width padded to the 16-word boundary) — so resident-set
    planning needs no construction.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    out = np.empty(sizes.size, dtype=np.int64)
    cache: dict[int, int] = {}
    for k, size in enumerate(sizes.tolist()):
        nbytes = cache.get(size)
        if nbytes is None:
            nbytes = cache[size] = padded_row_bytes(
                max(4, config.range_for_size(size, universe_size)))
        out[k] = nbytes
    return out


def collection_r0(sizes, range_universe: int, config: BatmapConfig) -> int:
    """The collection-global interleave granularity: the smallest set's range.

    :meth:`~repro.core.config.BatmapConfig.range_for_size` is monotone in
    the size, so the minimum over all sets is the smallest set's range
    (clamped to the 4-entry word floor) — no per-set evaluation.
    """
    smallest = int(np.min(np.asarray(sizes, dtype=np.int64)))
    return int(max(4, config.range_for_size(smallest, range_universe)))


@dataclass
class ShardInfo:
    """Metadata of one spilled shard (everything but the words themselves)."""

    lo: int                 #: first global set index covered by this shard
    hi: int                 #: one past the last global set index
    directory: Path
    nbytes: int             #: packed words on disk
    build_backend: str
    order: np.ndarray       #: sorted slot -> local set index (lo-relative)
    failed: np.ndarray      #: (k, 2) [element, local set index] failed insertions
    kind: str = "base"      #: "base" (original/compacted) or "delta" (appended)
    #: filename -> content digest of the shard's arrays (manifest v3);
    #: ``None`` for shards attached from a v1/v2 spill, whose digests the
    #: spill's :class:`~repro.core.manifest.SpillManifest` computes once.
    file_digests: dict | None = field(default=None, repr=False)

    @property
    def n_sets(self) -> int:
        """Number of sets covered by this shard."""
        return self.hi - self.lo

    @property
    def global_order(self) -> np.ndarray:
        """Sorted slot -> *global* set index."""
        return self.order + self.lo

    def slot_bounds(self, widths) -> np.ndarray:
        """Per-slot count upper bounds from the packed row ``widths`` alone.

        ``w`` words hold ``3r = 4w`` entries, two copies per stored element,
        so at most ``2w`` are stored; the failed insertions bound the
        *repaired* size too.
        """
        failed = np.bincount(
            np.asarray(self.failed, dtype=np.int64).reshape(-1, 2)[:, 1],
            minlength=self.n_sets)
        return 2 * np.asarray(widths, dtype=np.int64) + failed[self.order]

    def manifest_entry(self) -> dict:
        """This shard's entry in a version-3 manifest's shard table."""
        return {
            "dir": self.directory.name,
            "lo": self.lo,
            "hi": self.hi,
            "nbytes": self.nbytes,
            "build_backend": self.build_backend,
            "kind": self.kind,
            "files": self.file_digests,
        }


def _load_shard_array(shard_index: int, path: Path, *,
                      mmap_mode: str | None = None) -> np.ndarray:
    """Load one shard array, wrapping any failure in ``SpillFormatError``.

    ``np.load`` on a missing, truncated or bit-flipped-header file raises a
    grab-bag of ``OSError`` / ``ValueError`` / ``EOFError``; read paths
    must surface them as the format error they are, naming the shard and
    the file.
    """
    try:
        return np.load(path, mmap_mode=mmap_mode, allow_pickle=False)
    except Exception as exc:
        raise SpillFormatError(
            f"shard {shard_index}: cannot load {path} "
            f"({type(exc).__name__}: {exc}) — the artifact is damaged or "
            "incomplete; run 'repro verify'") from exc


def _attach_shard(spill: SpillManifest, k: int) -> ShardInfo:
    """Shard ``k`` of a committed record, its order and failed arrays loaded."""
    entry = spill.shards[k]
    directory = spill.spill_dir / entry["dir"]
    order = _load_shard_array(k, directory / "order.npy")
    failed = _load_shard_array(k, directory / "failed.npy")
    if order.shape != (entry["hi"] - entry["lo"],):
        raise SpillFormatError(
            f"{directory / 'order.npy'} holds {order.shape} "
            f"entries for a shard of {entry['hi'] - entry['lo']} sets — "
            "the artifact is damaged; run 'repro verify'")
    return ShardInfo(
        lo=entry["lo"], hi=entry["hi"], directory=directory,
        nbytes=entry["nbytes"], build_backend=entry["build_backend"],
        order=order, failed=failed, kind=entry["kind"],
        file_digests=entry["files"],
    )


def _failed_array(pairs) -> np.ndarray:
    """``(element, local set id)`` failed insertions as a sorted ``(k, 2)`` array."""
    if not pairs:
        return np.zeros((0, 2), dtype=np.int64)
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


def _write_shard_arrays(directory: Path, words, offsets, widths, order,
                        failed) -> dict:
    """Write one shard's five arrays into a new ``directory``; return digests.

    The one shard writer of the builder, the ``r0`` rewrite and compaction.
    """
    directory.mkdir()
    digests = {}
    for name, values in zip(SHARD_ARRAY_NAMES,
                            (words, offsets, widths, order, failed)):
        np.save(directory / name, values)
        digests[name] = file_digest(directory / name)
    return digests


def reinterleave_shard_words(
    words: np.ndarray,
    offsets: np.ndarray,
    widths: np.ndarray,
    old_r0: int,
    new_r0: int,
) -> np.ndarray:
    """Repack every row from interleave granularity ``old_r0`` to ``new_r0``.

    A pure byte permutation within each row — placements, widths and offsets
    are untouched, only the Figure-4 interleave order changes.  Needed when
    an append introduces a set whose range undercuts the collection-global
    ``r0``: cross-shard folds require one uniform granularity, so existing
    shards are rewritten at the new minimum.  Counts are interleave-
    invariant, so this never changes a result.
    """
    require(old_r0 % new_r0 == 0,
            f"new r0 {new_r0} must divide the old r0 {old_r0}")
    out = np.array(words)
    for k in range(int(offsets.size)):
        lo = int(offsets[k])
        width = int(widths[k])
        entries = unpack_words_to_bytes(np.asarray(words[lo:lo + width]))
        r = entries.size // 3
        grid = entries.reshape(r // old_r0, 3 * old_r0)
        per_table = [grid[:, t * old_r0:(t + 1) * old_r0].reshape(r)
                     for t in range(3)]
        new = np.empty((r // new_r0, 3 * new_r0), dtype=np.uint8)
        for t in range(3):
            new[:, t * new_r0:(t + 1) * new_r0] = per_table[t].reshape(
                r // new_r0, new_r0)
        out[lo:lo + width] = pack_bytes_to_words(new.reshape(-1))
    return out


def _spill_buffer_words(
    collection: BatmapCollection, r0: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(words, offsets, widths)`` of a collection packed at granularity ``r0``.

    When the collection's own (bulk-pre-assembled or lazily packed) buffer
    already uses ``r0``, it is reused as-is; otherwise the entries are
    re-interleaved at the global granularity — same bytes the monolithic
    buffer would hold for these rows, which is what makes cross-shard folds
    exact.
    """
    from repro.core.bulk_build import device_word_layout, pack_group_words

    own_r0 = collection.r0
    if own_r0 == r0:
        buffer = collection.device_buffer()
        return buffer.words, buffer.offsets, buffer.widths
    require(own_r0 % r0 == 0,
            f"collection r0 {own_r0} is not a multiple of the global r0 {r0}")
    batmaps = collection.batmaps_sorted
    widths, offsets, total = device_word_layout([bm.r for bm in batmaps])
    words = np.zeros(total, dtype=np.uint32)
    start = 0
    while start < len(batmaps):
        stop = start
        r = batmaps[start].r
        while stop < len(batmaps) and batmaps[stop].r == r:
            stop += 1
        entries = np.stack([bm.entries for bm in batmaps[start:stop]])
        packed, _ = pack_group_words(entries, r0)
        rows = np.arange(start, stop)
        words[offsets[rows][:, None] + np.arange(packed.shape[1])] = packed
        start = stop
    return words, offsets, widths


class ShardedCollectionBuilder:
    """Incremental out-of-core construction: add shards, spill, finalize.

    Drives one shard at a time through the ordinary
    :meth:`BatmapCollection.build` (planner-routed: host / bulk / parallel)
    and writes its packed buffer plus metadata to ``spill_dir/shard_NNNN/``.
    The caller supplies set batches in global order; only one shard's
    batmaps are ever resident.  ``manifest`` is the committed record the
    builder's commit succeeds (:meth:`~repro.core.manifest.SpillManifest.empty`
    for a fresh build).
    """

    def __init__(
        self,
        spill_dir: str | Path,
        universe_size: int,
        r0: int,
        *,
        family: HashFamily,
        config: BatmapConfig = DEFAULT_CONFIG,
        build_compute: str = "auto",
        build_workers: int | None = None,
        memory_budget: int | None = None,
    ) -> None:
        require_positive(universe_size, "universe_size")
        if config.entry_storage_bits != 8:
            raise LayoutError(
                "the sharded pipeline spills byte-packed device buffers; "
                f"payload_bits={config.payload_bits} stores "
                f"{config.entry_dtype} entries — use the in-memory path"
            )
        require(family.universe_size == universe_size,
                "family universe size does not match universe_size")
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.universe_size = universe_size
        self.r0 = int(r0)
        self.family = family
        self.config = config
        self.build_compute = build_compute
        self.build_workers = build_workers
        self.memory_budget = memory_budget
        self.shards: list[ShardInfo] = []
        self.manifest = SpillManifest.empty(self.spill_dir)
        self._finalized = False
        self._commit: AtomicCommit | None = None
        self._lock = ExitStack()  # holds the writer lock while a commit is pending

    @classmethod
    def for_append(
        cls,
        sharded: "ShardedCollection",
        *,
        config: BatmapConfig | None = None,
        build_compute: str = "auto",
        build_workers: int | None = None,
        memory_budget: int | None = None,
    ) -> "ShardedCollectionBuilder":
        """Reopen a spilled collection's builder to ingest delta shards.

        The returned builder carries the existing shard table, family and
        committed record; :meth:`append` bulk-builds new sets into *delta*
        shards and commits the record's successor.  ``config`` defaults
        to the spill's recorded ``payload_bits`` over otherwise-default
        knobs — pass the original config explicitly if it was customised
        (placement identity with a from-scratch build requires it).
        """
        if config is None:
            config = DEFAULT_CONFIG.with_(payload_bits=sharded.payload_bits)
        family = sharded.family
        if memory_budget is not None:
            lazy = isinstance(family, ExtensibleHashFamily)
            memory_budget = working_budget(
                memory_budget, sharded.universe_size, sharded.n_physical_sets,
                lazy_family=lazy)
        builder = cls(
            sharded.spill_dir, sharded.universe_size, sharded.r0,
            family=family, config=config, build_compute=build_compute,
            build_workers=build_workers, memory_budget=memory_budget,
        )
        builder.shards = list(sharded.shards)
        builder.manifest = sharded.manifest
        return builder

    def _shard_build_compute(self, sets) -> str:
        """Per-shard engine choice under the working budget.

        The bulk engine's floor is one set's group arrays (about six 8-byte
        per-slot arrays over ``3 * r`` slots); when even that floor would
        eat more than half the working budget, the shard builds with the
        serial inserter instead — identical output, a fraction of the
        working set.
        """
        return shard_build_compute(
            max(np.asarray(s).size for s in sets), self.family.range_universe,
            self.config, self.memory_budget, self.build_compute)

    def _ensure_commit(self) -> AtomicCommit:
        """The pending :class:`AtomicCommit` this builder stages files into.

        Opening it takes the spill's writer lock, held until the commit (or
        :meth:`_abort`): no other writer publishes while this one stages.
        """
        if self._commit is None:
            self._lock.enter_context(writer_lock(self.spill_dir))
            self._commit = AtomicCommit(self.spill_dir)
        return self._commit

    def _publish(self, commit: AtomicCommit, generation: int,
                 **changes) -> SpillManifest:
        """Commit the staged files at ``generation``; release the lock.

        Returns the published record.  ``changes`` go to
        :meth:`~repro.core.manifest.SpillManifest.next_document` on top of
        the builder's shards, universe, ``r0`` and family.
        """
        document = self.manifest.next_document(
            [shard.manifest_entry() for shard in self.shards],
            generation=generation, universe_size=self.universe_size,
            r0=self.r0, payload_bits=self.config.payload_bits,
            family_kind=("lazy" if isinstance(self.family, ExtensibleHashFamily)
                         else "eager"),
            family=self._stage_family(commit, generation), **changes)
        commit.commit(document)
        self._commit = None
        self._lock.close()
        return SpillManifest(self.spill_dir, document)

    def _abort(self) -> None:
        """Drop the staged files and release the lock; the builder is spent."""
        self._finalized = True
        commit, self._commit = self._commit, None
        try:
            if commit is not None:
                commit.abort()
        finally:
            self._lock.close()

    def _fresh_shard_name(self) -> str:
        """Next unused ``shard_NNNN`` name (skips live *and* staged names)."""
        commit = self._ensure_commit()
        index = len(self.shards)
        while commit.taken(f"shard_{index:04d}"):
            index += 1
        return f"shard_{index:04d}"

    def add_shard(self, sets, *, kind: str = "base") -> ShardInfo:
        """Build one shard of sets (next global range) and stage its spill.

        The shard's arrays land in the builder's pending
        :class:`AtomicCommit` staging directory — nothing touches the live
        spill until :meth:`finalize` / :meth:`append` commits, so a crash
        mid-build (or mid-append) leaves any previously committed
        generation intact.  A failure drops the staged files and spends
        the builder.
        """
        require(not self._finalized, "builder is already finalized")
        require(len(sets) > 0, "cannot add an empty shard")
        try:
            return self._stage_shard(sets, kind)
        except BaseException:
            self._abort()
            raise

    def _stage_shard(self, sets, kind: str) -> ShardInfo:
        from repro.core.collection import BatmapCollection

        faultpoint("append.shard")
        collection = BatmapCollection.build(
            sets,
            self.universe_size,
            config=self.config,
            family=self.family,
            build_compute=self._shard_build_compute(sets),
            build_workers=self.build_workers,
            memory_budget=self.memory_budget,
        )
        words, offsets, widths = _spill_buffer_words(collection, self.r0)
        name = self._fresh_shard_name()
        failed = _failed_array([
            (element, local)
            for element, locals_ in collection.failed_insertions().items()
            for local in locals_
        ])
        digests = _write_shard_arrays(self._ensure_commit().stage(name), words,
                                      offsets, widths, collection.order, failed)
        lo = self.shards[-1].hi if self.shards else 0
        info = ShardInfo(
            lo=lo,
            hi=lo + len(sets),
            directory=self.spill_dir / name,
            nbytes=int(words.nbytes),
            build_backend=(collection.build_plan.backend
                           if collection.build_plan else "host"),
            order=collection.order,
            failed=failed,
            kind=kind,
            file_digests=digests,
        )
        self.shards.append(info)
        return info

    def _stage_family(self, commit: AtomicCommit, generation: int) -> dict:
        """Stage (or carry) the family file; return its manifest entry.

        A changed family (universe growth) or a family never spilled is
        written under a fresh name and the superseded file becomes garbage;
        an unchanged family keeps its live file.
        """
        old = self.manifest.family_file
        if old is not None and self.universe_size == self.manifest.universe_size:
            return self.manifest.family_entry()
        if old is None and not commit.taken(FAMILY_NAME):
            name = FAMILY_NAME
        else:
            name = f"family_{generation:04d}.npz"
        staged = commit.stage(name)
        save_family(staged, self.family)
        if old is not None:
            commit.add_garbage(self.spill_dir / old)
        return {"file": name, "digest": file_digest(staged)}

    def _reinterleave_shards(self, commit: AtomicCommit, new_r0: int) -> None:
        """Re-stage every existing shard at granularity ``new_r0``.

        v3 discipline forbids the old in-place ``words.npy`` rewrite (a
        crash mid-write would corrupt the live generation), so each shard
        is copied into a fresh ``rewrite_{gen:04d}_{k:04d}`` directory with
        its words re-interleaved; the old directory becomes post-commit
        garbage.
        """
        generation = self.manifest.generation + 1
        rewritten = []
        for k, shard in enumerate(self.shards):
            faultpoint("append.reinterleave")
            words = np.load(shard.directory / "words.npy")
            offsets = np.load(shard.directory / "offsets.npy")
            widths = np.load(shard.directory / "widths.npy")
            name = f"rewrite_{generation:04d}_{k:04d}"
            digests = _write_shard_arrays(
                commit.stage(name),
                reinterleave_shard_words(words, offsets, widths, self.r0, new_r0),
                offsets, widths, shard.order, shard.failed)
            commit.add_garbage(shard.directory)
            rewritten.append(replace(
                shard, directory=self.spill_dir / name, file_digests=digests))
        self.shards = rewritten
        self.r0 = new_r0

    def append(self, sets, *, universe_size: int | None = None) -> SpillManifest:
        """Bulk-build ``sets`` into delta shards and publish the next generation.

        Placement identity makes this exact: each new set's cuckoo placement
        depends only on (set, family, r, config), so the delta rows are
        byte-identical to the rows a from-scratch build of the combined
        dataset would hold.  Two structural adjustments may still be needed:

        * **Universe growth** — if an element (or an explicit
          ``universe_size``) exceeds the current universe, an extensible
          family grows for free (same permutations, same placements); an
          eager family cannot and raises ``ValueError``.
        * **r0 lowering** — if a new set's range undercuts the collection
          global ``r0``, every existing shard is re-interleaved at the new
          minimum (:func:`reinterleave_shard_words`; a byte permutation,
          counts unchanged).

        All new files are staged and published by one
        :class:`~repro.core.integrity.AtomicCommit`: a crash (or injected
        fault) at any point leaves the previous generation attachable and
        bit-identical.  Returns the committed record at ``generation + 1``;
        :attr:`shards` and :attr:`family` hold the matching shard table and
        (possibly grown) family.
        """
        require(not self._finalized, "builder is already finalized")
        require(len(sets) > 0, "cannot append zero sets")
        commit = self._ensure_commit()
        try:
            return self._append_staged(commit, sets, universe_size)
        except BaseException:
            self._abort()
            raise

    def _append_staged(self, commit: AtomicCommit, sets,
                       universe_size: int | None) -> SpillManifest:
        from repro.core.collection import _dedup_sorted

        dedup = [_dedup_sorted(s) for s in sets]
        needed = max((int(d[-1]) + 1 for d in dedup if d.size), default=0)
        target = max(self.universe_size, needed, universe_size or 0)
        if target > self.universe_size:
            if not isinstance(self.family, ExtensibleHashFamily):
                raise ValueError(
                    f"appending requires universe {target} but the spill's "
                    f"eager hash family is fixed at {self.universe_size}: "
                    "eager permutations materialize O(universe) state and "
                    "cannot grow — rebuild with an extensible family "
                    "(build-index --family lazy)")
            self.family = self.family.grow(target)
            self.universe_size = target

        sizes = np.array([d.size for d in dedup], dtype=np.int64)
        range_universe = self.family.range_universe
        r_new = collection_r0(sizes, range_universe, self.config)
        if r_new < self.r0:
            self._reinterleave_shards(commit, r_new)

        if self.memory_budget is not None:
            packed = set_packed_bytes(sizes, range_universe, self.config)
            ranges = plan_shard_ranges(packed, self.memory_budget)
        else:
            ranges = [(0, len(dedup))]
        for lo, hi in ranges:
            self.add_shard(dedup[lo:hi], kind="delta")

        self._finalized = True
        return self._publish(commit, self.manifest.generation + 1)

    def finalize(self) -> "ShardedCollection":
        """Atomically commit the staged shards + manifest; return the collection.

        A spill already committed in the directory is replaced: its files
        are swept after the commit and the generation moves past it.
        """
        require(self.shards, "cannot finalize a sharded collection with no shards")
        self._finalized = True
        commit = self._ensure_commit()
        try:
            manifest = self._publish(commit, commit.replace_committed(),
                                     tombstones=None)
        except BaseException:
            self._abort()
            raise
        return ShardedCollection(manifest, self.shards, family=self.family)


class ShardedCollection:
    """A collection whose packed shards live on disk, attached on demand.

    The out-of-core counterpart of :class:`BatmapCollection` for the
    counting phase: :meth:`attach` memory-maps one shard's words and wraps
    them in a :class:`~repro.core.batch.WidthClassIndex` (gathers pull only
    the rows a query touches into RAM), and
    :meth:`count_all_pairs` streams shard pairs through the batch/parallel
    engines via :class:`~repro.parallel.sharded.ShardedPairCounter`.

    ``manifest`` is the spill's one metadata record — the
    :class:`~repro.core.manifest.SpillManifest` this object attached, or the
    one its last commit published; generation, universe, ``r0``,
    ``payload_bits``, family kind and file entries are read through it.
    """

    def __init__(self, manifest: SpillManifest, shards: list, *,
                 family: HashFamily | None = None,
                 tombstones: np.ndarray | None = None) -> None:
        """Wrap already-spilled shards; use :meth:`build` or :meth:`from_spill`."""
        self.manifest = manifest
        self.spill_dir = manifest.spill_dir
        self.shards = list(shards)
        self.tombstones = (np.zeros(0, dtype=np.int64) if tombstones is None
                           else np.asarray(tombstones, dtype=np.int64))
        self._family = family
        self._live_ids: np.ndarray | None = None
        self._live_positions: np.ndarray | None = None
        self._content_token: str | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        sets,
        universe_size: int,
        spill_dir: str | Path,
        *,
        memory_budget: int,
        config: BatmapConfig = DEFAULT_CONFIG,
        rng: RngLike = None,
        family: HashFamily | None = None,
        family_kind: str = "eager",
        family_capacity: int | None = None,
        build_compute: str = "auto",
        build_workers: int | None = None,
        max_sets_per_shard: int | None = None,
        result_format: str = "dense",
    ) -> "ShardedCollection":
        """Shard, build and spill an in-memory list of sets.

        The convenience entry point (tests, matrix workloads); the streaming
        mining pipeline drives :class:`ShardedCollectionBuilder` directly so
        tidlists are never all resident.  Results are bit-identical to
        ``BatmapCollection.build(sets, ...)`` with the same ``rng`` on every
        counting path.
        """
        from repro.core.collection import _dedup_sorted

        require(len(sets) > 0, "cannot build an empty collection")
        if family is None:
            if family_kind == "lazy":
                # The default capacity is the current shift plateau (growth
                # is free up to it); an explicit family_capacity buys more
                # headroom at the cost of the larger plateau's range floor.
                capacity = (family_capacity if family_capacity is not None
                            else config.universe_capacity(universe_size))
                require(capacity >= universe_size,
                        f"family_capacity ({capacity}) must cover the "
                        f"universe ({universe_size})")
                family = ExtensibleHashFamily.create(
                    universe_size, capacity=capacity,
                    shift=config.shift_for_universe(capacity), rng=rng)
            else:
                require(family_kind == "eager",
                        f"family_kind must be 'eager' or 'lazy', got {family_kind!r}")
                shift = config.shift_for_universe(universe_size)
                family = HashFamily.create(universe_size, shift=shift, rng=rng)
        dedup = [_dedup_sorted(s) for s in sets]
        sizes = np.array([d.size for d in dedup], dtype=np.int64)
        range_universe = family.range_universe
        packed = set_packed_bytes(sizes, range_universe, config)
        available = working_budget(
            memory_budget, universe_size, len(sets),
            lazy_family=isinstance(family, ExtensibleHashFamily),
            result_format=result_format)
        ranges = plan_shard_ranges(packed, available,
                                   max_sets_per_shard=max_sets_per_shard)
        r0 = collection_r0(sizes, range_universe, config)
        builder = ShardedCollectionBuilder(
            spill_dir, universe_size, r0, family=family, config=config,
            build_compute=build_compute, build_workers=build_workers,
            memory_budget=available,
        )
        for lo, hi in ranges:
            builder.add_shard(dedup[lo:hi])
        return builder.finalize()

    @classmethod
    def from_spill(cls, spill_dir: str | Path) -> "ShardedCollection":
        """Re-attach a previously spilled collection from its manifest.

        The manifest is read and its version negotiated by
        :func:`~repro.core.manifest.read_manifest`: versions 3 (atomic
        commits + checksums), 2 (generation, tombstones, shard kinds) and 1
        (implied generation 0, no tombstones) all attach; anything else — or
        a manifest that is not valid JSON / is missing required fields —
        raises :class:`~repro.core.errors.SpillFormatError`, as does an
        ``order.npy`` whose length disagrees with its shard.  Reads stay mmap'd
        and checksums are *not* verified here (that is ``repro verify``'s
        job), but manifest/file cross-checks that would otherwise cause
        silently wrong results (a missing or wrong-sized tombstone file)
        are enforced.  Staging leftovers of dead mutator processes are
        swept on the way in.
        """
        spill_dir = Path(spill_dir)
        sweep_stale_staging(spill_dir)
        spill = read_manifest(spill_dir)
        shards = [_attach_shard(spill, k) for k in range(len(spill.shards))]
        tombstones = np.frombuffer(spill.read_tombstones(), dtype=np.int64)
        return cls(spill, shards, tombstones=tombstones)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.n_sets

    @property
    def generation(self) -> int:
        """The committed generation this object reflects."""
        return self.manifest.generation

    @property
    def universe_size(self) -> int:
        """Transactions the hash family covers."""
        return self.manifest.universe_size

    @property
    def r0(self) -> int:
        """The collection-global interleave granularity of every shard."""
        return self.manifest.r0

    @property
    def payload_bits(self) -> int:
        """Entry payload width the shards were packed with."""
        return self.manifest.payload_bits

    @property
    def n_physical_sets(self) -> int:
        """Sets physically stored across all shards, tombstoned ones included."""
        return self.shards[-1].hi if self.shards else 0

    @property
    def n_sets(self) -> int:
        """Number of *live* sets — the public index space of every read path.

        Equal to :attr:`n_physical_sets` until something is deleted.  Live
        set ``i`` is physical set ``live_ids[i]``; results (counts, top-k,
        failed lists, served responses) are expressed in live indices, which
        is what makes a post-delete collection bit-identical to a
        from-scratch build over only the surviving sets.
        """
        return self.n_physical_sets - int(self.tombstones.size)

    @property
    def live_ids(self) -> np.ndarray:
        """Sorted physical ids of the live (non-tombstoned) sets."""
        if self._live_ids is None:
            live = np.ones(self.n_physical_sets, dtype=bool)
            live[self.tombstones] = False
            self._live_ids = np.flatnonzero(live)
        return self._live_ids

    @property
    def live_positions(self) -> np.ndarray:
        """Physical id -> live index, or -1 for tombstoned sets."""
        if self._live_positions is None:
            positions = np.full(self.n_physical_sets, -1, dtype=np.int64)
            positions[self.live_ids] = np.arange(self.n_sets, dtype=np.int64)
            self._live_positions = positions
        return self._live_positions

    def _invalidate(self) -> None:
        self._live_ids = None
        self._live_positions = None
        self._content_token = None

    @property
    def content_token(self) -> str:
        """Digest identifying this artifact's exact contents + generation.

        Mixed into serving cache keys so a mutated collection can never
        satisfy a query from a pre-mutation cache entry.  Derived from the
        manifest bytes and the tombstone set — both change on every
        append / delete / compact (the generation counter is stamped into
        the manifest).
        """
        if self._content_token is None:
            digest = blake2b(digest_size=8)
            manifest_path = self.spill_dir / MANIFEST_NAME
            if manifest_path.exists():
                digest.update(manifest_path.read_bytes())
            digest.update(self.tombstones.tobytes())
            self._content_token = f"g{self.generation}-{digest.hexdigest()}"
        return self._content_token

    @property
    def n_shards(self) -> int:
        """Number of spilled shards."""
        return len(self.shards)

    # ------------------------------------------------------------------ #
    # Mutation: append / delete (compaction lives in core.compaction)
    # ------------------------------------------------------------------ #
    def append(
        self,
        sets,
        *,
        universe_size: int | None = None,
        config: BatmapConfig | None = None,
        build_compute: str = "auto",
        build_workers: int | None = None,
        memory_budget: int | None = None,
    ) -> "ShardedCollection":
        """Ingest new sets as delta shards; see :meth:`ShardedCollectionBuilder.append`.

        Runs :func:`~repro.core.append.append_sets` (what ``repro ingest
        --append`` runs) against this attachment's generation: a newer
        commit by another writer raises
        :class:`~repro.core.errors.SpillConflictError`.  Mutates this object
        in place (shard table, r0, generation, family) after the commit
        point and also returns it, so both fluent and statement styles work.
        """
        from repro.core.append import append_sets
        from repro.core.collection import _dedup_sorted

        dedup = [array("q", _dedup_sorted(s).tobytes()) for s in sets]
        manifest, _ = append_sets(
            self.spill_dir, dedup, universe_size=universe_size,
            memory_budget=memory_budget, config=config, build_compute=build_compute,
            build_workers=build_workers, generation=self.generation)
        kept = {shard.directory.name: shard for shard in self.shards}
        shards = [kept.get(entry["dir"]) or _attach_shard(manifest, k)
                  for k, entry in enumerate(manifest.shards)]
        self._adopt(manifest, shards=shards)
        return self

    def delete(self, set_ids) -> int:
        """Tombstone live sets (ids in the *current live* index space).

        Runs :func:`~repro.core.manifest.delete_sets` against this
        attachment's generation (a newer commit by another writer raises
        :class:`~repro.core.errors.SpillConflictError`); in-memory state
        mutates only after the commit point.  Returns the new generation.
        """
        ids = np.asarray(set_ids, dtype=np.int64).ravel().tolist()
        document, tombstones = delete_sets(self.spill_dir, ids,
                                           generation=self.generation)
        self._adopt(SpillManifest(self.spill_dir, document),
                    tombstones=np.frombuffer(tombstones, dtype=np.int64))
        return self.generation

    def compact(self, *, memory_budget: int | None = None,
                full: bool = False) -> "ShardedCollection":
        """Merge shards and purge tombstones; see :func:`repro.core.compaction.compact`.

        Like :meth:`append` and :meth:`delete`, mutates this object in place
        (shard table, tombstones, generation) and returns it; a planned
        no-op leaves everything — including the generation — untouched.
        """
        from repro.core.compaction import compact  # local import: avoid a cycle

        updated = compact(self, memory_budget=memory_budget, full=full)
        if updated is not self:
            self._adopt(updated.manifest, shards=updated.shards,
                        tombstones=updated.tombstones)
        return self

    def _adopt(self, manifest: SpillManifest, *, shards=None, tombstones=None) -> None:
        """Take the record a commit on this spill just published.

        The in-memory shards, tombstones and family carry over unless the
        commit replaced them: no shard array is re-read, no file re-hashed.
        A replaced family file is loaded again on first use.
        """
        if manifest.family_file != self.manifest.family_file:
            self._family = None
        self.manifest = manifest
        if shards is not None:
            self.shards = shards
        if tombstones is not None:
            self.tombstones = tombstones
        self._invalidate()

    @property
    def family_kind(self) -> str:
        """``"lazy"`` for an extensible family, ``"eager"`` otherwise."""
        return self.manifest.resolved_family_kind()

    @property
    def total_packed_bytes(self) -> int:
        """Packed device bytes on disk, summed over all shards."""
        return sum(shard.nbytes for shard in self.shards)

    @property
    def family(self) -> HashFamily:
        """The shared hash family, loaded lazily from ``family.npz``.

        Pair counting never needs the family (the packed bytes are
        self-contained), so attaching a spill without one still works;
        membership, decoding and multiway serving do need it and raise
        :class:`~repro.core.errors.SpillFormatError` when the artifact
        predates family persistence.  Rebuild with a current ``repro
        build-index`` to add it.
        """
        if self._family is None:
            name = self.manifest.family_file or FAMILY_NAME
            family_path = self.spill_dir / name
            if not family_path.exists():
                if self.manifest.family_file is not None:
                    raise SpillFormatError(
                        f"family file {name} referenced by the manifest of "
                        f"{self.spill_dir} is missing — the artifact is "
                        "damaged; run 'repro verify', or rebuild")
                raise SpillFormatError(
                    f"no {FAMILY_NAME} in {self.spill_dir}: this spill predates "
                    "hash-family persistence and cannot serve membership or "
                    "multiway queries — rebuild it with 'repro build-index'"
                )
            self._family = load_family(family_path)
        return self._family

    @property
    def total_words(self) -> int:
        """Sum of true (unpadded) packed row widths, for planner features."""
        return sum(int(np.load(s.directory / "widths.npy").sum()) for s in self.shards)

    def attach(self, shard_index: int, *, block_words=None) -> WidthClassIndex:
        """Memory-map one shard's words and build its width-class engine.

        The returned index gathers rows lazily — attaching is cheap, and a
        query's resident cost is the rows it touches (plus the index's
        per-class cache once whole-class queries run).  Callers own the
        lifetime: dropping the index releases the mapping.
        """
        from repro.core.batch import WidthClassIndex

        shard = self.shards[shard_index]
        words = _load_shard_array(shard_index, shard.directory / "words.npy",
                                  mmap_mode="r")
        offsets = _load_shard_array(shard_index, shard.directory / "offsets.npy")
        widths = _load_shard_array(shard_index, shard.directory / "widths.npy")
        kwargs = {} if block_words is None else {"block_words": block_words}
        return WidthClassIndex(words, offsets, widths, **kwargs)

    def failed_insertions(self) -> dict:
        """Map ``element -> [live set indices]`` of failed insertions.

        Tombstoned sets are dropped and the surviving indices are expressed
        in the live index space, matching what a from-scratch build over
        only the live sets would report.
        """
        live = self.live_positions if self.tombstones.size else None
        failures: dict[int, list[int]] = {}
        for shard in self.shards:
            for element, local in shard.failed.tolist():
                physical = int(local) + shard.lo
                if live is None:
                    failures.setdefault(int(element), []).append(physical)
                    continue
                position = int(live[physical])
                if position >= 0:
                    failures.setdefault(int(element), []).append(position)
        for members in failures.values():
            members.sort()
        return failures

    def count_all_pairs(self, *, compute: str = "auto", workers=None,
                        memory_budget: int | None = None) -> np.ndarray:
        """Dense ``n x n`` stored-copy count matrix in original set order.

        Bit-identical to ``BatmapCollection.count_all_pairs`` on the same
        sets; the work streams shard-pair rectangles through
        :class:`~repro.parallel.sharded.ShardedPairCounter`.
        """
        from repro.parallel.sharded import ShardedPairCounter

        counter = ShardedPairCounter(self, compute=compute, workers=workers,
                                     memory_budget=memory_budget)
        return counter.counts()

    def cleanup(self) -> None:
        """Delete the spill directory (idempotent)."""
        shutil.rmtree(self.spill_dir, ignore_errors=True)
