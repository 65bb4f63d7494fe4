"""A collection of batmaps sharing one hash family, ready for bulk intersection.

This is the host-side object the mining pipeline builds during preprocessing
(Section III-C of the paper):

* all sets are converted to batmaps with the *same* three hash permutations,
  so any two of them are positionally comparable;
* batmaps are sorted by increasing width, so that the GPU's 16-wide work
  groups spend little time on narrow batmaps;
* all batmaps are packed into one flat device buffer (the interleaved layout
  of Figure 4, four 8-bit entries per 32-bit word) that is shipped to the
  device once;
* failed cuckoo insertions are recorded per transaction so the host can
  repair the affected pair counts after the device pass.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.batch import BatchPairCounter
from repro.core.batmap import Batmap
from repro.core.builder import place_set
from repro.core.config import BatmapConfig, DEFAULT_CONFIG
from repro.core.hashing import HashFamily
from repro.core.intersection import count_common
from repro.utils.arrays import sorted_unique
from repro.utils.bits import pack_bytes_to_words
from repro.utils.rng import RngLike
from repro.utils.validation import require, require_positive

__all__ = ["DeviceBuffer", "BatmapCollection"]


def _dedup_sorted(s) -> np.ndarray:
    """One set as a sorted duplicate-free int64 array; ascending input passes through.

    Tidlists — the mining pipeline's sets — arrive strictly ascending, so
    the sort is pure overhead for them; a single vectorized monotonicity
    check replaces it.  The returned array is never mutated downstream, so
    passing the caller's array through on the fast path is safe.
    """
    arr = np.asarray(s, dtype=np.int64).ravel()
    if arr.size < 2 or bool(np.all(arr[1:] > arr[:-1])):
        return arr
    return sorted_unique(arr)


def _dedup_sets(sets, universe_size: int) -> list[np.ndarray]:
    """Every set as a sorted duplicate-free int64 array, with one range check.

    :func:`_dedup_sorted` over every set: one vectorized pass over the
    concatenated sets finds the few that are not strictly ascending, and
    only those are sorted.  A NumPy check per set costs ~5 us, a quarter of
    a 150-element set's whole bulk build (E22).
    """
    arrs = [np.asarray(s, dtype=np.int64).ravel() for s in sets]
    flat = np.concatenate(arrs)
    if flat.size and (flat.min() < 0 or flat.max() >= universe_size):
        raise ValueError("element id out of range for the hash family's universe")
    ends = np.cumsum([a.size for a in arrs])
    # flat[p] <= flat[p - 1], except where p is the first element of a set
    descent = flat[1:] <= flat[:-1]
    first = ends[(ends > 0) & (ends < flat.size)]
    descent[first - 1] = False
    drops = np.flatnonzero(descent) + 1
    for k in sorted_unique(np.searchsorted(ends, drops, side="right")).tolist():
        arrs[k] = sorted_unique(arrs[k])
    return arrs


@dataclass(frozen=True)
class DeviceBuffer:
    """Flat packed representation of every batmap, as transferred to the device.

    Attributes
    ----------
    words:
        ``uint32`` array holding all batmaps back to back (interleaved layout,
        4 entries per word).
    offsets:
        ``offsets[k]`` is the first word of batmap ``k`` (in sorted order).
    widths:
        ``widths[k]`` is the number of words of batmap ``k``.
    r0:
        The collection-wide block granularity (smallest hash range).
    """

    words: np.ndarray
    offsets: np.ndarray
    widths: np.ndarray
    r0: int

    @property
    def nbytes(self) -> int:
        return int(self.words.nbytes)

    def slice(self, k: int) -> np.ndarray:
        """Word view of batmap ``k`` (sorted order)."""
        o = int(self.offsets[k])
        return self.words[o:o + int(self.widths[k])]


class BatmapCollection:
    """Batmaps for a family of sets ``S_0 .. S_{n-1}`` over ``{0..m-1}``.

    Indices exposed by the public API are the *original* set indices (e.g.
    item ids in frequent pair mining); the width-sorted order used internally
    for device scheduling is available as :attr:`order`.
    """

    def __init__(
        self,
        family: HashFamily,
        config: BatmapConfig,
        batmaps: list[Batmap],
        order: np.ndarray,
        universe_size: int,
    ) -> None:
        self.family = family
        self.config = config
        self._batmaps_sorted = batmaps          # in width-sorted order
        self.order = order                      # order[k] = original index of sorted slot k
        self.universe_size = universe_size
        self.rank = np.empty_like(order)
        self.rank[order] = np.arange(order.size)
        self._device_buffer: DeviceBuffer | None = None
        self._batch_counter: BatchPairCounter | None = None
        #: The construction planner's verdict for this collection (set by
        #: :meth:`build`; ``None`` for hand-assembled collections).
        self.build_plan = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        sets: Sequence[np.ndarray],
        universe_size: int,
        *,
        config: BatmapConfig = DEFAULT_CONFIG,
        rng: RngLike = None,
        sort_by_size: bool = True,
        family: HashFamily | None = None,
        build_compute: str = "auto",
        build_workers: int | None = None,
        memory_budget: int | None = None,
    ) -> "BatmapCollection":
        """Build batmaps for every set in ``sets``.

        ``sets[i]`` is an array-like of element ids in ``[0, universe_size)``.

        ``build_compute`` selects the construction engine through the
        workload planner (:func:`~repro.core.plan.plan_build`): ``"host"``
        is the serial per-element inserter (the oracle), ``"bulk"`` the
        round-based vectorized engine (:mod:`repro.core.bulk_build`),
        ``"parallel"`` the bulk engine with its chunks on a pool of
        threads (demoted to ``"bulk"`` below its pay-off floor), and
        ``"auto"`` (default) lets the planner pick.
        All engines yield collections with identical pair counts on every
        counting path; the bulk engines additionally pre-assemble the
        packed device buffer, so :meth:`device_buffer` is free afterwards.

        ``memory_budget`` (bytes) tightens the bulk engine's group chunking
        so its slot tables respect a resident-set ceiling — placements are
        per-set independent, so the budget changes working-set size only,
        never a byte of the output.
        """
        from repro.core.plan import plan_build  # avoid an import cycle at module load

        require_positive(universe_size, "universe_size")
        require(len(sets) > 0, "cannot build an empty collection")
        if family is None:
            shift = config.shift_for_universe(universe_size)
            family = HashFamily.create(universe_size, shift=shift, rng=rng)
        else:
            require(family.universe_size == universe_size,
                    "family universe size does not match universe_size")

        # Deduplicate each set exactly once; sizes, ranges and the build
        # loop below all reuse the same arrays (the seed ran np.unique
        # twice per set — one pass for sizes, another inside the loop).
        dedup = _dedup_sets(sets, universe_size)
        sizes = np.array([d.size for d in dedup], dtype=np.int64)
        order = np.argsort(sizes, kind="stable") if sort_by_size else np.arange(len(sets))
        # Keep the packed-word path available even for tiny sets.  Sizes
        # repeat heavily across a large collection, so the range arithmetic
        # is memoised per distinct size.  Range floors derive from the
        # family's range universe (the capacity, for extensible families) so
        # builds before and after a universe growth stay bit-identical.
        range_universe = family.range_universe
        range_cache: dict[int, int] = {}
        rs = []
        for size in sizes.tolist():
            r = range_cache.get(size)
            if r is None:
                r = range_cache[size] = max(
                    4, config.range_for_size(size, range_universe))
            rs.append(r)

        plan = plan_build(len(sets), int(sizes.sum()),
                          requested=build_compute, workers=build_workers)
        if plan.backend == "host":
            batmaps: list[Batmap] = []
            for k in order.tolist():
                placement = place_set(dedup[k], family, rs[k], config,
                                      assume_unique=True)
                batmaps.append(Batmap.from_placement(
                    placement, family, config, set_size=int(sizes[k])))
            collection = cls(family, config, batmaps,
                             np.asarray(order, dtype=np.int64), universe_size)
            collection.build_plan = plan
            return collection
        return cls._build_bulk(dedup, rs, family, config, order,
                               universe_size, plan, memory_budget)

    @classmethod
    def _build_bulk(cls, dedup, rs, family, config, order, universe_size,
                    plan, memory_budget=None) -> "BatmapCollection":
        """Assemble the collection from the bulk engine (inline or on threads).

        Batmap entries stay views into the chunk-stacked arrays the encoder
        produced, and the same stacks are packed straight into the
        :class:`DeviceBuffer` (identical bytes to the lazy per-set packing
        of :meth:`device_buffer`) — no per-set re-stacking ever runs for
        bulk-built collections.
        """
        from repro.core.batch import TilePool
        from repro.core.bulk_build import (
            GROUP_SLOT_BUDGET,
            bulk_build_chunks,
            device_word_layout,
            pack_group_words,
        )

        sorted_sets = [dedup[k] for k in order.tolist()]
        sorted_rs = [rs[k] for k in order.tolist()]
        # A budget caps the slots per chunk.  Placing and encoding a chunk
        # peaks at ~12 B per slot compiled and ~27 B on the NumPy fallback
        # (tracemalloc at full load, E22), so 1/192 of the ceiling in slots
        # keeps that working set at 1/16 (1/7) of it.  Larger chunks bought
        # no build time and raised the mine-zipf-stream peak by ~5 MB (E22).
        slot_budget = (GROUP_SLOT_BUDGET if memory_budget is None
                       else max(1, memory_budget // 192))
        threads = nullcontext()
        if plan.backend == "parallel":
            # ~2 chunks per thread, so an unlucky heavy chunk cannot
            # serialise the end of the build
            slot_budget = min(slot_budget, -(-3 * sum(sorted_rs) // (2 * plan.workers)))
            threads = TilePool(plan.workers)
        with threads as pool:
            chunks = bulk_build_chunks(sorted_sets, sorted_rs, family, config,
                                       slot_budget=slot_budget, pool=pool)
        pack_jobs = [(chunk.indices, chunk.entries) for chunk in chunks]

        # one Batmap per set straight from its chunk (entries stay views)
        batmaps: list = [None] * len(sorted_sets)
        for chunk in chunks:
            for entries, k, failed, stats in zip(chunk.entries, chunk.indices,
                                                 chunk.failed, chunk.stats):
                batmaps[k] = Batmap(family=family, config=config, r=chunk.r,
                                    entries=entries, set_size=int(sorted_sets[k].size),
                                    failed=tuple(failed), stats=stats)
        collection = cls(family, config, batmaps,
                         np.asarray(order, dtype=np.int64), universe_size)
        collection.build_plan = plan

        if config.entry_storage_bits == 8:
            r0 = min(sorted_rs)
            widths, offsets, total = device_word_layout(sorted_rs)
            words = np.zeros(total, dtype=np.uint32)
            for slots, entries in pack_jobs:
                packed, _ = pack_group_words(entries, r0)
                if slots[-1] - slots[0] == len(slots) - 1:  # ascending, so consecutive
                    start = int(offsets[slots[0]])
                    words[start:start + packed.size] = packed.ravel()
                else:
                    words[offsets[slots][:, None] + np.arange(packed.shape[1])] = packed
            collection._device_buffer = DeviceBuffer(
                words=words, offsets=offsets, widths=widths, r0=r0)
        return collection

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._batmaps_sorted)

    def batmap(self, original_index: int) -> Batmap:
        """Batmap of the set with the given *original* index."""
        return self._batmaps_sorted[int(self.rank[original_index])]

    def batmap_sorted(self, sorted_index: int) -> Batmap:
        """Batmap at a width-sorted slot (device scheduling order)."""
        return self._batmaps_sorted[sorted_index]

    @property
    def batmaps_sorted(self) -> list[Batmap]:
        return list(self._batmaps_sorted)

    @property
    def r0(self) -> int:
        """Collection-wide block granularity: the smallest range present."""
        return min(b.r for b in self._batmaps_sorted)

    @property
    def memory_bytes(self) -> int:
        """Total compressed size of all batmaps (the device transfer size)."""
        return sum(b.memory_bytes for b in self._batmaps_sorted)

    def failed_insertions(self) -> dict[int, list[int]]:
        """Map ``element -> [original set indices]`` whose insertion of that element failed.

        In the frequent-pair-mining context the element is a transaction id
        ``b`` and the returned lists are the sets ``F_b`` of Section III-C.
        """
        failures: dict[int, list[int]] = {}
        for sorted_idx, bm in enumerate(self._batmaps_sorted):
            original = int(self.order[sorted_idx])
            for element in bm.failed:
                failures.setdefault(int(element), []).append(original)
        return failures

    # ------------------------------------------------------------------ #
    # Host-side pair counting (batch engine)
    # ------------------------------------------------------------------ #
    def has_batch_counter(self) -> bool:
        """Whether the batch engine has already been built for this collection.

        A planner feature (:class:`~repro.core.plan.PlanFeatures`): once the
        packed buffer has been gathered, even point queries are cheaper
        through the engine than through the per-pair reference.
        """
        return self._batch_counter is not None

    def batch_counter(self) -> BatchPairCounter:
        """The vectorised batch pair-counting engine for this collection (cached).

        Built once; every host-side counting query — :meth:`count_pair`,
        :meth:`count_all_pairs`, the boolean-matrix product and the mining
        pipeline's host compute mode — goes through it.
        """
        if self._batch_counter is None:
            self._batch_counter = BatchPairCounter(self)
        return self._batch_counter

    def count_pair(self, i: int, j: int) -> int:
        """Stored-copy intersection count of original sets ``i`` and ``j``.

        A point query stays O(one pair): it only goes through the batch
        engine once some bulk query has already built it (building the engine
        gathers the whole packed buffer, which a single pair never amortises;
        an existing engine also implies the word-aligned r0 >= 4 it validates).
        """
        if self._batch_counter is None:
            return count_common(self.batmap(i), self.batmap(j))
        return self._batch_counter.count_pair(i, j)

    def count_all_pairs(
        self,
        *,
        workers: int | None = None,
        compute: str | None = None,
        result_format: str = "dense",
        min_support: int = 0,
        memory_budget: int | None = None,
    ):
        """Stored-copy intersection counts of every pair.

        A thin wrapper over :meth:`count_result`, which takes the same
        arguments.  ``result_format="dense"`` (the default) keeps the legacy
        contract — a dense ``n x n`` ``int64`` ndarray indexed by original
        set indices, the diagonal holding each set's stored element count.
        Any other format returns the
        :class:`~repro.core.results.CountResult` itself.
        """
        result = self.count_result(
            compute=compute, workers=workers, result_format=result_format,
            min_support=min_support, memory_budget=memory_budget)
        if result_format == "dense":
            return result.matrix()
        return result

    def count_result(
        self,
        *,
        compute: str | None = None,
        workers: int | None = None,
        result_format: str = "auto",
        min_support: int = 0,
        memory_budget: int | None = None,
    ):
        """All-pairs counts as a :class:`~repro.core.results.CountResult`.

        The one place an in-memory counting backend is mapped to an engine.
        ``compute`` names the backend (``"auto"``, ``"host"``, ``"batch"``
        or ``"parallel"``; default ``"batch"``) and is resolved by the
        workload planner (:func:`~repro.core.plan.plan_counts`): ``"auto"``
        applies the full policy, ``"parallel"`` falls back to the serial
        batch engine for small inputs, and layouts the packed engines cannot
        represent run on the per-pair ``"host"`` reference.  ``workers``
        sizes the parallel thread pool (``None``: from the core count).

        ``result_format="auto"`` resolves against ``memory_budget``
        (:func:`~repro.core.plan.resolve_result_format`) and ``min_support``
        becomes the engines' tile-pruning bound.  Every backend produces
        bit-identical surviving counts; the dense format remains the oracle.  The backend the plan
        chose is recorded in the result's ``stats["count_backend"]``.
        """
        from repro.core.plan import PlanFeatures, plan_counts, resolve_result_format

        require(compute in (None, "auto", "host", "batch", "parallel"),
                f"compute must be 'auto', 'host', 'batch' or 'parallel', got {compute!r}")
        fmt = resolve_result_format(result_format, len(self), memory_budget)
        features = PlanFeatures.from_collection(
            self, result_format=fmt, min_support=min_support)
        plan = plan_counts(features, requested=compute or "batch", workers=workers)
        if plan.backend == "parallel":
            from repro.parallel.executor import ParallelPairCounter

            with ParallelPairCounter(self, workers=workers) as counter:
                result = counter.count_result(
                    result_format=fmt, min_support=min_support)
        elif plan.backend == "host":
            result = self._loop_count_result(fmt)
        else:
            result = self.batch_counter().count_result(
                result_format=fmt, min_support=min_support)
        result.stats["count_backend"] = plan.backend
        return result

    def _loop_count_result(self, fmt: str):
        """Reference-loop counts as the requested result (one sparse tile).

        The per-pair loop computes everything (no tiles exist to prune), so
        the result carries no pruning floor.
        """
        from repro.core.results import DenseCountResult, SparseAccumulator

        dense = self._count_all_pairs_loop()
        if fmt == "dense":
            return DenseCountResult(dense)
        ids = np.arange(len(self))
        sink = SparseAccumulator(len(self))
        sink.add_block(ids, ids, np.triu(dense))
        return sink.finalize()

    def _count_all_pairs_loop(self) -> np.ndarray:
        """Per-pair reference loop, kept for sub-word ranges and verification."""
        n = len(self)
        out = np.zeros((n, n), dtype=np.int64)
        for a in range(n):
            bm_a = self._batmaps_sorted[a]
            ia = int(self.order[a])
            out[ia, ia] = bm_a.stored_count
            for b in range(a + 1, n):
                ib = int(self.order[b])
                c = count_common(bm_a, self._batmaps_sorted[b])
                out[ia, ib] = c
                out[ib, ia] = c
        return out

    # ------------------------------------------------------------------ #
    # Device packing
    # ------------------------------------------------------------------ #
    def device_buffer(self) -> DeviceBuffer:
        """Pack every batmap into one flat word buffer (built once, cached).

        Each batmap is padded to a 16-word (64-byte) boundary so that the
        16-wide coalesced reads of the pair-count kernel start on an aligned
        segment — the alignment requirement the paper's best-practice guide
        [19] calls out.  The padding words are never read (folding uses the
        true width), they only shift the next batmap's offset.  The buffer
        geometry comes from :func:`~repro.core.bulk_build.device_word_layout`
        — the same function the bulk build path assembles its (pre-built,
        byte-identical) buffer from.
        """
        if self._device_buffer is None:
            from repro.core.bulk_build import device_word_layout

            r0 = self.r0
            widths, offsets, total = device_word_layout(
                [bm.r for bm in self._batmaps_sorted])
            words = np.zeros(total, dtype=np.uint32)
            for k, bm in enumerate(self._batmaps_sorted):
                packed = pack_bytes_to_words(bm.device_array(r0))
                words[offsets[k]:offsets[k] + packed.size] = packed
            self._device_buffer = DeviceBuffer(
                words=words, offsets=offsets, widths=widths, r0=r0)
        return self._device_buffer
