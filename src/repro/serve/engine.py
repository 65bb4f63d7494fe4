"""Query execution over an attached spill artifact.

:class:`SpillQueryEngine` is the synchronous, NumPy-facing half of the
server: it attaches every shard of a :class:`~repro.core.sharded.ShardedCollection`
once (memory-mapped — the page cache shares the bytes across processes) and
answers each query family with the narrowest existing vectorised primitive:

* **membership** — one permuted-value gather per hash function shared across
  *all* elements of *all* coalesced probes (the probe arithmetic of
  :meth:`repro.core.batmap.Batmap.contains`, vectorised and amortised);
* **pair counts** — :meth:`~repro.core.batch.WidthClassIndex.pairwise_slots`
  within a shard, :meth:`~repro.core.batch.WidthClassIndex.pairwise_index`
  across shards, grouped so one SWAR fold serves many coalesced pairs;
* **top-k** — dense count rows from one rectangle walk
  (:func:`~repro.core.batch.count_shards`) of the queried rows against every
  live set, shared by every coalesced top-k request, then one lexsort per row;
* **multiway** — :func:`repro.extensions.multiway.multiway_intersection`
  with the engine itself as the batmap provider: batmaps are *rehydrated*
  on demand from the packed device rows (byte-identical to direct builds,
  because spilling is injective) and kept in a small LRU.

Every public method returns exactly what the equivalent direct
:class:`~repro.core.collection.BatmapCollection` call returns — the
bit-identity contract ``tests/test_serve_engine.py`` pins.

Set indices in every query are **live** indices: tombstoned sets (see
:meth:`~repro.core.sharded.ShardedCollection.delete`) are invisible — they
cannot be probed, never appear among top-k candidates or count-row columns,
and the index space is dense over the surviving sets, exactly as if the
collection had been built from scratch without them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.core.batch import Shard, count_shards
from repro.core.batmap import Batmap
from repro.core.config import DEFAULT_CONFIG
from repro.extensions.multiway import MultiwayResult, multiway_intersection
from repro.utils.arrays import sorted_unique
from repro.utils.bits import unpack_words_to_bytes
from repro.utils.validation import require

__all__ = ["SpillQueryEngine", "DEFAULT_BATMAP_CACHE_SETS"]

#: Rehydrated batmaps kept resident (multiway pivots/probes revisit sets).
DEFAULT_BATMAP_CACHE_SETS = 256


class SpillQueryEngine:
    """Serve membership / count / top-k / multiway queries from one spill.

    The engine is constructed once per server process and shared by every
    request; methods are thread-safe for the single-executor-thread model
    the batcher uses (one batch executes at a time) plus concurrent cheap
    reads (``stats``).  ``close()`` drops every attached index and cached
    batmap so the memory maps are released deterministically.
    """

    def __init__(self, sharded, *, block_words=None,
                 batmap_cache_sets: int = DEFAULT_BATMAP_CACHE_SETS) -> None:
        """Attach all shards of ``sharded`` and precompute slot mappings."""
        require(sharded.n_sets > 0, "cannot serve an empty collection")
        self.sharded = sharded
        self.family = sharded.family          # raises on pre-family spills
        self.config = DEFAULT_CONFIG.with_(payload_bits=sharded.payload_bits)
        self.n_sets = sharded.n_sets          # live sets (tombstones excluded)
        self.generation = sharded.generation
        self.universe_size = sharded.universe_size
        #: live index -> physical (storage) index; identity when no tombstones
        self._live_ids = sharded.live_ids
        self._shard_los = np.array([s.lo for s in sharded.shards], dtype=np.int64)
        self._indexes = [
            sharded.attach(s, block_words=block_words)
            for s in range(sharded.n_shards)
        ]
        #: per shard: local set index -> width-sorted slot (inverse of order)
        self._ranks = []
        for shard in sharded.shards:
            rank = np.empty(shard.n_sets, dtype=np.int64)
            rank[shard.order] = np.arange(shard.n_sets)
            self._ranks.append(rank)
        #: per shard: element -> sorted list of local sets that failed it
        self._failed_by_shard = [shard.failed for shard in sharded.shards]
        self._batmaps: OrderedDict = OrderedDict()
        self._batmap_cache_sets = int(batmap_cache_sets)
        self._batmap_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Addressing
    # ------------------------------------------------------------------ #
    def shard_of(self, set_ids: np.ndarray) -> np.ndarray:
        """Shard index holding each *physical* set id."""
        return np.searchsorted(self._shard_los, set_ids, side="right") - 1

    def _slot_of(self, shard: int, set_ids: np.ndarray) -> np.ndarray:
        """Width-sorted slots of physical ``set_ids`` living in ``shard``."""
        return self._ranks[shard][set_ids - self._shard_los[shard]]

    def check_set_ids(self, set_ids) -> np.ndarray:
        """Validate live set indices, returning them as an int64 array."""
        ids = np.asarray(set_ids, dtype=np.int64).ravel()
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_sets):
            bad = int(ids[(ids < 0) | (ids >= self.n_sets)][0])
            raise IndexError(
                f"set index {bad} out of range for {self.n_sets} sets")
        return ids

    def _physical(self, live: np.ndarray) -> np.ndarray:
        """Map validated live indices to physical storage indices."""
        return self._live_ids[live]

    # ------------------------------------------------------------------ #
    # Batmap rehydration (multiway / decode serving)
    # ------------------------------------------------------------------ #
    def batmap(self, set_index: int) -> Batmap:
        """Rehydrate one batmap from its packed device row (LRU-cached).

        The spill stores each set's interleaved Figure-4 device bytes
        verbatim, so de-interleaving recovers the exact ``(3, r)`` entries
        a direct build produces; ``set_size`` is reconstructed from the
        two-copies invariant plus the shard's failed list.  This is what
        makes the engine a drop-in batmap provider for
        :func:`~repro.extensions.multiway.multiway_intersection`.
        """
        set_index = int(set_index)
        self.check_set_ids([set_index])
        with self._batmap_lock:
            cached = self._batmaps.get(set_index)
            if cached is not None:
                self._batmaps.move_to_end(set_index)
                return cached
        physical = int(self._live_ids[set_index])
        shard = int(self.shard_of(np.array([physical]))[0])
        index = self._indexes[shard]
        slot = int(self._slot_of(shard, np.array([physical]))[0])
        width = int(index.widths[slot])
        offset = int(index.offsets[slot])
        device = unpack_words_to_bytes(np.asarray(index.words[offset:offset + width]))
        r = 4 * width // 3
        r0 = self.sharded.r0
        blocks = r // r0
        entries = np.empty((3, r), dtype=np.uint8)
        interleaved = device.reshape(blocks, 3 * r0)
        for t in range(3):
            entries[t] = interleaved[:, t * r0:(t + 1) * r0].reshape(r)
        failed_pairs = self._failed_by_shard[shard]
        local = physical - int(self._shard_los[shard])
        failed = tuple(int(e) for e, li in failed_pairs.tolist() if li == local)
        stored = int(np.count_nonzero(entries)) // 2
        bm = Batmap(
            family=self.family,
            config=self.config,
            r=r,
            entries=entries,
            set_size=stored + len(failed),
            failed=failed,
        )
        with self._batmap_lock:
            self._batmaps[set_index] = bm
            self._batmaps.move_to_end(set_index)
            while len(self._batmaps) > self._batmap_cache_sets:
                self._batmaps.popitem(last=False)
        return bm

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    def members_batch(self, queries) -> list:
        """Answer many ``(set_id, elements)`` membership probes at once.

        The permutation application — the only O(elements) work that does
        not depend on the probed set — runs **once per hash function over
        the concatenation of every query's elements**, then each query
        re-masks its slice with its own batmap's ``r - 1`` and gathers.
        Semantics match :meth:`repro.core.batmap.Batmap.contains`
        element-for-element: out-of-universe ids are non-members, failed
        insertions are members.
        """
        if not queries:
            return []
        arrays = [np.asarray(elements, dtype=np.int64).ravel()
                  for _, elements in queries]
        bounds = np.cumsum([0] + [a.size for a in arrays])
        all_elements = (np.concatenate(arrays) if bounds[-1]
                        else np.zeros(0, dtype=np.int64))
        valid = (all_elements >= 0) & (all_elements < self.universe_size)
        safe = np.where(valid, all_elements, 0)
        shift = np.int64(self.family.shift)
        payload_mask = np.int64(self.config.payload_mask)
        permuted = [self.family.permuted(t, safe) for t in range(3)]
        payloads = [(permuted[t] >> shift) + 1 for t in range(3)]

        results = []
        for k, (set_id, _) in enumerate(queries):
            self.check_set_ids([set_id])
            bm = self.batmap(int(set_id))
            sl = slice(int(bounds[k]), int(bounds[k + 1]))
            member = np.zeros(bounds[k + 1] - bounds[k], dtype=bool)
            position_mask = np.int64(bm.r - 1)
            for t in range(3):
                entries = bm.entries[t, permuted[t][sl] & position_mask]
                # NULL entries extract payload 0; true payloads are >= 1,
                # so no explicit empty-slot test is needed.
                member |= (entries.astype(np.int64) & payload_mask) == payloads[t][sl]
            if bm.failed:
                failed = np.asarray(bm.failed, dtype=np.int64)
                member |= (arrays[k][:, None] == failed[None, :]).any(axis=1)
            member &= valid[sl]
            results.append(member)
        return results

    def members(self, set_id: int, elements) -> np.ndarray:
        """Membership of ``elements`` in set ``set_id`` (bool array)."""
        return self.members_batch([(set_id, elements)])[0]

    # ------------------------------------------------------------------ #
    # Pairwise counts
    # ------------------------------------------------------------------ #
    def count_pairs(self, pairs) -> np.ndarray:
        """Stored-copy intersection counts for explicit global ``(i, j)`` pairs.

        Pairs are grouped by the (shard, shard) combination of their
        endpoints; each group runs as one aligned SWAR fold
        (``pairwise_slots`` within a shard, ``pairwise_index`` across two).
        Bit-identical to ``BatmapCollection.count_pairs`` on the same sets.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        require(pairs.ndim == 2 and pairs.shape[1] == 2,
                f"pairs must have shape (k, 2), got {pairs.shape}")
        if pairs.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        self.check_set_ids(pairs)
        pairs = self._physical(pairs)
        # Counting is symmetric; orient every pair with the lower shard first
        # so each unordered shard combination forms a single group.
        shards = self.shard_of(pairs)
        flip = shards[:, 0] > shards[:, 1]
        left = np.where(flip, pairs[:, 1], pairs[:, 0])
        right = np.where(flip, pairs[:, 0], pairs[:, 1])
        shard_left = np.where(flip, shards[:, 1], shards[:, 0])
        shard_right = np.where(flip, shards[:, 0], shards[:, 1])
        out = np.empty(pairs.shape[0], dtype=np.int64)
        combos = shard_left * self.sharded.n_shards + shard_right
        for combo in sorted_unique(combos).tolist():
            p, q = divmod(combo, self.sharded.n_shards)
            mask = combos == combo
            a_slots = self._slot_of(p, left[mask])
            b_slots = self._slot_of(q, right[mask])
            if p == q:
                out[mask] = self._indexes[p].pairwise_slots(a_slots, b_slots)
            else:
                out[mask] = self._indexes[p].pairwise_index(
                    self._indexes[q], a_slots, b_slots)
        return out

    def _row_shards(self, set_ids: np.ndarray) -> list:
        """Tile-walk shards of the queried live sets: output row ``k`` is ``set_ids[k]``."""
        rows = np.arange(set_ids.size)
        physical = self._physical(set_ids)
        row_shards = self.shard_of(physical)
        shards = []
        for p in sorted_unique(row_shards).tolist():
            mask = row_shards == p
            shards.append(Shard(self._indexes[p], self._slot_of(p, physical[mask]),
                                rows[mask]))
        return shards

    def _column_shards(self) -> list:
        """Tile-walk shards of every live set, in live index order."""
        live_pos = self.sharded.live_positions
        return [Shard.of(index, live_pos[shard.global_order])
                for shard, index in zip(self.sharded.shards, self._indexes)]

    def count_rows(self, set_ids) -> np.ndarray:
        """Dense count rows: ``out[k, j] = |set_ids[k] ∩ set_j|`` for all ``j``.

        One rectangle walk (:func:`~repro.core.batch.count_shards`) of the
        queried rows against every live set, shared across every queried
        row — the primitive behind coalesced top-k serving.  Row ``k``
        equals row ``set_ids[k]`` of the all-pairs matrix bit-for-bit;
        tombstoned sets are never counted, and every returned column is a
        live set in live index order.
        """
        set_ids = self.check_set_ids(set_ids)
        return count_shards(
            self._row_shards(set_ids),
            self._column_shards(), shape=(set_ids.size, self.n_sets)).matrix()

    def top_k_batch(self, requests) -> list:
        """Answer many ``(set_id, k)`` top-k-similar-set queries at once.

        Each result ranks the other sets by descending intersection count
        with ties broken by ascending set index (the
        :meth:`~repro.mining.support.PairSupports.top_k` convention), the
        queried set itself excluded.  All query rows are gathered with one
        :meth:`count_rows` call.
        """
        if not requests:
            return []
        set_ids = self.check_set_ids([int(set_id) for set_id, _ in requests])
        limits = [min(int(k), self.n_sets - 1) for _, k in requests]
        rows = self.count_rows(set_ids)
        results = []
        for k_row, limit in enumerate(limits):
            row = rows[k_row].copy()
            row[set_ids[k_row]] = -1           # exclude self from the ranking
            ranked = np.lexsort((np.arange(self.n_sets), -row))[:limit]
            results.append([(int(j), int(rows[k_row, j])) for j in ranked])
        return results

    def top_k(self, set_id: int, k: int) -> list:
        """Top-``k`` most-similar sets to ``set_id`` as ``[(j, count), ...]``."""
        return self.top_k_batch([(set_id, k)])[0]

    # ------------------------------------------------------------------ #
    # Multiway
    # ------------------------------------------------------------------ #
    def multiway(self, set_indices) -> MultiwayResult:
        """Exact multiway intersection of several sets (batched probes).

        Delegates to :func:`~repro.extensions.multiway.multiway_intersection`
        with this engine as the batmap provider; rehydrated batmaps make the
        result identical to the in-memory collection's.
        """
        self.check_set_ids(list(set_indices))
        return multiway_intersection(self, set_indices)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def artifact_token(self) -> str:
        """Content token of the attached generation — the cache-key namespace.

        Changes whenever the artifact changes (append, delete, compaction),
        so results cached under one token can never answer queries against
        another generation of the collection.
        """
        return self.sharded.content_token

    def stats(self) -> dict:
        """Artifact summary served by the ``stats`` operation."""
        return {
            "n_sets": self.n_sets,
            "n_physical_sets": self.sharded.n_physical_sets,
            "n_tombstones": int(self.sharded.tombstones.size),
            "n_shards": self.sharded.n_shards,
            "generation": self.generation,
            "family_kind": self.sharded.family_kind,
            "artifact_token": self.artifact_token,
            "universe_size": self.universe_size,
            "r0": self.sharded.r0,
            "payload_bits": self.sharded.payload_bits,
            "total_packed_bytes": self.sharded.total_packed_bytes,
            "batmap_cache_sets": self._batmap_cache_sets,
        }

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has released the attachments."""
        return self._closed

    def close(self) -> None:
        """Detach every shard index and drop cached batmaps (idempotent).

        Dropping the :class:`~repro.core.batch.WidthClassIndex` objects
        releases their memory-mapped ``words`` arrays — the clean-shutdown
        contract the server relies on.
        """
        self._indexes = []
        with self._batmap_lock:
            self._batmaps.clear()
        self._closed = True
