"""Vectorized bulk construction: round-based cuckoo placement for whole groups.

:func:`repro.core.builder.place_set` inserts one copy at a time in a pure
Python loop — per-element dict lookups, per-move branches.  That was fine
when construction was a rounding error next to the O(n^2) counting phase,
but PRs 1-3 made the counting side vectorized and parallel, so on real
mining and matrix workloads the pre-processing phase (Sections II-A/III-A of
the paper) now dominates.  This module rebuilds it as a **bulk engine**:

* all sets sharing one hash range ``r`` form a *group*; their elements are
  concatenated once and hashed with **one vectorized call per table**
  (``family.positions`` over the whole group);
* placement runs in **rounds**: every pending copy across every set of the
  group claims its current candidate slot simultaneously with one NumPy
  scatter (last writer wins); losers and displaced occupants form the next
  round's frontier with their table advanced cyclically, exactly the walk
  the serial INSERT procedure performs one element at a time;
* per-copy move budgets enforce the MaxLoop bound; exhausted walks evict
  their element in bulk (all stored copies cleared, sibling walks dropped);
* sets that recorded *any* failure are rebuilt with the serial inserter —
  the oracle — so wherever the bulk engine detects trouble, failure
  semantics (which elements end up on the ``failed`` list) are exactly the
  serial ones.  This routing is one-directional by construction: it fires
  on *bulk* failures, and the bulk per-walk budget
  (:data:`BULK_MOVE_BUDGET`, far below the serial walk's ``3 * MaxLoop``
  allowance) makes the engine strictly quicker to declare failure than the
  serial walker, so in practice every serially-failing set takes the
  oracle path too — the test suite and the build benchmark pin
  ``failed_insertions()`` equality (and hence count equality on every
  counting path) across all covered workloads, including failure-heavy
  ones.  A set the serial inserter's deterministic cyclic walk cannot
  place but the bulk rounds can is not provably impossible, merely
  unobserved; if one ever appears, stored-copy counts would differ while
  the repaired end-to-end mining results stay exact (Section III-C repair
  is failure-list-driven per build);
* the byte encoding of :meth:`Batmap.from_placement` is applied to the whole
  group at once (one pass over all sets), and the packed device-word
  layout of Figure 4 is produced group-wise, skipping the per-set
  re-stacking entirely.

The hashing, the rounds and the 8-bit encoding run as compiled C
(:func:`repro.core.swar_kernel.hash_group`,
:func:`~repro.core.swar_kernel.place_sets` and
:func:`~repro.core.swar_kernel.encode_group`, in the library that also holds
the SWAR counting loop).  The C round engine places one set at a time with
a ``3 r`` claim scratch instead of group-wide claim and frontier arrays; its
outputs are identical to :func:`_run_rounds`, because claims never cross
sets and each set's walks keep their order in every next frontier.
The NumPy hashing of :func:`bulk_place_group`, :func:`_run_rounds` and
:meth:`GroupPlacement._numpy_encode` run only when the kernel cannot be
loaded, and are the tests' reference.

Because every slot array is per-set (claims from different sets can never
collide), a set's placement depends only on its own elements — group
composition, chunking and build order do not change the result.  That is
what lets :func:`bulk_build_chunks` place and encode chunks on a pool of
threads (the compiled loops release the GIL and ``malloc`` their own
scratch) and still produce bit-identical collections.

Placements differ from the serial insertion order (copies may settle in a
different 2-of-3 table pair), but the layout's pair counts are
placement-independent: for any two table pairs the indicator-bit convention
counts a common element exactly once (see :mod:`repro.core.intersection`),
so all existing counting backends return identical matrices.  The serial
inserter remains the oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.plan import BULK_MOVE_BUDGET, GROUP_SLOT_BUDGET
from repro.core.builder import EMPTY, Placement, PlacementStats, place_set
from repro.core.config import BatmapConfig, DEFAULT_CONFIG
from repro.core.errors import LayoutError
from repro.core.hashing import HashFamily
from repro.core.swar_kernel import encode_group, hash_group, native_library, place_sets
from repro.utils.arrays import sorted_unique
from repro.utils.validation import require, require_power_of_two

__all__ = [
    "GROUP_SLOT_BUDGET",
    "GroupPlacement",
    "bulk_place_group",
    "bulk_place_sets",
    "padded_width_words",
    "device_word_layout",
    "pack_group_words",
    "BulkBuiltSet",
    "BulkChunk",
    "bulk_build_chunks",
    "bulk_build_sets",
    "sets_from_chunks",
]

#: Cyclic table advance (1, 2, 3, 1, ... in the paper's 1-based notation).
_NEXT_TABLE = np.array([1, 2, 0], dtype=np.int32)

#: :data:`GROUP_SLOT_BUDGET` and the per-walk move budget
#: :data:`BULK_MOVE_BUDGET` live in :mod:`repro.core.plan` (one source for
#: both construction paths).  The move budget exists because one bulk round
#: advances every live walk by one move: at sane loads almost all walks
#: settle within a handful of moves, and the serial MaxLoop budget (3 *
#: max_loop, ~200 moves) would make the engine spend hundreds of
#: nearly-empty rounds escorting a few doomed walks.  Walks past it route
#: their *sets* to the serial oracle, so placements stay exactly serial
#: for them; the cap is per-walk, hence independent of grouping/sharding.


@dataclass
class GroupPlacement:
    """Raw result of placing one width group (all sets share the range ``r``).

    Rows are stored as *flat element indices* into :attr:`elements` (or
    :data:`~repro.core.builder.EMPTY`), which is what the group encoder
    consumes directly; :meth:`placements` converts to per-set element-id
    :class:`~repro.core.builder.Placement` objects for validation and tests.
    """

    r: int
    n_sets: int
    elements: np.ndarray       #: concatenated (deduplicated, sorted) element ids
    set_of: np.ndarray         #: owning set of each flat element
    starts: np.ndarray         #: first flat index of each set
    lengths: np.ndarray        #: deduplicated size of each set
    payloads: np.ndarray       #: (3, n_elements) compressed payload of each element
    slots: np.ndarray          #: (3, n_elements) flat slot index of each element
    rows_flat: np.ndarray      #: (n_sets * 3 * r,) flat element index or EMPTY
    failed_mask: np.ndarray    #: (n_elements,) True where the insertion failed
    set_moves: np.ndarray      #: per-set total cuckoo moves
    set_transcript: np.ndarray  #: per-set longest single walk
    rounds: int                #: number of bulk rounds executed

    def failed_lists(self) -> list[list[int]]:
        """Sorted failed element ids per set."""
        out: list[list[int]] = [[] for _ in range(self.n_sets)]
        for idx in np.nonzero(self.failed_mask)[0].tolist():
            out[int(self.set_of[idx])].append(int(self.elements[idx]))
        return out

    def stats(self, failed: list[list[int]]) -> list[PlacementStats]:
        """Per-set statistics, given :meth:`failed_lists`."""
        return [PlacementStats(inserted, len(f), moves, transcript)
                for inserted, f, moves, transcript in zip(
                    self.lengths.tolist(), failed, self.set_moves.tolist(),
                    self.set_transcript.tolist())]

    def placements(self) -> list[Placement]:
        """Per-set :class:`Placement` objects (element-id rows)."""
        rows_elem = np.full(self.rows_flat.shape, EMPTY, dtype=np.int64)
        mask = self.rows_flat != EMPTY
        rows_elem[mask] = self.elements[self.rows_flat[mask]]
        rows_elem = rows_elem.reshape(self.n_sets, 3, self.r)
        failed = self.failed_lists()
        return [
            Placement(rows=rows_elem[k], r=self.r, failed=failed[k], stats=stats)
            for k, stats in enumerate(self.stats(failed))
        ]

    def encode(self, family: HashFamily, config: BatmapConfig) -> np.ndarray:
        """Byte-encode the whole group at once: ``(n_sets, 3, r)`` entries.

        The same layout :meth:`Batmap.from_placement` produces per set —
        payload in the low bits, the cyclic-order indicator pinned to the
        storage top bit — computed in one pass over every stored element of
        every set in the group: by the compiled encoder for 8-bit entries,
        else by :meth:`_numpy_encode`.
        """
        lib = native_library()
        if lib is None or config.entry_dtype != np.uint8:
            return self._numpy_encode(config)
        entries = encode_group(
            lib, np.ascontiguousarray(self.rows_flat, dtype=np.int32),
            np.ascontiguousarray(self.slots, dtype=np.int32),
            np.ascontiguousarray(self.payloads, dtype=np.int64),
            np.ascontiguousarray(self.failed_mask, dtype=np.bool_),
            payload_mask=config.payload_mask, indicator_shift=config.indicator_shift,
            elements=self.elements)
        return np.frombuffer(entries, dtype=np.uint8).reshape(self.n_sets, 3, self.r)

    def _numpy_encode(self, config: BatmapConfig) -> np.ndarray:
        """:meth:`encode` as NumPy gathers and scatters (fallback and test reference)."""
        n = self.elements.size
        entries_flat = np.zeros(self.n_sets * 3 * self.r, dtype=config.entry_dtype)
        if n == 0:
            return entries_flat.reshape(self.n_sets, 3, self.r)
        present = self.rows_flat[self.slots] == np.arange(n)[None, :]  # (3, n)
        copies = present.sum(axis=0)
        bad = (copies != 2) & ~self.failed_mask | (copies != 0) & self.failed_mask
        if np.any(bad):  # pragma: no cover - engine invariant
            offender = int(self.elements[np.argmax(bad)])
            raise LayoutError(
                f"element {offender} stored in {int(copies[np.argmax(bad)])} "
                "tables after bulk placement"
            )
        stored = np.nonzero(copies == 2)[0]
        if stored.size == 0:
            return entries_flat.reshape(self.n_sets, 3, self.r)
        payloads = self.payloads
        if payloads[:, stored].max(initial=0) > config.payload_mask:
            raise LayoutError(
                "payload overflow: increase payload_bits or the hash-family shift"
            )
        # Exactly two of the three tables hold each stored element, so the
        # first is 0 unless only {1, 2} are set, and the last is 2 unless
        # only {0, 1} are set — two O(1) selects instead of two argmax scans.
        pres = present[:, stored]
        table_a = np.where(pres[0], 0, 1)
        table_b = np.where(pres[2], 2, 1)
        # Indicator convention of Batmap._INDICATOR: only the pair {0, 2} is
        # cyclically ordered 2 -> 0, so only there the first table gets bit 1.
        ind = np.int64(config.indicator_shift)
        bit_a = ((table_a == 0) & (table_b == 2)).astype(np.int64)
        bit_b = np.int64(1) - bit_a
        dtype = config.entry_dtype
        entries_flat[self.slots[table_a, stored]] = (
            (bit_a << ind) | payloads[table_a, stored]
        ).astype(dtype)
        entries_flat[self.slots[table_b, stored]] = (
            (bit_b << ind) | payloads[table_b, stored]
        ).astype(dtype)
        return entries_flat.reshape(self.n_sets, 3, self.r)


# --------------------------------------------------------------------------- #
# The round engine
# --------------------------------------------------------------------------- #
def _run_rounds(
    slots: np.ndarray,
    set_of: np.ndarray,
    n_slots_total: int,
    max_moves: int,
    n_sets: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Round-based 2-of-3 cuckoo placement over flat element indices.

    Every pending *copy* is a walk ``(element, table, budget)``.  Each round
    all walks claim their candidate slot with one scatter; one winner per
    slot survives (last writer), displacing the previous occupant into the
    next round's frontier, while same-round losers advance to their next
    table.  Budgets decrease along every walk each round, so the loop
    terminates within ``max_moves`` rounds; walks that exhaust their budget
    evict their element in bulk (stored copies cleared, sibling walks
    dropped, element marked failed).
    """
    n = set_of.size
    rows = np.full(n_slots_total, EMPTY, dtype=np.int32)
    failed_mask = np.zeros(n, dtype=bool)
    set_moves = np.zeros(n_sets, dtype=np.int64)
    set_transcript = np.zeros(n_sets, dtype=np.int64)
    if n == 0:
        return rows, failed_mask, set_moves, set_transcript, 0

    # The two copies of every element start in *different* tables.  The
    # serial inserter starts both at table 0 (the second copy then swaps
    # with the first and walks on); here that would make every element's
    # copies collide in round 1 by construction.  Any 2-of-3 walk is a valid
    # placement — pair counts are placement-independent — so the stagger
    # only removes guaranteed contention.
    fe = np.concatenate([np.arange(n, dtype=np.int32)] * 2)  # element of each walk
    ft = np.repeat(np.array([0, 1], dtype=np.int32), n)    # current table
    fm = np.zeros(2 * n, dtype=np.int32)                   # moves made so far
    # The remaining budget is implicit: a walk dies when fm reaches
    # max_moves, exactly the serial walk's total move allowance.
    claim = np.full(n_slots_total, -1, dtype=np.int32)
    rounds = 0

    def settle(elements: np.ndarray, moves: np.ndarray) -> None:
        """Fold a batch of terminated walks into the per-set statistics."""
        if elements.size:
            owners = set_of[elements]
            np.add.at(set_moves, owners, moves.astype(np.int64))
            np.maximum.at(set_transcript, owners, moves.astype(np.int64))

    while fe.size:
        rounds += 1
        target = slots[ft, fe]
        idx = np.arange(fe.size, dtype=np.int32)
        claim[target] = idx                                # last writer wins
        win = claim[target] == idx
        claim[target] = -1                                 # reset touched slots
        fm += 1

        wslots = target[win]
        displaced = rows[wslots]                           # fancy index: a copy
        rows[wslots] = fe[win]
        disp = displaced != EMPTY
        settle(fe[win][~disp], fm[win][~disp])             # walks that found a nest

        lose = ~win
        nfe = np.concatenate([fe[lose], displaced[disp]])
        nft = _NEXT_TABLE[np.concatenate([ft[lose], ft[win][disp]])]
        nfm = np.concatenate([fm[lose], fm[win][disp]])

        dead = nfm >= max_moves
        if dead.any():
            newly = np.unique(nfe[dead])
            newly = newly[~failed_mask[newly]]
            if newly.size:
                failed_mask[newly] = True
                cand = slots[:, newly]                     # the 3 candidate slots
                hit = rows[cand] == newly[None, :]
                rows[cand[hit]] = EMPTY                    # evict stored copies
        keep = ~dead & ~failed_mask[nfe]
        ended = ~keep
        settle(nfe[ended], nfm[ended])                     # dead or dropped walks
        fe, ft, fm = nfe[keep], nft[keep], nfm[keep]
    return rows, failed_mask, set_moves, set_transcript, rounds


def bulk_place_group(
    sets: list[np.ndarray],
    family: HashFamily,
    r: int,
    config: BatmapConfig = DEFAULT_CONFIG,
    *,
    oracle_on_failure: bool = True,
) -> GroupPlacement:
    """Place every set of one width group with the round-based bulk engine.

    ``sets`` must hold sorted, deduplicated ``int64`` element-id arrays (the
    collection builder deduplicates once and passes them through).  With
    ``oracle_on_failure`` (the default) any set that records a failed
    insertion is rebuilt with the serial inserter, so its placement —
    including *which* elements fail — matches :func:`place_set` exactly.
    """
    require_power_of_two(r, "r")
    n_sets = len(sets)
    lengths = np.array([s.size for s in sets], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
    flat = (np.concatenate(sets) if int(lengths.sum()) else
            np.zeros(0, dtype=np.int64))
    if flat.size and (flat.min() < 0 or flat.max() >= family.universe_size):
        raise ValueError("element id out of range for the hash family's universe")
    set_of = np.repeat(np.arange(n_sets, dtype=np.int64), lengths)

    row_span = 3 * r
    require(n_sets * row_span < (1 << 31),
            "group slot table exceeds the int32 engine range; chunk the "
            "group (bulk_build_sets does this automatically)")
    lib = native_library()
    hashed = None if lib is None else hash_group(lib, flat, lengths, r, family)
    if hashed is not None:
        slots, payloads = hashed
    else:
        # One permutation gather per table serves both the slot positions
        # and (later) the encoded payloads — they are two bit-fields of
        # pi_t(x).  Both are derived in place, so no (3, n) int64 temporary
        # is made.
        payloads = np.empty((3, flat.size), dtype=np.int64)
        for t in range(3):
            payloads[t] = family.permuted(t, flat)
        slots = np.empty(payloads.shape, dtype=np.int32)
        np.bitwise_and(payloads, r - 1, out=slots, casting="unsafe")
        slots += (set_of * row_span).astype(np.int32)
        slots += (np.arange(3, dtype=np.int32) * r)[:, None]
        payloads >>= family.shift
        payloads += 1
    max_moves = min(3 * config.effective_max_loop(r), BULK_MOVE_BUDGET)
    if lib is not None:
        placed = place_sets(lib, slots, starts, lengths, r, max_moves)
    else:
        placed = _run_rounds(slots, set_of, n_sets * row_span, max_moves, n_sets)
    rows_flat, failed_mask, set_moves, set_transcript, rounds = placed

    if oracle_on_failure and failed_mask.any():
        for s in sorted_unique(set_of[failed_mask]).tolist():
            seg = slice(int(starts[s]), int(starts[s] + lengths[s]))
            oracle = place_set(flat[seg], family, r, config, assume_unique=True)
            region = rows_flat[s * row_span:(s + 1) * row_span]
            region[:] = EMPTY
            stored = oracle.rows != EMPTY
            region.reshape(3, r)[stored] = (
                starts[s] + np.searchsorted(flat[seg], oracle.rows[stored])
            )
            failed_mask[seg] = False
            if oracle.failed:
                failed_mask[starts[s] + np.searchsorted(
                    flat[seg], np.asarray(oracle.failed, dtype=np.int64))] = True
            set_moves[s] = oracle.stats.total_moves
            set_transcript[s] = oracle.stats.max_transcript

    return GroupPlacement(
        r=r, n_sets=n_sets, elements=flat, set_of=set_of, starts=starts,
        lengths=lengths, payloads=payloads, slots=slots,
        rows_flat=rows_flat, failed_mask=failed_mask, set_moves=set_moves,
        set_transcript=set_transcript, rounds=rounds,
    )


def bulk_place_sets(
    sets,
    family: HashFamily,
    r: int,
    config: BatmapConfig = DEFAULT_CONFIG,
    *,
    oracle_on_failure: bool = True,
) -> list[Placement]:
    """Bulk counterpart of calling :func:`place_set` per set at one range ``r``.

    Accepts arbitrary array-likes (deduplicated here) and returns per-set
    :class:`Placement` objects satisfying the same 2-of-3 invariants the
    serial inserter guarantees (``Placement.validate`` passes on every one).
    """
    dedup = [np.unique(np.asarray(s, dtype=np.int64)) for s in sets]
    out: list[Placement] = []
    for lo, hi in _group_chunks(len(dedup), r):
        out.extend(bulk_place_group(
            dedup[lo:hi], family, r, config,
            oracle_on_failure=oracle_on_failure,
        ).placements())
    return out


def _group_chunks(n_sets: int, r: int, slot_budget: int | None = None) -> list[tuple[int, int]]:
    """Contiguous set ranges keeping each chunk within the slot budget.

    ``slot_budget`` overrides :data:`GROUP_SLOT_BUDGET` when a caller must
    bound the working set tighter than the cache-friendliness default — the
    out-of-core pipeline derives it from its resident-set ceiling.  A chunk
    never goes below one set: a single placement's tables are the engine's
    memory floor.
    """
    budget = GROUP_SLOT_BUDGET if slot_budget is None else slot_budget
    per_chunk = max(1, budget // (3 * r))
    return [(lo, min(lo + per_chunk, n_sets))
            for lo in range(0, n_sets, per_chunk)]


# --------------------------------------------------------------------------- #
# Group packing (the Figure 4 interleave, whole group at once)
# --------------------------------------------------------------------------- #
def padded_width_words(width: int) -> int:
    """Packed row width rounded up to a 16-word (64-byte) boundary.

    The alignment the 16-wide coalesced reads of the pair-count kernel
    require (the paper's best-practice guide [19]); the single source of
    the padding rule shared by the lazy per-set packer
    (:meth:`BatmapCollection.device_buffer`), the group packer below and
    the bulk collection assembler.
    """
    return ((width + 15) // 16) * 16


def device_word_layout(rs) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-slot ``(widths, offsets, total_words)`` of the packed device buffer.

    ``rs[k]`` is the hash range of the batmap at width-sorted slot ``k``;
    widths are the *true* packed widths (``3r/4`` words), offsets reflect
    the padded layout.  Both the lazy per-set packer and the bulk
    assembler derive their buffer geometry from this one function, so the
    two construction paths cannot drift apart.
    """
    widths = np.array([3 * int(r) // 4 for r in rs], dtype=np.int64)
    padded = (widths + 15) // 16 * 16
    offsets = np.concatenate([[0], np.cumsum(padded)[:-1]]).astype(np.int64)
    return widths, offsets, int(padded.sum())


def pack_group_words(entries: np.ndarray, r0: int) -> tuple[np.ndarray, int]:
    """Pack ``(n, 3, r)`` byte entries into padded device words, group-wise.

    Returns ``(words, width_words)`` where ``words`` has shape
    ``(n, padded_width)`` (each row 16-word aligned, zero padded — identical
    bytes to :meth:`Batmap.device_array` followed by
    :func:`~repro.utils.bits.pack_bytes_to_words`) and ``width_words`` is the
    *true* per-row width ``3 * r / 4``.
    """
    require(entries.dtype == np.uint8,
            "the interleaved device layout packs one byte per slot")
    n, _, r = entries.shape
    require_power_of_two(r0, "r0")
    require(r0 <= r, f"r0 ({r0}) must not exceed r ({r})")
    blocks = r // r0
    interleaved = (entries.reshape(n, 3, blocks, r0)
                   .transpose(0, 2, 1, 3)
                   .reshape(n, 3 * r))
    width = (3 * r) // 4
    padded = padded_width_words(width)
    out = np.zeros((n, padded * 4), dtype=np.uint8)
    out[:, :3 * r] = interleaved
    return np.ascontiguousarray(out).view("<u4"), width


# --------------------------------------------------------------------------- #
# Whole-collection construction
# --------------------------------------------------------------------------- #
@dataclass
class BulkBuiltSet:
    """One set's construction output: entries plus failure/stats metadata.

    ``entries`` is a view into its chunk's stacked ``(m, 3, r)`` array — the
    chunk *is* the storage; no per-set re-stacking happens anywhere in the
    bulk pipeline.
    """

    r: int
    entries: np.ndarray          #: (3, r) in the configured entry dtype
    failed: tuple[int, ...]
    stats: PlacementStats


@dataclass
class BulkChunk:
    """One placed-and-encoded chunk of a width group."""

    r: int
    indices: list[int]           #: positions of the members in the input order
    entries: np.ndarray          #: stacked (len(indices), 3, r) entries
    failed: list[list[int]]      #: per-member failed element ids
    stats: list[PlacementStats]  #: per-member construction statistics


def bulk_build_chunks(
    sets: list[np.ndarray],
    rs: list[int],
    family: HashFamily,
    config: BatmapConfig = DEFAULT_CONFIG,
    *,
    slot_budget: int | None = None,
    pool=None,
) -> list[BulkChunk]:
    """Build every set with the bulk engine, grouped by hash range.

    ``sets`` are sorted, deduplicated element arrays; ``rs[k]`` is the hash
    range for ``sets[k]``.  Groups are formed per distinct range, split into
    chunks within ``slot_budget`` slots (default :data:`GROUP_SLOT_BUDGET`),
    and each chunk is placed and encoded with one vectorized pass — on the
    threads of ``pool`` (a :class:`~repro.core.batch.TilePool`) when one is
    given.  Per-set results are independent of the grouping (claims never
    cross sets), so neither the chunking nor the threads can change a single
    byte of the output.

    The chunk form keeps each chunk's entries stacked — exactly what the
    device-buffer packer consumes — while :func:`bulk_build_sets` flattens
    to per-set views for callers that want one object per set.
    """
    from repro.core.batch import map_tiles

    require(len(sets) == len(rs), "sets and rs must have the same length")
    by_range: dict[int, list[int]] = {}
    for k, r in enumerate(rs):
        by_range.setdefault(int(r), []).append(k)
    jobs = [(r, members[lo:hi]) for r, members in by_range.items()
            for lo, hi in _group_chunks(len(members), r, slot_budget)]

    def build(job) -> BulkChunk:
        r, chunk = job
        group = bulk_place_group([sets[k] for k in chunk], family, r, config)
        failed = group.failed_lists()
        return BulkChunk(r=r, indices=chunk, entries=group.encode(family, config),
                         failed=failed, stats=group.stats(failed))

    return [chunk for _, chunk in map_tiles(build, jobs, pool)]


def sets_from_chunks(chunks: list[BulkChunk], n_sets: int) -> list[BulkBuiltSet]:
    """Flatten chunk results into one :class:`BulkBuiltSet` per input set.

    Entries stay views into the chunk stacks — no copies.
    """
    out: list[BulkBuiltSet | None] = [None] * n_sets
    for chunk in chunks:
        for row, k in enumerate(chunk.indices):
            out[k] = BulkBuiltSet(
                r=chunk.r,
                entries=chunk.entries[row],
                failed=tuple(chunk.failed[row]),
                stats=chunk.stats[row],
            )
    return out  # type: ignore[return-value]


def bulk_build_sets(
    sets: list[np.ndarray],
    rs: list[int],
    family: HashFamily,
    config: BatmapConfig = DEFAULT_CONFIG,
) -> list[BulkBuiltSet]:
    """Per-set view of :func:`bulk_build_chunks`, in input order."""
    return sets_from_chunks(bulk_build_chunks(sets, rs, family, config),
                            len(sets))
