"""Generalised cuckoo placement: store every element in 2 of 3 hash tables.

This implements the INSERT procedure of Section II-A of the paper.  Elements
are pushed around the three tables in the cyclic order 1, 2, 3, 1, 2, ...
until a vacant slot is found; after ``MaxLoop`` moves the insertion is
declared failed and the currently nestless element is returned.

Every element is inserted twice (two copies); a failed insertion removes all
copies of the offending element, re-inserts the displaced victim, and records
the element in the placement's ``failed`` list.  The mining pipeline repairs
the counts for failed elements on the host (Section III-C); strict callers
may instead ask for an exception.

The output of this module is a :class:`Placement` — three integer rows
holding raw element ids — which :mod:`repro.core.batmap` then encodes into
the compressed byte layout.

The walk runs as compiled C (:func:`repro.core.swar_kernel.walk_set`);
:func:`_walk` is the Python fallback and the tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import BatmapConfig, DEFAULT_CONFIG
from repro.core.errors import InsertionFailure
from repro.core.hashing import HashFamily
from repro.core.swar_kernel import native_library, walk_set
from repro.utils.arrays import sorted_unique
from repro.utils.validation import require, require_power_of_two

__all__ = ["EMPTY", "Placement", "PlacementStats", "place_set"]

#: Sentinel for an empty slot in the raw (element-id) rows.
EMPTY = -1


@dataclass
class PlacementStats:
    """Construction statistics used by the analysis experiments."""

    inserted: int = 0
    failed: int = 0
    total_moves: int = 0
    max_transcript: int = 0

    @property
    def moves_per_insert(self) -> float:
        return self.total_moves / self.inserted if self.inserted else 0.0


@dataclass
class Placement:
    """A 2-of-3 assignment of a set's elements to three hash-table rows.

    Attributes
    ----------
    rows:
        Integer array of shape ``(3, r)``; ``rows[t, p]`` is the element id
        stored at position ``p`` of table ``t`` or :data:`EMPTY`.
    r:
        The (power-of-two) hash range shared by the three rows.
    failed:
        Element ids that could not be fully placed (no copies remain stored).
    """

    rows: np.ndarray
    r: int
    failed: list[int] = field(default_factory=list)
    stats: PlacementStats = field(default_factory=PlacementStats)

    @property
    def stored_elements(self) -> np.ndarray:
        """Sorted unique element ids currently stored (each appears in 2 slots)."""
        return sorted_unique(self.rows[self.rows != EMPTY])

    def occurrences(self, element: int) -> list[tuple[int, int]]:
        """Return the ``(table, position)`` slots currently holding ``element``."""
        t, p = np.nonzero(self.rows == element)
        return list(zip(t.tolist(), p.tolist()))

    def validate(self, family: HashFamily) -> None:
        """Check the structural invariants of a 2-of-3 placement.

        Every stored element must occupy exactly two slots, in two distinct
        tables, each at the slot prescribed by the corresponding hash
        function.  Raises :class:`AssertionError` on violation (used heavily
        in tests and the property-based suite).

        Fully vectorized — one ``np.nonzero`` over the rows, one hash call
        per table and one argsort — so it stays O(r log r) as the
        property-test suites grow (the per-element scan it replaces was
        quadratic in the stored count).
        """
        tables, positions = np.nonzero(self.rows != EMPTY)
        values = self.rows[tables, positions]
        # Hash-slot correctness: every copy sits where its table's hash says.
        for t in range(3):
            mask = tables == t
            expected = family.positions(t, values[mask], self.r)
            if not np.array_equal(positions[mask], expected):
                bad = int(np.argmax(positions[mask] != expected))
                raise AssertionError(
                    f"element {int(values[mask][bad])} at table {t} position "
                    f"{int(positions[mask][bad])}, expected {int(expected[bad])}"
                )
        # Copy counts: exactly two occurrences per stored element, in two
        # distinct tables.  np.nonzero yields row-major order, so a stable
        # sort by value keeps each element's copies ordered by table.
        order = np.argsort(values, kind="stable")
        unique_vals, counts = np.unique(values, return_counts=True)
        if not np.all(counts == 2):
            bad = int(np.argmax(counts != 2))
            raise AssertionError(
                f"element {int(unique_vals[bad])} stored {int(counts[bad])} times"
            )
        sorted_tables = tables[order]
        same_table = sorted_tables[0::2] == sorted_tables[1::2]
        assert not np.any(same_table), (
            f"element {int(values[order][0::2][np.argmax(same_table)])} "
            "stored twice in one table"
        )
        if self.failed:
            still = np.isin(np.asarray(self.failed, dtype=np.int64), unique_vals)
            assert not np.any(still), (
                f"failed element {int(np.asarray(self.failed)[np.argmax(still)])} "
                "still has stored copies"
            )


class _Inserter:
    """Mutable state for the cuckoo insertion loop over one set.

    Works on element *indices* into the set's sorted element array:
    ``positions[t, i]`` is the one legal slot of element ``i`` in table
    ``t``, precomputed in bulk (one vectorised hash call per table) because
    the loop only ever moves elements of the set being built.
    """

    def __init__(self, positions: np.ndarray, r: int, max_loop: int) -> None:
        self.rows = np.full((3, r), EMPTY, dtype=np.int64)
        self.max_loop = max_loop
        self.stats = PlacementStats()
        self._positions = positions.tolist()

    def insert_once(self, x: int) -> int:
        """Insert one copy of ``x``; return :data:`EMPTY` on success or the nestless element."""
        tau = x
        moves = 0
        for _ in range(self.max_loop):
            for table in range(3):
                slot = self._positions[table][tau]
                tau, self.rows[table, slot] = int(self.rows[table, slot]), tau
                moves += 1
                if tau == EMPTY:
                    self.stats.total_moves += moves
                    self.stats.max_transcript = max(self.stats.max_transcript, moves)
                    return EMPTY
        self.stats.total_moves += moves
        self.stats.max_transcript = max(self.stats.max_transcript, moves)
        return tau

    def remove_all(self, x: int) -> int:
        """Remove every stored copy of ``x``; return how many were removed."""
        mask = self.rows == x
        count = int(mask.sum())
        self.rows[mask] = EMPTY
        return count

    def insert_element(self, x: int) -> list[int]:
        """Insert both copies of ``x``.

        Returns the list of elements that ended up *failed* as a result
        (possibly ``[x]``, possibly a displaced victim, usually empty).
        """
        failed: list[int] = []
        for _ in range(2):
            nestless = self.insert_once(x)
            if nestless == EMPTY:
                continue
            # Failure: drop x entirely, then try to re-home the victim.
            self.remove_all(x)
            failed.append(x)
            if nestless != x:
                victim_nestless = self.insert_once(nestless)
                if victim_nestless != EMPTY:
                    # Extremely unlikely secondary failure: give up on the
                    # victim as well so the structure stays consistent
                    # (failed elements have no stored copies).
                    self.remove_all(victim_nestless)
                    failed.append(victim_nestless)
            break
        self.stats.inserted += 1
        self.stats.failed += len(failed)
        return failed


def _walk(elements: np.ndarray, positions: np.ndarray, r: int, max_loop: int,
          stop_on_failure: bool) -> tuple[np.ndarray, list[int], PlacementStats]:
    """The serial walk in Python: the fallback and test reference of the compiled one.

    Returns the ``(3, r)`` element-id rows, the failed element ids in the
    order they were recorded, and the statistics — what
    :func:`repro.core.swar_kernel.walk_set` returns.
    """
    inserter = _Inserter(positions, r, max_loop)
    failed: list[int] = []
    for x in range(elements.size):
        newly_failed = inserter.insert_element(x)
        failed.extend(newly_failed)
        if newly_failed and stop_on_failure:
            break
    rows = inserter.rows
    stored = rows != EMPTY
    rows[stored] = elements[rows[stored]]
    return rows, [int(elements[x]) for x in failed], inserter.stats


def place_set(
    elements: np.ndarray,
    family: HashFamily,
    r: int,
    config: BatmapConfig = DEFAULT_CONFIG,
    *,
    on_failure: str = "record",
    assume_unique: bool = False,
) -> Placement:
    """Place a set of element ids into three rows of range ``r``.

    Parameters
    ----------
    elements:
        Element ids in ``[0, family.universe_size)``; duplicates are ignored.
    r:
        Power-of-two hash range.  The cuckoo analysis requires
        ``r >= 2 * |S|``; smaller ranges are allowed but will fail often.
    on_failure:
        ``"record"`` (default) records failed elements in the placement,
        ``"raise"`` raises :class:`InsertionFailure` on the first failure.
    assume_unique:
        Skip the internal deduplication when the caller already holds a
        sorted duplicate-free array (the collection builder deduplicates
        every set exactly once up front).
    """
    require_power_of_two(r, "r")
    require(on_failure in ("record", "raise"),
            f"on_failure must be 'record' or 'raise', got {on_failure!r}")
    if assume_unique:
        elements = np.asarray(elements, dtype=np.int64)
    else:
        elements = np.unique(np.asarray(elements, dtype=np.int64))
    if elements.size and (elements.min() < 0 or elements.max() >= family.universe_size):
        raise ValueError("element id out of range for the hash family's universe")

    positions = np.stack([family.positions(t, elements, r) for t in range(3)])
    max_loop = config.effective_max_loop(r)
    stop = on_failure == "raise"
    lib = native_library()
    if lib is None:
        rows, failed, stats = _walk(elements, positions, r, max_loop, stop)
    else:
        rows, failed, counts = walk_set(lib, elements, positions, r, max_loop, stop)
        stats = PlacementStats(*counts)
    if failed and stop:
        raise InsertionFailure(failed[0])
    # A victim that failed during a later insertion might have been recorded
    # while an earlier copy of it is long gone; keep the list duplicate-free.
    return Placement(rows=rows, r=r, failed=sorted(set(failed)), stats=stats)
