"""The Batmap data structure: a compressed, comparison-friendly set layout.

A :class:`Batmap` stores a set ``S`` of element ids from ``{0..m-1}`` as three
hash-table rows of range ``r`` (a power of two), each element appearing in
exactly two of the three rows (2-of-3 cuckoo placement).  Each slot holds an
8-bit entry::

    bit 7      : indicator bit b_t[p] — 1 iff the *other* copy of the stored
                 element lives in the cyclically *preceding* row
    bits 6..0  : payload — ``(pi_t(x) >> shift) + 1`` (0 is reserved for NULL)

Together with the slot index (which pins the low-order bits of ``pi_t(x)``),
the payload identifies the element uniquely as long as ``r >= 2**shift``
(Section III-A's compression condition).  Intersection sizes between two
batmaps built from the same :class:`~repro.core.hashing.HashFamily` can then
be computed by a data-independent element-wise comparison — see
:mod:`repro.core.intersection`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.builder import Placement, PlacementStats, place_set
from repro.core.config import BatmapConfig, DEFAULT_CONFIG
from repro.core.errors import LayoutError
from repro.core.hashing import HashFamily
from repro.utils.bits import pack_bytes_to_words
from repro.utils.rng import RngLike
from repro.utils.validation import require

__all__ = ["Batmap", "build_batmap"]

#: Byte value of an empty slot: payload 0 (NULL) with indicator bit clear.
NULL_ENTRY = np.uint8(0)

# Indicator bit convention: for an element stored in rows {a, b} that are
# cyclically adjacent as a -> b (b == (a + 1) % 3), the occurrence in row b is
# the "last" one and gets bit 1; the occurrence in row a gets bit 0.
_INDICATOR = {
    (0, 1): (0, 1),
    (1, 2): (0, 1),
    (2, 0): (1, 0),  # pair {0, 2}: row 2 is first, row 0 is last
}


@dataclass
class Batmap:
    """Compressed 2-of-3 representation of a single set.

    Instances are created through :func:`build_batmap` or
    :meth:`Batmap.from_placement`; the constructor itself only checks basic
    shape invariants.
    """

    family: HashFamily
    config: BatmapConfig
    r: int
    entries: np.ndarray          # uint8, shape (3, r)
    set_size: int
    failed: tuple[int, ...] = ()
    stats: PlacementStats | None = None

    def __post_init__(self) -> None:
        # Plain conditionals, not require(): bulk construction creates one
        # Batmap per set and the eagerly formatted dtype/shape messages were
        # a measurable slice of whole-collection build time.
        if self.entries.shape != (3, self.r):
            raise ValueError(
                f"entries must have shape (3, {self.r}), got {self.entries.shape}")
        if self.entries.dtype != self.config.entry_dtype:
            raise ValueError(
                f"entries must be {self.config.entry_dtype} for "
                f"payload_bits={self.config.payload_bits}, got {self.entries.dtype}")
        if self.r < 1:
            raise ValueError("range must be at least 1")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_placement(
        cls,
        placement: Placement,
        family: HashFamily,
        config: BatmapConfig = DEFAULT_CONFIG,
        *,
        set_size: int | None = None,
    ) -> "Batmap":
        """Encode a raw cuckoo placement into the compressed byte layout."""
        r = placement.r
        rows = placement.rows
        dtype = config.entry_dtype
        entries = np.zeros((3, r), dtype=dtype)

        stored = placement.stored_elements
        if stored.size:
            # For every stored element find its two (table, position) slots.
            # Work in bulk: positions per table for all stored elements.
            pos = np.stack([family.positions(t, stored, r) for t in range(3)], axis=0)
            present = np.stack(
                [rows[t, pos[t]] == stored for t in range(3)], axis=0
            )  # (3, n_stored) — True where the element's copy actually sits
            payloads = np.stack([family.payloads(t, stored) for t in range(3)], axis=0)
            max_payload = (1 << config.payload_bits) - 1
            if payloads.max(initial=0) > max_payload:
                raise LayoutError(
                    "payload overflow: increase payload_bits or the hash-family shift"
                )
            copies = present.sum(axis=0)
            if np.any(copies != 2):  # pragma: no cover - guarded by Placement.validate
                bad = int(stored[np.argmax(copies != 2)])
                raise LayoutError(
                    f"element {bad} stored in {int(copies[np.argmax(copies != 2)])} tables"
                )
            # First and last table holding each element (exactly two are set).
            idx = np.arange(stored.size)
            table_a = np.argmax(present, axis=0)
            table_b = 2 - np.argmax(present[::-1], axis=0)
            # Indicator bits of _INDICATOR: the pair {0, 2} is cyclically
            # ordered 2 -> 0, so only there the *first* table carries bit 1.
            ind = np.int64(config.indicator_shift)
            bit_a = ((table_a == 0) & (table_b == 2)).astype(np.int64)
            bit_b = np.int64(1) - bit_a
            entries[table_a, pos[table_a, idx]] = (
                (bit_a << ind) | payloads[table_a, idx]
            ).astype(dtype)
            entries[table_b, pos[table_b, idx]] = (
                (bit_b << ind) | payloads[table_b, idx]
            ).astype(dtype)

        return cls(
            family=family,
            config=config,
            r=r,
            entries=entries,
            set_size=int(set_size if set_size is not None
                         else stored.size + len(placement.failed)),
            failed=tuple(int(x) for x in placement.failed),
            stats=placement.stats,
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def stored_count(self) -> int:
        """Number of elements actually represented (set size minus failed insertions)."""
        return self.set_size - len(self.failed)

    def contains(self, element: int) -> bool:
        """Membership test by probing the element's three candidate slots.

        Elements whose cuckoo insertion failed carry no stored copies but are
        still members of the represented set (they count towards
        ``set_size``/``len`` and are re-added by the repair path), so the
        failed list is consulted before probing.
        """
        if element < 0 or element >= self.family.universe_size:
            return False
        if int(element) in self.failed:
            return True
        x = np.array([int(element)], dtype=np.int64)
        for t in range(3):
            p = int(self.family.positions(t, x, self.r)[0])
            entry = int(self.entries[t, p])
            if entry == 0:
                continue
            payload = entry & self.config.payload_mask
            if payload == int(self.family.payloads(t, x)[0]):
                return True
        return False

    def decode_elements(self) -> np.ndarray:
        """Recover the sorted set of stored element ids.

        Fully vectorised (one decode pass per table, one ``np.unique`` merge):
        the multiway probe path enumerates pivot candidates through this, so
        it is a serving-path operation, not just a debugging aid.
        """
        per_table = []
        for t in range(3):
            positions = np.nonzero(self.entries[t] != 0)[0]
            if positions.size == 0:
                continue
            payloads = self.entries[t, positions].astype(np.int64) & self.config.payload_mask
            per_table.append(self.family.decode(t, payloads, positions, self.r))
        if not per_table:
            return np.zeros(0, dtype=np.int64)
        return np.unique(np.concatenate(per_table))

    # ------------------------------------------------------------------ #
    # Layout / packing
    # ------------------------------------------------------------------ #
    @cached_property
    def packed_rows(self) -> np.ndarray:
        """Rows packed into 32-bit words, shape ``(3, ceil(r / 4))``.

        Rows shorter than four entries are zero-padded; NULL entries never
        match anything, so padding cannot change any intersection count.
        """
        if self.entries.dtype != np.uint8:
            raise LayoutError(
                f"packed word layout requires one-byte entries; "
                f"payload_bits={self.config.payload_bits} stores "
                f"{self.config.entry_dtype} — use the byte-wise comparison path"
            )
        r_padded = max(4, ((self.r + 3) // 4) * 4)
        padded = np.zeros((3, r_padded), dtype=np.uint8)
        padded[:, : self.r] = self.entries
        return np.stack([pack_bytes_to_words(padded[t]) for t in range(3)], axis=0)

    def device_array(self, r0: int) -> np.ndarray:
        """Flat byte array in the interleaved device layout of Figure 4.

        ``r0`` is the collection-wide block granularity (the smallest range in
        the collection); folding a position of a larger batmap onto a smaller
        one is then ``position mod (3 * r_small)``.
        """
        require(r0 <= self.r, f"r0 ({r0}) must not exceed r ({self.r})")
        if self.entries.dtype != np.uint8:
            raise LayoutError(
                "the interleaved device layout packs one byte per slot; "
                f"payload_bits={self.config.payload_bits} does not fit"
            )
        out = np.zeros(3 * self.r, dtype=np.uint8)
        blocks = self.r // r0
        for t in range(3):
            row = self.entries[t].reshape(blocks, r0)
            # block q of the device array holds [h1 slice | h2 slice | h3 slice]
            out.reshape(blocks, 3 * r0)[:, t * r0:(t + 1) * r0] = row
        return out

    @property
    def memory_bytes(self) -> int:
        """Size of the compressed representation (one storage unit per slot)."""
        return 3 * self.r * self.entries.dtype.itemsize

    @property
    def width_words(self) -> int:
        """Packed width per row in 32-bit words."""
        return int(self.packed_rows.shape[1])

    def density(self) -> float:
        """Set density |S| / m as defined in the paper."""
        return self.set_size / self.family.universe_size

    def __len__(self) -> int:
        return self.set_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Batmap(size={self.set_size}, r={self.r}, failed={len(self.failed)}, "
            f"bytes={self.memory_bytes})"
        )


def build_batmap(
    elements,
    universe_size: int,
    *,
    family: HashFamily | None = None,
    config: BatmapConfig = DEFAULT_CONFIG,
    r: int | None = None,
    rng: RngLike = None,
    on_failure: str = "record",
) -> Batmap:
    """Convenience constructor: build a single batmap for one set.

    When comparing many sets, build one :class:`HashFamily` (or use
    :class:`repro.core.collection.BatmapCollection`) and pass it in so that
    all batmaps share the same hash functions — batmaps built from different
    families are not comparable.
    """
    elements = np.unique(np.asarray(
        list(elements) if not isinstance(elements, np.ndarray) else elements,
        dtype=np.int64,
    ))
    if family is None:
        shift = config.shift_for_universe(universe_size)
        family = HashFamily.create(universe_size, shift=shift, rng=rng)
    else:
        require(family.universe_size == universe_size,
                "family universe size does not match universe_size")
    if r is None:
        r = config.range_for_size(int(elements.size), universe_size)
    placement = place_set(elements, family, r, config, on_failure=on_failure)
    return Batmap.from_placement(placement, family, config, set_size=int(elements.size))
