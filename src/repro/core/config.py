"""Configuration of the batmap layout and cuckoo construction.

The knobs here correspond directly to choices made in the paper:

* ``range_multiplier`` — the hash range is a power of two at least
  ``range_multiplier * |S|``; the paper uses ``2 * 2**ceil(log2(|S|))``
  (Section IV, "Throughput computation") and the analysis requires
  ``r >= (2 + eps) * n`` (Section II-B).
* ``max_loop`` — the MaxLoop bound of the INSERT procedure (Section II-A).
* ``payload_bits`` — bits kept from the permuted element id; the paper keeps
  the 7 most significant bits and 1 indicator bit per entry (Section III-A).
* ``entry_bits`` — total bits per batmap entry; 8 in the compressed layout so
  four entries pack into a 32-bit word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

from repro.utils.bits import next_power_of_two
from repro.utils.validation import require, require_positive

if TYPE_CHECKING:  # NumPy loads only where an entry dtype is asked for
    import numpy as np


@dataclass(frozen=True)
class BatmapConfig:
    """Parameters controlling batmap construction and layout.

    Attributes
    ----------
    range_multiplier:
        Lower bound on ``r / |S|`` before rounding up to a power of two.
        The cuckoo failure analysis of Section II-B assumes a value of at
        least 2; smaller values (down to 1.0) are allowed — they trade space
        for more failed insertions, which the repair path of the mining
        pipeline handles exactly — but void the O(1/eps) insertion-time bound.
    max_loop:
        Maximum number of element moves in one cuckoo insertion before it is
        declared failed.  ``None`` selects the adaptive default
        ``max(32, 8 * ceil(log2(r + 1)))``.
    payload_bits:
        Number of significant bits of the permuted element stored per entry.
        The remaining low-order bits are implied by the entry's position.
    seed:
        Seed for the three hash permutations.
    """

    range_multiplier: float = 2.0
    max_loop: int | None = None
    payload_bits: int = 7
    seed: int = 0x5EED_BA7

    #: Number of hash tables (rows); the paper's scheme is 2-of-3.
    num_tables: int = field(default=3, init=False)
    #: Copies stored per element.
    copies: int = field(default=2, init=False)

    def __post_init__(self) -> None:
        require(self.range_multiplier >= 1.0,
                f"range_multiplier must be >= 1, got {self.range_multiplier}")
        require(1 <= self.payload_bits <= 31,
                f"payload_bits must be in [1, 31], got {self.payload_bits}")
        if self.max_loop is not None:
            require_positive(self.max_loop, "max_loop")

    @property
    def entry_bits(self) -> int:
        """Bits per stored entry: payload plus the cyclic-order indicator bit."""
        return self.payload_bits + 1

    @property
    def is_byte_packed(self) -> bool:
        """True when entries are exactly one byte, enabling the SWAR word tricks."""
        return self.entry_bits == 8

    @property
    def entry_storage_bits(self) -> int:
        """Bits of the unsigned integer an entry is *stored* in (8, 16 or 32).

        Entries are kept in the smallest machine dtype that fits
        :attr:`entry_bits`; narrower-than-default payloads (< 7 bits) still
        occupy one byte, so every ``payload_bits <= 7`` layout stays
        compatible with the packed SWAR comparison paths.
        """
        for bits in (8, 16, 32):
            if self.entry_bits <= bits:
                return bits
        raise AssertionError("entry_bits > 32 is rejected by __post_init__")

    @cached_property
    def entry_dtype(self) -> np.dtype:
        """NumPy dtype backing the entries array (uint8/uint16/uint32).

        Cached: every batmap checks its entries against it on creation.
        """
        import numpy as np

        return np.dtype(f"uint{self.entry_storage_bits}")

    @property
    def payload_mask(self) -> int:
        """Mask extracting the payload from a stored entry.

        Derived from :attr:`payload_bits` — the single source every decode /
        membership / comparison path must use.  (The seed hardcoded ``0x7F``
        in several places, silently corrupting any non-default width.)
        """
        return (1 << self.payload_bits) - 1

    @property
    def indicator_shift(self) -> int:
        """Bit position of the cyclic-order indicator: the storage dtype's top bit.

        Pinning the indicator to the *storage* top bit (not bit
        ``payload_bits``) keeps every ``payload_bits <= 7`` layout
        bit-compatible with the byte-packed SWAR engines, whose masks assume
        bit 7.
        """
        return self.entry_storage_bits - 1

    @property
    def indicator_mask(self) -> int:
        """Mask selecting the indicator bit of a stored entry."""
        return 1 << self.indicator_shift

    def shift_for_universe(self, universe_size: int) -> int:
        """Number of low-order bits ``s`` dropped from permuted ids for universe ``{0..m-1}``.

        Chosen as the smallest ``s`` such that ``(m - 1) >> s`` fits in
        ``payload_bits`` bits *with one codepoint reserved for NULL*
        (the all-zero byte).  The paper reserves no explicit NULL codepoint;
        we shift by one extra unit of headroom when needed so that empty
        slots can never collide with a stored value — see DESIGN.md.
        """
        require_positive(universe_size, "universe_size")
        max_payload = (1 << self.payload_bits) - 2  # reserve 0 for NULL
        s = 0
        while ((universe_size - 1) >> s) > max_payload:
            s += 1
        return s

    def universe_capacity(self, universe_size: int) -> int:
        """Largest universe that shares ``universe_size``'s compression shift.

        ``payload_mask << s`` is exactly the largest ``m`` with
        ``shift_for_universe(m) == s``.  An extensible hash family built over
        this capacity can absorb any universe growth up to it without
        changing the payload compression — and therefore without re-placing
        a single already-built set.
        """
        return self.payload_mask << self.shift_for_universe(universe_size)

    def min_range(self, universe_size: int) -> int:
        """Smallest admissible hash range for this universe (the compression floor ``2**s``)."""
        return max(1, 1 << self.shift_for_universe(universe_size))

    def range_for_size(self, set_size: int, universe_size: int) -> int:
        """Hash range ``r`` for a set of ``set_size`` elements over ``{0..m-1}``.

        A power of two, at least ``range_multiplier * set_size`` and at least
        the compression floor ``2**s``.  Empty sets get the floor.
        """
        require(set_size >= 0, f"set_size must be >= 0, got {set_size}")
        floor = self.min_range(universe_size)
        if set_size == 0:
            return floor
        needed = next_power_of_two(math.ceil(self.range_multiplier * set_size))
        return max(needed, floor)

    def effective_max_loop(self, r: int) -> int:
        """MaxLoop bound actually used for a table of range ``r``."""
        if self.max_loop is not None:
            return self.max_loop
        return max(32, 8 * (int(r).bit_length()))

    def with_(self, **kwargs) -> "BatmapConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = BatmapConfig()
