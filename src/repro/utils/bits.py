"""Bit-level helpers used across the BATMAP implementation.

The compressed batmap layout packs four 8-bit entries into one 32-bit word
(Section III-A of the paper), so the library needs fast, vectorised helpers
for power-of-two arithmetic, population counts and byte<->word packing.
All array functions are pure NumPy and operate on ``uint32``/``uint8``;
NumPy loads when one of them first runs, so the integer helpers cost a
NumPy-free command nothing.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "next_power_of_two",
    "is_power_of_two",
    "ilog2",
    "popcount32",
    "popcount_array",
    "pack_bytes_to_words",
    "unpack_words_to_bytes",
]


def next_power_of_two(n: int) -> int:
    """Return the smallest power of two ``>= n`` (with ``next_power_of_two(0) == 1``).

    The batmap hash ranges :math:`r_i` are required to be powers of two so
    that the range-nesting property ``h mod r_i == (h mod r_j) mod r_i``
    holds for ``r_i <= r_j`` (Section II of the paper).
    """
    if n < 0:
        raise ValueError(f"next_power_of_two requires n >= 0, got {n}")
    if n <= 1:
        return 1
    return 1 << (int(n) - 1).bit_length()


def is_power_of_two(n: int) -> bool:
    """Return ``True`` iff ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def ilog2(n: int) -> int:
    """Return ``log2(n)`` for a positive power of two ``n``.

    Raises :class:`ValueError` if ``n`` is not a power of two, because a
    silent floor would corrupt the compression shift computation.
    """
    if not is_power_of_two(n):
        raise ValueError(f"ilog2 requires a positive power of two, got {n}")
    return int(n).bit_length() - 1


@lru_cache(maxsize=None)
def _popcount_table() -> np.ndarray:
    """Lookup table for per-byte popcounts; used to count matches in packed words."""
    import numpy as np

    return np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount32(x: int) -> int:
    """Population count of a single non-negative integer (< 2**32)."""
    if x < 0 or x > 0xFFFFFFFF:
        raise ValueError(f"popcount32 requires 0 <= x < 2**32, got {x}")
    return bin(int(x)).count("1")


def popcount_array(words: np.ndarray) -> np.ndarray:
    """Vectorised popcount of a ``uint32`` array, returned as ``uint32``.

    Splits each word into its four bytes and sums table lookups; this is the
    standard NumPy idiom since there is no native popcount ufunc.
    """
    import numpy as np

    words = np.asarray(words, dtype=np.uint32)
    b = words.view(np.uint8).reshape(words.shape + (4,))
    return _popcount_table()[b].sum(axis=-1, dtype=np.uint32)


def pack_bytes_to_words(entries: np.ndarray) -> np.ndarray:
    """Pack a ``uint8`` array (length multiple of 4) into little-endian ``uint32`` words.

    Entry ``i`` of the byte array becomes byte ``i % 4`` of word ``i // 4``,
    matching the paper's "4 elements per 32-bit integer" packing.
    """
    import numpy as np

    entries = np.ascontiguousarray(entries, dtype=np.uint8)
    if entries.size % 4 != 0:
        raise ValueError(
            f"byte array length must be a multiple of 4, got {entries.size}"
        )
    return entries.view("<u4").copy()


def unpack_words_to_bytes(words: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_bytes_to_words`."""
    import numpy as np

    words = np.ascontiguousarray(words, dtype="<u4")
    return words.view(np.uint8).copy()
