"""Vectorised level-``k`` candidate support counting over a packed bitmap.

The levelwise phase of :class:`~repro.mining.itemsets.BatmapItemsetMiner`
(levels >= 3, after the batmap pipeline has produced the frequent pairs)
used to count candidate supports by scanning every transaction with a Python
``set.issuperset`` probe per candidate — ``O(transactions * candidates)``
interpreter-level work that dwarfed the vectorised pair phase on any
non-trivial database.

This module replaces that scan:

* :class:`TransactionBitmap` packs the database once into an
  ``(n_items, ceil(n_transactions / 64))`` ``uint64`` matrix — bit ``b`` of
  word ``w`` of row ``i`` is set iff transaction ``64 w + b`` contains item
  ``i`` (the vertical tidlist format, as a bitset);
* the support of a candidate itemset is then the popcount of the AND of its
  item rows, and a whole level of candidates is answered with one broadcast
  AND + popcount pass per item column (:func:`count_candidate_supports`),
  chunked to bound peak memory;
* for large levels the candidate list is cut into chunks counted on a
  :class:`~repro.core.batch.TilePool` of threads over the one bitmap (NumPy
  releases the GIL inside the AND and popcount passes), with the
  batch/parallel choice made by :func:`repro.core.plan.plan_levelwise`.

:func:`scan_supports` keeps the original transaction scan as the correctness
oracle; the property tests assert bit-identity between all three paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.plan import plan_levelwise
from repro.datasets.transactions import TransactionDatabase
from repro.utils.bits import popcount_array
from repro.utils.validation import require

__all__ = [
    "TransactionBitmap",
    "count_candidate_supports",
    "scan_supports",
    "LEVELWISE_CHUNK_WORDS",
]

#: Upper bound on the uint64 words one AND/popcount pass materialises; the
#: candidate axis is chunked to stay below it (same cache-residency reasoning
#: as :data:`repro.core.batch.DEFAULT_BLOCK_WORDS`).
LEVELWISE_CHUNK_WORDS = 1 << 17

# NumPy >= 2.0 ships a native popcount ufunc; older versions fall back to
# the shared per-byte lookup helper of repro.utils.bits over a uint32 view.
_BITWISE_COUNT = getattr(np, "bitwise_count", None)


def _popcount_rows(words: np.ndarray) -> np.ndarray:
    """Total popcount per row of a ``(n, w)`` ``uint64`` matrix, as int64."""
    if _BITWISE_COUNT is not None:
        return _BITWISE_COUNT(words).sum(axis=-1, dtype=np.int64)
    as32 = words.reshape(words.shape[0], -1).view(np.uint32)
    return popcount_array(as32).sum(axis=-1, dtype=np.int64)


@dataclass(frozen=True)
class TransactionBitmap:
    """The database as one packed bitset per item (vertical format).

    ``words[i]`` is the transaction bitset of item ``i``; candidate supports
    are AND + popcount over rows.  Built once per mining run and shared by
    every level.
    """

    words: np.ndarray        #: (n_items, n_words) uint64
    n_transactions: int

    def __post_init__(self) -> None:
        require(self.words.ndim == 2, "bitmap words must be 2-D")
        require(self.words.dtype == np.uint64, "bitmap words must be uint64")

    @property
    def n_items(self) -> int:
        return int(self.words.shape[0])

    @property
    def n_words(self) -> int:
        return int(self.words.shape[1])

    @property
    def nbytes(self) -> int:
        return int(self.words.nbytes)

    @classmethod
    def from_database(cls, database: TransactionDatabase) -> "TransactionBitmap":
        n_words = max(1, -(-database.n_transactions // 64))
        words = np.zeros((database.n_items, n_words), dtype=np.uint64)
        for tid, items in enumerate(database.transactions):
            if items.size:
                words[items, tid >> 6] |= np.uint64(1 << (tid & 63))
        return cls(words=words, n_transactions=database.n_transactions)


def _supports_dense(words: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """AND the item rows of each candidate and popcount — one pass per column."""
    acc = words[candidates[:, 0]].copy()
    for col in range(1, candidates.shape[1]):
        acc &= words[candidates[:, col]]
    return _popcount_rows(acc)


def _supports_chunked(words: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    n_words = words.shape[1]
    chunk = max(1, LEVELWISE_CHUNK_WORDS // max(1, n_words))
    out = np.empty(candidates.shape[0], dtype=np.int64)
    for start in range(0, candidates.shape[0], chunk):
        stop = min(candidates.shape[0], start + chunk)
        out[start:stop] = _supports_dense(words, candidates[start:stop])
    return out


def _count_parallel(bitmap: TransactionBitmap, candidates: np.ndarray,
                    workers: int | None) -> np.ndarray:
    from repro.core.batch import TilePool
    from repro.parallel.executor import resolve_worker_count

    n_workers = resolve_worker_count(workers)
    total = candidates.shape[0]
    chunk = max(1, -(-total // (4 * n_workers)))
    out = np.empty(total, dtype=np.int64)

    def count(start: int) -> np.ndarray:
        return _supports_chunked(bitmap.words, candidates[start:start + chunk])

    with TilePool(n_workers) as pool:
        for start, counts in pool.map(count, range(0, total, chunk)):
            out[start:start + counts.size] = counts
    return out


# --------------------------------------------------------------------------- #
# Public API
# --------------------------------------------------------------------------- #
def count_candidate_supports(
    bitmap: TransactionBitmap,
    candidates,
    *,
    compute: str = "auto",
    workers: int | None = None,
) -> np.ndarray:
    """Support of every candidate itemset, as an ``int64`` array.

    ``candidates`` is array-like of shape ``(n_candidates, k)`` with item
    ids; every candidate of one call must have the same size ``k`` (the
    levelwise driver calls once per level).  ``compute`` is ``"auto"``
    (planner decides), ``"batch"`` (serial vectorised pass) or
    ``"parallel"`` (candidate chunks on a pool of threads).
    """
    require(compute in ("auto", "batch", "parallel"),
            f"compute must be 'auto', 'batch' or 'parallel', got {compute!r}")
    candidates = np.asarray(candidates, dtype=np.int64)
    require(candidates.ndim == 2 and candidates.shape[1] >= 1,
            f"candidates must have shape (n, k >= 1), got {candidates.shape}")
    if candidates.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    if candidates.size and (candidates.min() < 0 or candidates.max() >= bitmap.n_items):
        raise ValueError("candidate item id out of range for the bitmap")

    if compute == "auto":
        backend = plan_levelwise(candidates.shape[0], bitmap.n_words,
                                 workers=workers).backend
    else:
        backend = compute
    if backend == "parallel":
        return _count_parallel(bitmap, candidates, workers)
    return _supports_chunked(bitmap.words, candidates)


def scan_supports(transactions, candidates) -> np.ndarray:
    """The per-transaction Python scan the bitmap counter replaced.

    Kept as the correctness oracle: the property tests assert the vectorised
    and parallel paths are bit-identical to this on random databases.
    ``transactions`` may be item-id arrays or prebuilt ``set`` objects —
    callers scanning several levels should prebuild the sets once.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    require(candidates.ndim == 2 and candidates.shape[1] >= 1,
            f"candidates must have shape (n, k >= 1), got {candidates.shape}")
    k = candidates.shape[1]
    tuples = [tuple(c) for c in candidates.tolist()]
    out = np.zeros(len(tuples), dtype=np.int64)
    for t in transactions:
        t_set = t if isinstance(t, (set, frozenset)) else set(np.asarray(t).tolist())
        if len(t_set) < k:
            continue
        for idx, candidate in enumerate(tuples):
            if t_set.issuperset(candidate):
                out[idx] += 1
    return out
