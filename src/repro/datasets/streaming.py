"""Bounded-memory chunked readers over FIMI transaction streams.

The out-of-core pipeline's whole point is that the database never fits, so
this module streams the FIMI format with a resident set bounded by one
chunk:

* :func:`iter_fimi_chunks` — yields :class:`FimiChunk` batches of parsed
  transactions as CSR arrays (at most ``chunk_transactions`` per chunk),
  preserving the global transaction ids;
* :func:`scan_fimi_stats` — one streaming pass computing exactly the
  aggregates the mining planner needs before any batmap exists
  (transaction count, item-id range, occurrence total, per-item supports);
* :func:`collect_transactions` — one streaming pass extracting a *sparse*
  subset of transactions by id (the repair phase needs the handful of
  transactions whose cuckoo insertions failed, not the whole database).

The file is read in newline-aligned byte blocks sized from the chunk caps
and parsed by :func:`~repro.datasets.fimi_io.parse_fimi_block`; the
in-memory reader (:func:`~repro.datasets.fimi_io.read_fimi`) concatenates
this same chunk stream, so a file parses to the same transactions on both
paths — the foundation of the sharded pipeline's bit-identity guarantee.
Malformed lines raise :class:`~repro.core.errors.DataFormatError` (a
``DatasetError``) naming the file and line, once every transaction before
them has been delivered.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.datasets.fimi_io import iter_fimi_blocks
from repro.datasets.transactions import row_offsets, split_rows
from repro.utils.validation import require_positive

__all__ = [
    "DEFAULT_CHUNK_TRANSACTIONS",
    "DEFAULT_CHUNK_ITEMS",
    "FimiChunk",
    "FimiStats",
    "iter_fimi_chunks",
    "scan_fimi_stats",
    "collect_transactions",
]

#: Default transactions per chunk.
DEFAULT_CHUNK_TRANSACTIONS = 8192

#: Occurrence cap per chunk — the binding limit for *long* transactions.  A
#: chunk flushes when either cap is reached.
DEFAULT_CHUNK_ITEMS = 1 << 16

#: Input bytes read per block, per occurrence of the chunk's item cap.  The
#: block parser's temporaries peak at ~16 bytes per input byte, so a block
#: stays within a small multiple of one chunk's own arrays.
BLOCK_BYTES_PER_ITEM = 2
MIN_BLOCK_BYTES = 1 << 14


@dataclass(frozen=True, eq=False)
class FimiChunk:
    """A contiguous batch of parsed transactions from one stream, as CSR arrays.

    ``indices[indptr[k]:indptr[k + 1]]`` is the sorted duplicate-free item
    array of global transaction id ``start_tid + k`` — ids are global to the
    stream, so a consumer can partition occurrences without ever seeing the
    whole file.
    """

    start_tid: int
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n_transactions(self) -> int:
        return self.indptr.size - 1

    @property
    def end_tid(self) -> int:
        """One past the last transaction id in this chunk."""
        return self.start_tid + self.n_transactions

    def tids(self) -> np.ndarray:
        return np.arange(self.start_tid, self.end_tid, dtype=np.int64)

    def occurrence_tids(self) -> np.ndarray:
        """The global transaction id of every entry of ``indices``."""
        return np.repeat(self.tids(), np.diff(self.indptr))

    @cached_property
    def transactions(self) -> list:
        """The rows as views into ``indices``."""
        return split_rows(self.indptr, self.indices)


def _source_name(source) -> str:
    if isinstance(source, (str, Path)):
        return Path(source).stem
    return "fimi"


def _chunk_end(ends: np.ndarray, row: int, chunk_transactions: int,
               chunk_items: int) -> int | None:
    """Where the chunk starting at ``row`` ends, or ``None`` if it is still open.

    ``ends`` is the running occurrence total of the pending rows; a chunk
    closes at the row that reaches either cap.
    """
    base = int(ends[row - 1]) if row else 0
    cut = row + chunk_transactions
    reached = int(np.searchsorted(ends, base + chunk_items))
    if reached < ends.size:
        cut = min(cut, reached + 1)
    return cut if cut <= ends.size else None


def iter_fimi_chunks(
    source: str | Path | Iterable[str],
    *,
    chunk_transactions: int = DEFAULT_CHUNK_TRANSACTIONS,
    chunk_items: int = DEFAULT_CHUNK_ITEMS,
    max_transactions: int | None = None,
    name: str | None = None,
) -> Iterator[FimiChunk]:
    """Stream a FIMI file (or iterable of lines) as :class:`FimiChunk` batches.

    A chunk flushes at ``chunk_transactions`` parsed transactions or
    ``chunk_items`` total occurrences, whichever comes first — the two caps
    bound resident memory for short and long transactions alike.  Blank
    lines and comments are skipped without consuming a transaction id,
    exactly as the in-memory reader does.  An empty input yields no chunks
    (the *consumer* decides whether that is an error — aggregation passes
    want to distinguish "empty file" from "short file").
    """
    require_positive(chunk_transactions, "chunk_transactions")
    require_positive(chunk_items, "chunk_items")
    name = name if name is not None else _source_name(source)
    block_bytes = max(MIN_BLOCK_BYTES, BLOCK_BYTES_PER_ITEM * chunk_items)
    start_tid = 0
    lengths = np.zeros(0, dtype=np.int64)      # rows parsed but not yet yielded
    indices = np.zeros(0, dtype=np.int64)
    for block in iter_fimi_blocks(source, block_bytes=block_bytes, name=name):
        block_lengths, block_indices = np.diff(block.indptr), block.indices
        full = False
        if max_transactions is not None:
            room = max_transactions - start_tid - lengths.size
            full = block_lengths.size >= room
            if full:
                block_lengths = block_lengths[:room]
                block_indices = block_indices[:block.indptr[room]]
        lengths = np.concatenate([lengths, block_lengths])
        indices = np.concatenate([indices, block_indices])
        ends = np.cumsum(lengths)
        row = item = 0
        while (cut := _chunk_end(ends, row, chunk_transactions, chunk_items)) is not None:
            yield FimiChunk(start_tid, row_offsets(lengths[row:cut]),
                            indices[item:ends[cut - 1]])
            start_tid += cut - row
            row, item = cut, int(ends[cut - 1])
        lengths, indices = lengths[row:], indices[item:]
        if full:
            break
        if block.error is not None:
            raise block.error
    if lengths.size:
        yield FimiChunk(start_tid, row_offsets(lengths), indices)


@dataclass
class FimiStats:
    """Aggregates of one streaming pass — the planner's view of a dataset.

    Everything the out-of-core pipeline must know *before* building any
    batmap: the element universe (``n_transactions``), the item-id range,
    the instance size, and per-item supports (each item's tidlist length —
    which fixes its hash range and therefore its packed width).
    """

    name: str
    n_transactions: int
    n_items: int                 #: max item id + 1 (0 for an empty stream)
    total_items: int             #: occurrence count — the paper's instance size
    item_supports: np.ndarray    #: shape (n_items,) tidlist length per item

    @property
    def density(self) -> float:
        cells = self.n_transactions * self.n_items
        return self.total_items / cells if cells else 0.0


def scan_fimi_stats(
    source: str | Path | Iterable[str],
    *,
    chunk_transactions: int = DEFAULT_CHUNK_TRANSACTIONS,
    chunk_items: int = DEFAULT_CHUNK_ITEMS,
    max_transactions: int | None = None,
    name: str | None = None,
) -> FimiStats:
    """One bounded-memory pass computing :class:`FimiStats` for a stream.

    Resident memory is one chunk plus one ``int64`` array of length
    ``max_item_id + 1`` (grown geometrically as larger ids appear).
    """
    name = name if name is not None else _source_name(source)
    supports = np.zeros(1024, dtype=np.int64)
    n_items = 0
    n_transactions = 0
    total_items = 0
    for chunk in iter_fimi_chunks(
        source,
        chunk_transactions=chunk_transactions,
        chunk_items=chunk_items,
        max_transactions=max_transactions,
        name=name,
    ):
        n_transactions = chunk.end_tid
        total_items += chunk.indices.size
        counts = np.bincount(chunk.indices)
        if counts.size > supports.size:
            grown = np.zeros(max(counts.size, 2 * supports.size), dtype=np.int64)
            grown[:supports.size] = supports
            supports = grown
        supports[:counts.size] += counts
        n_items = max(n_items, counts.size)
    return FimiStats(
        name=name,
        n_transactions=n_transactions,
        n_items=n_items,
        total_items=total_items,
        item_supports=supports[:n_items].copy(),
    )


def collect_transactions(
    source: str | Path | Iterable[str],
    tids,
    *,
    chunk_transactions: int = DEFAULT_CHUNK_TRANSACTIONS,
    chunk_items: int = DEFAULT_CHUNK_ITEMS,
    max_transactions: int | None = None,
    name: str | None = None,
) -> dict:
    """Extract the transactions with the given global ids in one streaming pass.

    Returns ``{tid: sorted item array}``; memory is bounded by one chunk
    plus the requested transactions (the repair phase requests only the few
    tids with failed insertions).  Missing tids are simply absent from the
    result.
    """
    wanted = np.unique(np.fromiter((int(t) for t in tids), dtype=np.int64))
    out: dict[int, np.ndarray] = {}
    if not wanted.size:
        return out
    for chunk in iter_fimi_chunks(
        source,
        chunk_transactions=chunk_transactions,
        chunk_items=chunk_items,
        max_transactions=max_transactions,
        name=name,
    ):
        if chunk.start_tid > wanted[-1]:
            break
        lo, hi = np.searchsorted(wanted, [chunk.start_tid, chunk.end_tid])
        for tid in wanted[lo:hi].tolist():
            k = tid - chunk.start_tid
            out[tid] = chunk.indices[chunk.indptr[k]:chunk.indptr[k + 1]].copy()
    return out
