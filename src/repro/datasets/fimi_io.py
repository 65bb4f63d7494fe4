"""Reading and writing the FIMI repository's transaction text format.

The Frequent Itemset Mining Implementations repository (fimi.cs.helsinki.fi),
from which the paper takes WebDocs, stores one transaction per line as
whitespace-separated integer item ids.  This module reads and writes that
format so users can run the pipeline on real FIMI datasets when they have
them locally.

Grammar (``docs/file-formats.md``, "FIMI input"): item ids are runs of at
most :data:`MAX_ID_DIGITS` ASCII digits separated by spaces, tabs, CR, VT or
FF; LF ends a line.  A line whose first non-blank byte is ``#`` is a comment
and may hold any bytes.  Blank lines and comments are skipped, and every
other line is one transaction whose id is its ordinal among such lines.

One vectorised parser, :func:`parse_fimi_block`, turns a block of file
bytes into CSR arrays (``indptr``, ``indices``): byte-class masks, token
start/end positions from the digit mask, token values by Horner's rule over
those positions, rows cut at the line ends, and one sort + dedup only for
rows that are not already strictly increasing.  The chunked readers of
:mod:`repro.datasets.streaming` feed it newline-aligned blocks, and
:func:`read_fimi` is the concatenation of that same chunk stream, so the
in-memory and out-of-core paths cannot drift apart.

All readers raise :class:`~repro.core.errors.DataFormatError` (a
:class:`~repro.core.errors.DatasetError`) naming the source and line on
malformed input — no ``ValueError``, ``OverflowError`` or
``UnicodeDecodeError`` traceback escapes to the caller.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

import numpy as np

from repro.core.errors import DataFormatError
from repro.datasets.fimi_grammar import MAX_ID_DIGITS
from repro.datasets.transactions import (
    TransactionDatabase,
    canonical_rows,
    row_offsets,
    split_rows,
)

__all__ = [
    "MAX_ID_DIGITS",
    "FimiRows",
    "parse_fimi_block",
    "iter_fimi_blocks",
    "read_fimi_arrays",
    "read_sets_arrays",
    "read_fimi",
    "write_fimi",
    "parse_fimi_lines",
    "parse_fimi_line",
]

_BLANK_BYTES = b" \t\r\x0b\x0c"


class FimiRows(NamedTuple):
    """The transactions of one parsed block, as CSR arrays.

    ``indices[indptr[t]:indptr[t + 1]]`` is the block's ``t``-th
    transaction, sorted and duplicate-free.  When the block holds a
    malformed line, the rows stop before it and ``error`` describes it: the
    consumer raises it once it has used the rows, so a reader that stops
    earlier (``max_transactions``, a sparse extraction) never reports a line
    it did not need.
    """

    indptr: np.ndarray
    indices: np.ndarray
    error: DataFormatError | None


def parse_fimi_block(data: bytes, *, first_line: int = 1,
                     source: str = "fimi") -> FimiRows:
    """Parse whole FIMI lines into CSR rows; ``first_line`` numbers the first one."""
    buf = np.frombuffer(data, dtype=np.uint8)
    # uint8 arithmetic wraps: only '0'..'9' land below 10, only TAB..CR below 5
    digit = (buf - 48) < 10
    valid = digit | ((buf - 9) < 5) | (buf == 32)
    end, error = buf.size, None
    if not valid.all():
        end, error = _clear_comments(data, np.flatnonzero(~valid), digit,
                                     first_line, source)

    padded = np.zeros(end + 2, dtype=bool)
    padded[1:-1] = digit[:end]
    # Digit runs alternate: a token's first digit, then one past its last.
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    starts = edges[::2]
    lengths = edges[1::2] - starts
    too_long = np.flatnonzero(lengths > MAX_ID_DIGITS)
    if too_long.size:
        pos = int(starts[too_long[0]])
        end = data.rfind(b"\n", 0, pos) + 1
        lineno = first_line + data.count(b"\n", 0, end)
        token = data[pos:pos + int(lengths[too_long[0]])].decode()
        error = DataFormatError(f"{source}: line {lineno}: item id {token} has "
                                f"more than {MAX_ID_DIGITS} digits")
        keep = int(np.searchsorted(starts, end))
        starts, lengths = starts[:keep], lengths[:keep]

    # Each line end cuts the token sequence; lines without tokens cut nothing new.
    cuts = np.concatenate(([0], np.searchsorted(starts, np.flatnonzero(buf[:end] == 10)),
                           [starts.size]))
    indptr = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
    indptr, indices = canonical_rows(indptr, _token_values(buf, starts, lengths))
    return FimiRows(indptr, indices, error)


def _token_values(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Decimal values of the digit runs ``buf[starts[k]:starts[k] + lengths[k]]``.

    Horner's rule, one digit position per step: over every token while most
    are still running, then over the indices of the few long ones.
    """
    values = buf[starts].astype(np.int64) - 48
    k = 1
    while 4 * np.count_nonzero(lengths > k) >= starts.size > 0:
        digits = buf.take(starts + k, mode="clip")
        values = np.where(lengths > k, values * 10 + digits - 48, values)
        k += 1
    longer = np.flatnonzero(lengths > k)
    while longer.size:
        values[longer] = values[longer] * 10 + (buf[starts[longer] + k] - 48)
        k += 1
        longer = longer[lengths[longer] > k]
    return values


def _clear_comments(data: bytes, irregular: np.ndarray, digit: np.ndarray,
                    first_line: int, source: str) -> tuple:
    """Clear comment lines from ``digit``; find the first malformed line.

    ``irregular`` holds the positions of bytes outside the grammar's
    classes.  Returns the offset where the first malformed line starts
    (``len(data)`` if there is none) and its error.
    """
    i = 0
    while i < irregular.size:
        pos = int(irregular[i])
        start = data.rfind(b"\n", 0, pos) + 1
        stop = data.find(b"\n", pos)
        stop = len(data) if stop < 0 else stop
        line = data[start:stop]
        if not line.lstrip(_BLANK_BYTES).startswith(b"#"):
            lineno = first_line + data.count(b"\n", 0, start)
            return start, _line_error(line, lineno, source)
        digit[start:stop] = False
        i = int(np.searchsorted(irregular, stop))
    return len(data), None


def _line_error(line: bytes, lineno: int, source: str) -> DataFormatError:
    bad = [token for token in line.split() if not token.isdigit()]
    if all(token[:1] == b"-" and token[1:].isdigit() for token in bad):
        return DataFormatError(f"{source}: line {lineno}: negative item id")
    text = line.decode("utf-8", "backslashreplace").strip()
    return DataFormatError(f"{source}: line {lineno}: non-integer token in {text!r}")


def _newline_blocks(source, block_bytes: int) -> Iterator[bytes]:
    """The source's bytes in blocks of about ``block_bytes`` that end at a line end."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            carry = b""
            while True:
                data = handle.read(block_bytes)
                if not data:
                    break
                data = carry + data
                cut = data.rfind(b"\n") + 1
                carry = data[cut:]
                if cut:
                    yield data[:cut]
            if carry:
                yield carry
        return
    lines: list[bytes] = []
    size = 0
    for line in source:
        if isinstance(line, str):
            line = line.encode("utf-8", "surrogateescape")
        if line.endswith(b"\n"):
            line = line[:-1]
        lines.append(line)
        size += len(line) + 1
        if size >= block_bytes:
            yield b"\n".join(lines) + b"\n"
            lines, size = [], 0
    if lines:
        yield b"\n".join(lines) + b"\n"


def iter_fimi_blocks(source: str | Path | Iterable, *, block_bytes: int,
                     name: str) -> Iterator[FimiRows]:
    """Parse a FIMI file (or an iterable of ``str``/``bytes`` lines) block by block.

    Line numbers run on across blocks.  Iteration ends after the first
    block that carries an error.
    """
    first_line = 1
    for data in _newline_blocks(source, block_bytes):
        rows = parse_fimi_block(data, first_line=first_line, source=name)
        yield rows
        if rows.error is not None:
            return
        first_line += data.count(b"\n")


def read_fimi_arrays(source: str | Path | Iterable, *,
                     max_transactions: int | None = None,
                     name: str | None = None) -> tuple:
    """Every transaction of a FIMI source as one pair of CSR arrays ``(indptr, indices)``.

    The concatenation of :func:`~repro.datasets.streaming.iter_fimi_chunks`;
    an input without transactions gives ``indptr == [0]``.
    """
    from repro.datasets.streaming import iter_fimi_chunks

    chunks = list(iter_fimi_chunks(source, max_transactions=max_transactions, name=name))
    if not chunks:
        return np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    indptr = row_offsets(np.concatenate([np.diff(c.indptr) for c in chunks]))
    return indptr, np.concatenate([c.indices for c in chunks])


def read_sets_arrays(path) -> list:
    """Read a raw sets file: one whitespace-separated integer set per line.

    The FIMI grammar: blank lines and ``#`` comments are skipped, so the
    order of the remaining lines defines the dense set index space — the
    format ``repro build-index --sets-file`` and ``repro ingest`` read.
    Returns sorted duplicate-free ``int64`` arrays.
    """
    indptr, indices = read_fimi_arrays(path, name=str(path))
    if indptr.size == 1:
        raise DataFormatError(f"{path}: no sets found in input")
    return split_rows(indptr, indices)


def parse_fimi_line(line: str, lineno: int, source: str = "fimi") -> np.ndarray | None:
    """Parse one FIMI line into a sorted duplicate-free ``int64`` array.

    Returns ``None`` for blank lines and ``#`` comments.  Raises
    :class:`~repro.core.errors.DataFormatError` naming ``source`` and the
    1-based ``lineno`` on malformed tokens or negative ids.
    """
    rows = parse_fimi_block(line.encode("utf-8", "surrogateescape"),
                            first_line=lineno, source=source)
    if rows.error is not None:
        raise rows.error
    if rows.indptr.size == 1:
        return None
    return rows.indices[:rows.indptr[1]]


def _database(source, n_items: int | None, max_transactions: int | None,
              name: str) -> TransactionDatabase:
    indptr, indices = read_fimi_arrays(source, max_transactions=max_transactions,
                                       name=name)
    if indptr.size == 1:
        raise DataFormatError(f"{name}: no transactions found in input")
    inferred = int(indices.max()) + 1 if indices.size else 1
    if n_items is None:
        n_items = inferred
    elif n_items < inferred:
        raise DataFormatError(
            f"n_items={n_items} is smaller than the largest item id + 1 ({inferred})"
        )
    return TransactionDatabase.from_csr(indptr, indices, n_items=n_items, name=name)


def parse_fimi_lines(
    lines: Iterable[str],
    *,
    n_items: int | None = None,
    max_transactions: int | None = None,
    name: str = "fimi",
) -> TransactionDatabase:
    """Parse an iterable of FIMI lines into a :class:`TransactionDatabase`.

    Item ids are used verbatim (FIMI datasets are 0- or 1-based depending on
    the source); ``n_items`` defaults to ``max_id + 1``.
    """
    return _database(lines, n_items, max_transactions, name)


def read_fimi(
    path: str | Path,
    *,
    n_items: int | None = None,
    max_transactions: int | None = None,
) -> TransactionDatabase:
    """Read a FIMI-format file (optionally only its first ``max_transactions`` lines)."""
    path = Path(path)
    return _database(path, n_items, max_transactions, path.stem)


def write_fimi(db: TransactionDatabase, path_or_handle: str | Path | TextIO) -> None:
    """Write a database in FIMI format (one transaction per line)."""
    def _write(handle: TextIO) -> None:
        for t in db.transactions:
            handle.write(" ".join(str(int(x)) for x in t.tolist()))
            handle.write("\n")

    if hasattr(path_or_handle, "write"):
        _write(path_or_handle)  # type: ignore[arg-type]
    else:
        with Path(path_or_handle).open("w", encoding="utf-8") as handle:
            _write(handle)
