"""Transaction database container shared by generators, miners and benchmarks.

Transactions are stored in CSR form: ``indices`` holds every transaction's
sorted duplicate-free item ids back to back and ``indptr`` delimits them
(transaction ``t`` is ``indices[indptr[t]:indptr[t + 1]]``).  Statistics,
support filtering and the vertical conversion are whole-array operations
over those two arrays; :attr:`TransactionDatabase.transactions` exposes the
rows as read-only views for the per-transaction baselines.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import DataFormatError

__all__ = ["TransactionDatabase", "canonical_rows", "row_offsets", "split_rows"]


def row_offsets(lengths) -> np.ndarray:
    """``indptr`` for rows of the given lengths (a leading 0, then the running sum)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def split_rows(indptr: np.ndarray, indices: np.ndarray) -> list:
    """The CSR rows as a list of views into ``indices``."""
    bounds = indptr.tolist()
    return [indices[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def canonical_rows(indptr: np.ndarray, indices: np.ndarray) -> tuple:
    """Sort every CSR row and drop duplicates within rows.

    Rows that are already strictly increasing (the FIMI reader's output,
    the generators') cost one comparison pass.
    """
    if indices.size < 2:
        return indptr, indices
    lengths = np.diff(indptr)
    row_start = np.zeros(indices.size, dtype=bool)
    row_start[indptr[:-1][lengths > 0]] = True
    if ((indices[1:] > indices[:-1]) | row_start[1:]).all():
        return indptr, indices
    n_rows = lengths.size
    row = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
    order = np.lexsort((indices, row))
    row, values = row[order], indices[order]
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = (values[1:] != values[:-1]) | (row[1:] != row[:-1])
    return row_offsets(np.bincount(row[keep], minlength=n_rows)), values[keep]


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class TransactionDatabase:
    """A horizontal transaction database over items ``{0..n_items-1}``.

    ``transactions[t]`` is a sorted, duplicate-free ``int64`` array of item
    ids present in transaction ``t``.  The class offers the conversions and
    statistics that every component of the pipeline needs: vertical tidlists,
    density, prefixes (for the WebDocs experiment), and item-support
    filtering (the preprocessing step all miners share).

    Build it from a sequence of item collections (each is sorted and
    deduplicated) or, without per-transaction work, from CSR arrays with
    :meth:`from_csr`.
    """

    def __init__(self, transactions, n_items: int, name: str = "unnamed") -> None:
        rows = [np.asarray(t, dtype=np.int64).ravel() for t in transactions]
        indptr = row_offsets([r.size for r in rows])
        indices = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        self._assign(indptr, indices, n_items, name)

    @classmethod
    def from_csr(cls, indptr, indices, n_items: int,
                 name: str = "unnamed") -> "TransactionDatabase":
        """A database over CSR arrays (rows are sorted and deduplicated if needed)."""
        db = cls.__new__(cls)
        db._assign(np.asarray(indptr, dtype=np.int64),
                   np.asarray(indices, dtype=np.int64), n_items, name)
        return db

    def _assign(self, indptr: np.ndarray, indices: np.ndarray, n_items: int,
                name: str) -> None:
        if n_items <= 0:
            raise DataFormatError(f"n_items must be positive, got {n_items}")
        indptr, indices = canonical_rows(indptr, indices)
        if indices.size and (indices.min() < 0 or indices.max() >= n_items):
            first = int(np.flatnonzero((indices < 0) | (indices >= n_items))[0])
            row = int(np.searchsorted(indptr, first, side="right")) - 1
            raise DataFormatError(
                f"transaction {row} contains an item outside [0, {n_items})")
        self.indptr = _read_only(indptr)
        self.indices = _read_only(indices)
        self.n_items = int(n_items)
        self.name = name
        self._transactions: list | None = None
        self._tidlists: list | None = None

    # ------------------------------------------------------------------ #
    # Basic statistics
    # ------------------------------------------------------------------ #
    @property
    def transactions(self) -> list:
        """Every transaction as a read-only view into :attr:`indices` (cached)."""
        if self._transactions is None:
            self._transactions = split_rows(self.indptr, self.indices)
        return self._transactions

    @property
    def n_transactions(self) -> int:
        return self.indptr.size - 1

    @property
    def total_items(self) -> int:
        """Total number of (transaction, item) occurrences — the paper's "instance size"."""
        return int(self.indices.size)

    @property
    def density(self) -> float:
        """Fraction of the ``n_transactions x n_items`` matrix that is populated."""
        cells = self.n_transactions * self.n_items
        return self.total_items / cells if cells else 0.0

    def item_supports(self) -> np.ndarray:
        """Support (number of containing transactions) of every item."""
        return np.bincount(self.indices, minlength=self.n_items).astype(np.int64)

    def distinct_items_used(self) -> int:
        """Number of items with non-zero support (the WebDocs experiment's x-axis driver)."""
        return int(np.count_nonzero(self.item_supports()))

    @property
    def average_transaction_length(self) -> float:
        return self.total_items / self.n_transactions if self.n_transactions else 0.0

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def tidlists(self) -> list[np.ndarray]:
        """Vertical format: for each item, the sorted array of transaction ids (cached).

        One stable sort of the occurrences by item: rows are visited in
        order, so each item's transaction ids come out ascending.  The
        arrays are read-only views into one buffer.
        """
        if self._tidlists is None:
            keys = self.indices
            if self.n_items <= 1 << 16:
                keys = keys.astype(np.uint16)   # a stable sort of 16-bit keys is a radix sort
            order = np.argsort(keys, kind="stable")
            rows = np.repeat(np.arange(self.n_transactions, dtype=np.int64),
                             np.diff(self.indptr))
            self._tidlists = split_rows(row_offsets(self.item_supports()),
                                        _read_only(rows[order]))
        return self._tidlists

    def prefix(self, n_transactions: int, name: str | None = None) -> "TransactionDatabase":
        """The database restricted to its first ``n_transactions`` transactions."""
        n_transactions = min(n_transactions, self.n_transactions)
        return self._rows(0, n_transactions, name or f"{self.name}[:{n_transactions}]")

    def _rows(self, lo: int, hi: int, name: str) -> "TransactionDatabase":
        indptr = self.indptr[lo:hi + 1]
        return TransactionDatabase.from_csr(
            indptr - indptr[0], self.indices[indptr[0]:indptr[-1]],
            n_items=self.n_items, name=name)

    def filter_by_support(self, min_support: int) -> tuple["TransactionDatabase", np.ndarray]:
        """Drop infrequent items and relabel the survivors densely.

        Returns the filtered database and the array mapping new item ids to
        the original ids.  This is the preprocessing step the paper assumes
        every method performs ("the interesting comparison is for the case
        where there are only frequent items", Section I-B2).  The relabelling
        is monotone, so filtered rows stay sorted.
        """
        supports = self.item_supports()
        kept = np.nonzero(supports >= min_support)[0]
        remap = -np.ones(self.n_items, dtype=np.int64)
        remap[kept] = np.arange(kept.size)
        mapped = remap[self.indices]
        survives = mapped >= 0
        survivors_before = np.zeros(mapped.size + 1, dtype=np.int64)
        np.cumsum(survives, out=survivors_before[1:])
        filtered = TransactionDatabase.from_csr(
            survivors_before[self.indptr], mapped[survives],
            n_items=max(1, int(kept.size)),
            name=f"{self.name}|minsup={min_support}",
        )
        return filtered, kept

    def split(self, parts: int) -> list["TransactionDatabase"]:
        """Split into ``parts`` databases of (nearly) equal transaction count.

        Used by the Figure 9 experiment, which simulates multi-core execution
        of Apriori / FP-growth by running each part independently.
        """
        if parts <= 0:
            raise ValueError(f"parts must be positive, got {parts}")
        bounds = np.linspace(0, self.n_transactions, parts + 1).astype(int)
        return [self._rows(int(bounds[p]), int(bounds[p + 1]), f"{self.name}#part{p}")
                for p in range(parts)]

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.n_transactions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransactionDatabase(name={self.name!r}, transactions={self.n_transactions}, "
            f"items={self.n_items}, total={self.total_items}, density={self.density:.4f})"
        )
