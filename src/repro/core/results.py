"""Counting results as first-class objects: dense or sparse COO.

Every counting backend used to return a dense ``n x n`` int64 matrix — 8 B
per pair before any SWAR work begins, which is exactly the output-side wall
EXPERIMENTS.md E15 records (a 1M-set universe needs ~8 TB of result space
while the spill machinery happily scales the *input*).  This module turns
the result into an abstraction with two implementations behind one
interface:

* :class:`DenseCountResult` — the historical dense matrix, kept as the
  oracle.  ``matrix()`` is free; memory is ``8 * n**2`` bytes.
* :class:`SparseCountResult` — COO triplets ``(rows, cols, values)``.
  Memory is ``O(nnz)``; engines fill it tile by tile through
  :class:`SparseAccumulator`, skipping tiles whose count upper bound falls
  below a ``min_support`` threshold (a-priori pruning pushed below the API).

Every count walk (:func:`repro.core.batch.count_shards`) returns one of the
two.  The shared interface is ``matrix()`` / ``pairs()`` / ``nnz`` /
``frequent_pairs(min_support)``.  Pair extraction uses one canonical
form everywhere: strictly-upper-triangle ``(i, j, value)`` triplets with
``i < j``, sorted by ``(i, j)`` — the same convention as
:func:`repro.mining.postprocess.upper_triangle_pairs` and
:meth:`repro.mining.support.PairSupports.frequent_pairs`, so results are
bit-comparable across formats by construction.

Pruning contract: in a result built with ``min_support = s > 1``, tiles
whose upper bound is below ``s`` were never computed, and a sparse sink
given the *repairable* sets (those with failed insertions) keeps only the
counts that can still matter: every count ``>= s``, the diagonal, and the
rows and columns of repairable sets — the only pairs failed-insertion
repair can raise.  Counts below ``s`` may therefore be partial or
missing.  ``frequent_pairs(m)`` is exact for every ``m >= s``, also after
repair (the property tests pin this against dense-then-filter), and
:attr:`CountResult.min_support` records the floor so consumers can refuse
a filter below it.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.utils.validation import require

__all__ = [
    "CountResult",
    "DenseCountResult",
    "SparseCountResult",
    "SparseAccumulator",
    "coalesce_coo",
    "as_count_result",
]

_EMPTY = np.zeros(0, dtype=np.int64)
_KEY_MAX = int(np.iinfo(np.int64).max)


def coalesce_coo(rows, cols, values):
    """Canonicalise COO triplets: sort by ``(row, col)`` and sum duplicates.

    Engines append tile extractions in whatever order the tiles complete;
    repair merges may re-add coordinates that already exist.  One sort +
    ``reduceat`` pass makes the representation canonical, which is what lets
    two sparse results be compared with plain array equality.

    The sort runs on the single int64 key ``row * n_cols + col`` (one
    ``argsort`` is ~6x faster than a two-key ``lexsort``).  Duplicate keys
    are summed, so the sort need not be stable; coordinates too large for
    the key fall back to ``lexsort``.
    """
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    values = np.asarray(values, dtype=np.int64).ravel()
    require(rows.size == cols.size == values.size,
            "rows, cols and values must have the same length")
    if rows.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    lo = min(int(rows.min()), int(cols.min()))
    n_cols = int(cols.max()) + 1
    if lo >= 0 and int(rows.max()) * n_cols + n_cols - 1 <= _KEY_MAX:
        order = np.argsort(rows * n_cols + cols)
    else:
        order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]
    new_group = np.empty(rows.size, dtype=bool)
    new_group[0] = True
    np.not_equal(rows[1:], rows[:-1], out=new_group[1:])
    np.logical_or(new_group[1:], cols[1:] != cols[:-1], out=new_group[1:])
    starts = np.nonzero(new_group)[0]
    if starts.size != rows.size:
        values = np.add.reduceat(values, starts)
        rows, cols = rows[starts], cols[starts]
    keep = values != 0
    if not keep.all():
        rows, cols, values = rows[keep], cols[keep], values[keep]
    return rows, cols, values


class CountResult:
    """Base interface of every counting result.

    Subclasses are square (``n_sets x n_sets`` symmetric, the all-pairs
    shape) unless built with ``symmetric=False`` (the rectangular
    boolean-matrix-product shape of :mod:`repro.matrix.multiply`).
    """

    #: concrete format name ("dense" / "sparse")
    format: str = "dense"

    def __init__(self, n_rows: int, n_cols: int | None = None, *,
                 symmetric: bool = True, min_support: int = 0,
                 stats: dict | None = None) -> None:
        self.n_rows = int(n_rows)
        self.n_cols = int(n_rows if n_cols is None else n_cols)
        self.symmetric = bool(symmetric)
        if self.symmetric:
            require(self.n_rows == self.n_cols,
                    "symmetric results must be square")
        #: the pruning floor this result was computed under: counts below it
        #: may be partial or missing (0 / 1 means fully exact)
        self.min_support = int(min_support)
        #: engine-side pruning telemetry: ``tiles_total`` / ``tiles_skipped``
        #: count SWAR tiles considered and skipped by the bound check.
        self.stats = {"tiles_total": 0, "tiles_skipped": 0}
        if stats:
            self.stats.update(stats)

    @property
    def n_sets(self) -> int:
        """Number of sets for the square all-pairs shape."""
        require(self.symmetric, "n_sets is only defined for symmetric results")
        return self.n_rows

    # Subclass responsibilities ---------------------------------------- #
    @property
    def nnz(self) -> int:
        """Number of stored nonzero entries."""
        raise NotImplementedError

    @property
    def result_bytes(self) -> int:
        """Bytes held by the stored result payload."""
        raise NotImplementedError

    def matrix(self) -> np.ndarray:
        """The result as a dense int64 matrix (the legacy return type)."""
        raise NotImplementedError

    def pairs(self):
        """Stored entries as sorted ``(rows, cols, values)`` triplets.

        Symmetric results report the strict upper triangle (``i < j``);
        rectangular results report every stored entry.
        """
        raise NotImplementedError

    # Shared behaviour -------------------------------------------------- #
    def frequent_pairs(self, min_support: int):
        """Entries with ``value >= min_support`` as sorted triplets.

        Exact for any ``min_support >= max(1, self.min_support)``; filtering
        below the floor the result was pruned under is refused because the
        missing tiles make the answer silently wrong.
        """
        require(min_support >= max(1, self.min_support),
                f"result was pruned at min_support={self.min_support}; "
                f"cannot filter exactly at {min_support}")
        rows, cols, values = self.pairs()
        keep = values >= min_support
        return rows[keep], cols[keep], values[keep]

class DenseCountResult(CountResult):
    """The historical dense int64 matrix, wrapped behind the interface.

    This is the oracle every other format is pinned against: ``matrix()``
    returns the exact array a pre-``CountResult`` caller received.
    """

    format = "dense"

    def __init__(self, counts: np.ndarray, *, symmetric: bool = True,
                 min_support: int = 0, stats: dict | None = None) -> None:
        counts = np.asarray(counts)
        require(counts.ndim == 2, "counts must be a 2-D matrix")
        super().__init__(counts.shape[0], counts.shape[1],
                         symmetric=symmetric, min_support=min_support,
                         stats=stats)
        self.counts = counts

    @property
    def nnz(self) -> int:
        if self.symmetric:
            iu, ju = np.triu_indices(self.n_rows, k=1)
            return int(np.count_nonzero(self.counts[iu, ju]))
        return int(np.count_nonzero(self.counts))

    @property
    def result_bytes(self) -> int:
        return int(self.counts.nbytes)

    def matrix(self) -> np.ndarray:
        return self.counts

    def pairs(self):
        if self.symmetric:
            iu, ju = np.triu_indices(self.n_rows, k=1)
            values = self.counts[iu, ju]
            keep = values != 0
            return iu[keep], ju[keep], values[keep]
        rows, cols = np.nonzero(self.counts)
        return rows, cols, self.counts[rows, cols]

class SparseCountResult(CountResult):
    """COO count triplets — ``O(nnz)`` memory instead of ``O(n**2)``.

    Symmetric results store the upper triangle *including* the diagonal
    (self-intersection counts), so ``matrix()`` can reconstruct the exact
    dense oracle by mirroring; rectangular results store entries as-is.
    Storage is canonical (sorted by ``(row, col)``, duplicates summed,
    zeros dropped), so two sparse results are equal iff their arrays are.
    """

    format = "sparse"

    def __init__(self, n_rows: int, n_cols: int | None = None, *,
                 rows=None, cols=None, values=None, symmetric: bool = True,
                 min_support: int = 0, stats: dict | None = None) -> None:
        super().__init__(n_rows, n_cols, symmetric=symmetric,
                         min_support=min_support, stats=stats)
        rows, cols, values = coalesce_coo(
            _EMPTY if rows is None else rows,
            _EMPTY if cols is None else cols,
            _EMPTY if values is None else values)
        if self.symmetric and rows.size:
            require(bool(np.all(rows <= cols)),
                    "symmetric sparse results store the upper triangle only")
        self.rows, self.cols, self.values = rows, cols, values

    @property
    def nnz(self) -> int:
        if self.symmetric:
            return int(np.count_nonzero(self.rows != self.cols))
        return int(self.values.size)

    @property
    def stored_entries(self) -> int:
        """All stored triplets, diagonal included (``nnz`` excludes it)."""
        return int(self.values.size)

    @property
    def result_bytes(self) -> int:
        return int(self.rows.nbytes + self.cols.nbytes + self.values.nbytes)

    def matrix(self) -> np.ndarray:
        """Reconstruct the dense matrix — a deliberate escape hatch.

        Materialising ``8 * n_rows * n_cols`` bytes defeats the point of the
        sparse format, so this access path warns: migrate the call site to
        :meth:`pairs` / :meth:`frequent_pairs`, or request
        ``result_format="dense"`` where the matrix is genuinely needed.
        """
        warnings.warn(
            "matrix() on a sparse CountResult materialises the dense "
            f"{self.n_rows}x{self.n_cols} matrix this format exists to "
            "avoid; use pairs()/frequent_pairs(), or request "
            "result_format='dense'",
            DeprecationWarning, stacklevel=2)
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.int64)
        out[self.rows, self.cols] = self.values
        if self.symmetric:
            off = self.rows != self.cols
            out[self.cols[off], self.rows[off]] = self.values[off]
        return out

    def pairs(self):
        if self.symmetric:
            off = self.rows != self.cols
            return self.rows[off], self.cols[off], self.values[off]
        return self.rows, self.cols, self.values

    def diagonal(self) -> np.ndarray:
        """Stored self-intersection counts as a dense length-``n`` vector."""
        require(self.symmetric, "diagonal is only defined for square results")
        out = np.zeros(self.n_rows, dtype=np.int64)
        on = self.rows == self.cols
        out[self.rows[on]] = self.values[on]
        return out

    def add_entries(self, rows, cols, values) -> "SparseCountResult":
        """Fold raw triplets into this result (repair uses this).

        Only the new triplets are coalesced; they are then merged into the
        stored arrays, which are already canonical, without re-sorting them.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        if self.symmetric and rows.size:
            flip = rows > cols
            rows, cols = np.where(flip, cols, rows), np.where(flip, rows, cols)
        rows, cols, values = coalesce_coo(rows, cols, values)
        if rows.size == 0:
            return self
        if self.n_rows * self.n_cols > _KEY_MAX:
            self.rows, self.cols, self.values = coalesce_coo(
                np.concatenate([self.rows, rows]),
                np.concatenate([self.cols, cols]),
                np.concatenate([self.values, values]))
            return self
        stored = self.rows * self.n_cols + self.cols
        added = rows * self.n_cols + cols
        pos = np.searchsorted(stored, added)
        hit = pos < stored.size
        hit[hit] = stored[pos[hit]] == added[hit]
        merged = self.values.copy()
        merged[pos[hit]] += values[hit]
        new = ~hit
        self.rows = np.insert(self.rows, pos[new], rows[new])
        self.cols = np.insert(self.cols, pos[new], cols[new])
        merged = np.insert(merged, pos[new], values[new])
        keep = merged != 0
        if not keep.all():
            self.rows, self.cols, merged = self.rows[keep], self.cols[keep], merged[keep]
        self.values = merged
        return self

# --------------------------------------------------------------------------- #
# Accumulators — the engine-facing side
# --------------------------------------------------------------------------- #
class SparseAccumulator:
    """Collect tile extractions into one canonical :class:`SparseCountResult`.

    Engines call :meth:`add_block` with each computed count tile (dense
    ``(len(rows), len(cols))`` blocks in whatever index space they work in,
    already mapped to final indices by the caller); nonzero entries are
    extracted immediately so the dense tile can be freed.  ``finalize``
    coalesces once at the end.  Tiles may arrive from several threads at
    once: each one is stored with a single list append.

    ``repairable`` (symmetric results only) is a final-index mask of the
    sets with failed insertions.  Given it, entries below ``min_support``
    are dropped at the sink unless they lie on the diagonal or in a
    repairable row or column: repair can raise no other count, so no
    dropped entry could reach the floor (the module's pruning contract).

    As a :func:`~repro.core.batch.walk_tiles` sink it prunes tiles below
    ``min_support`` and takes a triangle's diagonal tiles masked.
    """

    mirror = False

    def __init__(self, n_rows: int, n_cols: int | None = None, *,
                 symmetric: bool = True, min_support: int = 0,
                 repairable=None) -> None:
        self.n_rows = int(n_rows)
        self.n_cols = int(n_rows if n_cols is None else n_cols)
        self.symmetric = bool(symmetric)
        self.min_support = int(min_support)
        require(repairable is None or self.symmetric,
                "repairable sets apply to symmetric results only")
        self.repairable = (None if repairable is None or self.min_support <= 1
                           else np.asarray(repairable, dtype=bool))
        self._parts: list = []   # (rows, cols, values) per tile

    def add_block(self, rows, cols, block) -> None:
        """Extract and store the nonzero entries of one count tile.

        ``rows`` / ``cols`` are the final (original-order) indices of the
        tile's axes.  For symmetric accumulation entries are canonicalised
        to ``i <= j``; a tile that covers both triangles (a diagonal tile)
        must be pre-masked by the caller so each unordered pair arrives
        exactly once.
        """
        block = np.asarray(block)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if self.repairable is None:
            r_local, c_local = np.nonzero(block)
        else:
            # threshold the tile before extracting it: most counts of a
            # pruned sparse walk fall below the floor
            keep = block >= self.min_support
            keep |= rows[:, None] == cols[None, :]
            keep |= self.repairable[rows][:, None]
            keep |= self.repairable[cols][None, :]
            keep &= block != 0
            r_local, c_local = np.nonzero(keep)
        if r_local.size == 0:
            return
        values = block[r_local, c_local]
        rows, cols = rows[r_local], cols[c_local]
        if self.symmetric:
            flip = rows > cols
            if flip.any():
                rows, cols = (np.where(flip, cols, rows),
                              np.where(flip, rows, cols))
        self._parts.append((rows, cols, values.astype(np.int64, copy=False)))

    def finalize(self, stats: dict | None = None) -> SparseCountResult:
        """Coalesce the stored tiles into one result carrying the walk's ``stats``."""
        rows, cols, values = ((np.concatenate(column) for column in zip(*self._parts))
                              if self._parts else (_EMPTY, _EMPTY, _EMPTY))
        return SparseCountResult(
            self.n_rows, self.n_cols, rows=rows, cols=cols, values=values,
            symmetric=self.symmetric, min_support=self.min_support, stats=stats)


def as_count_result(counts, *, symmetric: bool = True) -> CountResult:
    """Wrap a raw matrix (or pass a :class:`CountResult` through)."""
    if isinstance(counts, CountResult):
        return counts
    return DenseCountResult(np.asarray(counts), symmetric=symmetric)
