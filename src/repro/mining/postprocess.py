"""Host-side postprocessing: repair of failed insertions and result assembly.

Section III-C: "Let F_b be the set of items i for which insertion of value b
in batmap B_i failed, and let A_b denote all items in input associated with
b.  For all transactions b, we construct the pairs (min(a,c), max(a,c)) for
which a ∈ F_b and c ∈ A_b ... Whenever a subresult Z_{p,q} is returned from
GPU we extend it with the pairs found in M_{p,q} before reporting."

The device-side counts miss every transaction ``b`` for a pair ``{a, c}``
whenever ``b``'s insertion failed in *either* batmap, so the repair adds one
unit of support per such ``(b, {a, c})`` — taking care to add it exactly once
even when the insertion failed on both sides.
"""

from __future__ import annotations

import numpy as np

from repro.core.collection import BatmapCollection
from repro.datasets.transactions import TransactionDatabase

__all__ = [
    "repair_pair_counts",
    "repair_pair_counts_from_failures",
    "repair_increments",
    "repair_count_result",
    "reorder_counts",
    "upper_triangle_pairs",
]


def reorder_counts(counts_sorted: np.ndarray, collection: BatmapCollection) -> np.ndarray:
    """Convert a count matrix from device (width-sorted) order to original item order."""
    n = len(collection)
    if counts_sorted.shape != (n, n):
        raise ValueError(
            f"count matrix shape {counts_sorted.shape} does not match collection size {n}"
        )
    order = collection.order
    out = np.zeros_like(counts_sorted)
    # counts_sorted[a, b] refers to original items order[a], order[b]
    out[np.ix_(order, order)] = counts_sorted
    return out


def repair_pair_counts(
    counts: np.ndarray,
    collection: BatmapCollection,
    database: TransactionDatabase,
) -> np.ndarray:
    """Add the contributions of failed insertions to an original-order count matrix.

    ``counts`` must be indexed by original item ids (use :func:`reorder_counts`
    first if it came straight from the device driver).  Returns a new matrix;
    the input is not modified.
    """
    n = len(collection)
    if counts.shape != (n, n):
        raise ValueError(
            f"count matrix shape {counts.shape} does not match collection size {n}"
        )
    failures = collection.failed_insertions()   # transaction b -> items F_b
    if not failures:
        return counts.copy()
    return repair_pair_counts_from_failures(counts, failures, database.transactions)


def repair_pair_counts_from_failures(
    counts: np.ndarray,
    failures: dict,
    transactions,
) -> np.ndarray:
    """Dense-matrix form of the repair, decoupled from the collection/database.

    ``failures`` maps transaction id ``b`` to the item list ``F_b``;
    ``transactions`` maps ``b`` to its item array — a list for the
    in-memory database, a sparse ``{tid: items}`` dict for the streaming
    pipeline (which extracts only the failed transactions from the file).
    The increments come from :func:`repair_increments`, the one pair walk
    every repair path shares; they are scattered into both triangles, the
    diagonal once.  Returns a new matrix; the input is not modified.
    """
    repaired = counts.copy()
    if not failures:
        return repaired
    rows, cols, values = repair_increments(failures, transactions)
    np.add.at(repaired, (rows, cols), values)
    off = rows != cols
    np.add.at(repaired, (cols[off], rows[off]), values[off])
    return repaired


def repair_increments(failures: dict, transactions):
    """Failed-insertion repair as upper-triangle COO increments.

    For each transaction ``b`` and each unordered pair ``{a, c}`` of its
    items with at least one failed insertion, the device missed ``b``'s
    contribution once; the diagonal (item supports) misses ``b`` for every
    failed item.  The ``+1`` contributions are returned as ``(rows, cols,
    values)`` triplets (``rows <= cols``, diagonal included) so they can be
    folded into a :class:`~repro.core.results.SparseCountResult` without
    ever materialising the dense matrix.  Each transaction's pairs come
    from one ``triu_indices`` mask.  Summing duplicates is the consumer's
    job (``add_entries`` coalesces, ``np.add.at`` accumulates).
    """
    rows: list = []
    cols: list = []
    triu: dict = {}
    for b, failed_items in failures.items():
        items = np.asarray(transactions[b], dtype=np.int64).ravel()
        failed = np.asarray(sorted(set(int(a) for a in failed_items)), dtype=np.int64)
        if items.size not in triu:
            triu[items.size] = np.triu_indices(items.size, k=1)
        iu, ju = triu[items.size]
        hit = (items[:, None] == failed[None, :]).any(axis=1)
        touched = hit[iu] | hit[ju]
        a, c = items[iu[touched]], items[ju[touched]]
        rows += [np.minimum(a, c), failed]
        cols += [np.maximum(a, c), failed]
    if not rows:
        return (np.zeros(0, dtype=np.int64),) * 3
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return rows, cols, np.ones(rows.size, dtype=np.int64)


def repair_count_result(result, failures: dict, transactions):
    """Apply the failed-insertion repair to any :class:`CountResult`.

    Both shapes take the same :func:`repair_increments`: dense results
    scatter them into the matrix, sparse results fold them in as COO
    entries.  Repair only ever
    *adds* support, and a tile skipped during counting had a bound that
    already covered the repaired support — so the pruning contract
    (``frequent_pairs`` exact at or above the floor) survives repair.
    """
    from repro.core.results import DenseCountResult, SparseCountResult

    if not failures:
        return result
    if isinstance(result, SparseCountResult):
        rows, cols, values = repair_increments(failures, transactions)
        return result.add_entries(rows, cols, values)
    if isinstance(result, DenseCountResult):
        result.counts = repair_pair_counts_from_failures(
            result.counts, failures, transactions)
        return result
    raise TypeError(
        f"cannot repair a {type(result).__name__}: top-k results must be "
        "derived after repair (rank order may change)")


def upper_triangle_pairs(counts: np.ndarray, min_support: int) -> dict[tuple[int, int], int]:
    """Extract ``{(i, j): support}`` for ``i < j`` with support >= ``min_support``."""
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValueError("counts must be a square matrix")
    iu, ju = np.triu_indices(counts.shape[0], k=1)
    values = counts[iu, ju]
    keep = values >= min_support
    return {
        (int(i), int(j)): int(v)
        for i, j, v in zip(iu[keep], ju[keep], values[keep])
    }
