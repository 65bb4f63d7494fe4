"""Boolean matrix multiplication via batmap set intersection.

For boolean matrices ``M`` (rows as sets ``A_i`` of non-zero columns) and
``M'`` (columns as sets ``B_j`` of non-zero rows), the product has
``(i, j)`` set iff ``A_i ∩ B_j ≠ ∅``; the *witness-counting* variant returns
``|A_i ∩ B_j|`` (the number of k with ``M_{i,k} M'_{k,j} > 0``), which is the
quantity the batmap comparison computes directly.

Three implementations are provided:

* ``multiply_dense`` — NumPy reference (integer matmul of the dense forms);
* ``multiply_merge`` — per-pair sorted-list intersection (CPU baseline);
* ``multiply_batmap`` — build one batmap per row of ``M`` and per column of
  ``M'`` over the shared inner dimension and count all pairs with the
  data-independent comparison on the host engines;
* ``multiply_batmap_device`` — the same product through the GPU-simulator
  kernel, for modelled device time.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.merge import intersection_size_numpy
from repro.core.collection import BatmapCollection
from repro.core.config import BatmapConfig, DEFAULT_CONFIG
from repro.core.intersection import count_common
from repro.core.plan import plan_counts
from repro.gpu.device import DeviceSpec, GTX_285
from repro.matrix.boolean import SparseBooleanMatrix
from repro.utils.rng import RngLike
from repro.utils.validation import require

__all__ = [
    "multiply_dense",
    "multiply_merge",
    "multiply_batmap",
    "multiply_batmap_device",
]


def _check_shapes(a: SparseBooleanMatrix, b: SparseBooleanMatrix) -> None:
    if a.n_cols != b.n_rows:
        raise ValueError(
            f"inner dimensions do not match: {a.n_rows}x{a.n_cols} times {b.n_rows}x{b.n_cols}"
        )


def multiply_dense(a: SparseBooleanMatrix, b: SparseBooleanMatrix) -> np.ndarray:
    """Witness-count product via dense integer matmul (ground truth for tests)."""
    _check_shapes(a, b)
    return a.to_dense().astype(np.int64) @ b.to_dense().astype(np.int64)


def multiply_merge(a: SparseBooleanMatrix, b: SparseBooleanMatrix) -> np.ndarray:
    """Witness-count product via per-pair sorted intersection (CPU baseline)."""
    _check_shapes(a, b)
    cols = b.column_sets()
    out = np.zeros((a.n_rows, b.n_cols), dtype=np.int64)
    for i, row in enumerate(a.rows):
        for j, col in enumerate(cols):
            if row.size and col.size:
                out[i, j] = intersection_size_numpy(row, col)
    return out


def _membership_matrix(sets: list[np.ndarray], elements: np.ndarray) -> np.ndarray:
    """``out[i, j]`` — does ``sets[i]`` contain ``elements[j]``? (one vectorised pass).

    ``elements`` must be sorted.  The whole side is answered with a single
    ``np.isin`` over the concatenated sets instead of one Python-level probe
    per (set, element) pair.
    """
    out = np.zeros((len(sets), elements.size), dtype=bool)
    if elements.size == 0 or not sets:
        return out
    lengths = np.array([s.size for s in sets], dtype=np.int64)
    if int(lengths.sum()) == 0:
        return out
    flat = np.concatenate(sets)
    owner = np.repeat(np.arange(len(sets), dtype=np.int64), lengths)
    hit = np.isin(flat, elements)
    if not hit.any():
        return out
    out[owner[hit], np.searchsorted(elements, flat[hit])] = True
    return out


def _iter_repair_increments(
    collection: BatmapCollection,
    a: SparseBooleanMatrix,
    b: SparseBooleanMatrix,
):
    """Yield one boolean increment mask per failed element that matters.

    A failed insertion of inner-dimension element ``k`` into the batmap of a
    row/column set means every cross pair containing that set undercounts
    ``k`` by one if the other side holds it too.

    The membership tests are grouped: one :func:`_membership_matrix` pass per
    side answers "which failed elements does each row/column set contain",
    replacing the former ``O(failures * rows * cols)`` Python triple loop.
    Failed elements that never appear on both sides of the cross block are
    skipped outright — they cannot change any entry (in particular, failures
    recorded against sets the cross block never touches, or elements present
    only in empty-side pairs that :func:`multiply_merge` also skips).
    """
    failures = collection.failed_insertions()
    if not failures:
        return
    failed_elements = np.array(sorted(failures), dtype=np.int64)
    row_has = _membership_matrix(list(a.rows), failed_elements)
    col_has = _membership_matrix(b.column_sets(), failed_elements)
    # Short-circuit: a repair contribution needs the element on *both* sides.
    active = row_has.any(axis=0) & col_has.any(axis=0)
    if not active.any():
        return
    n_rows = a.n_rows
    for f_idx in np.nonzero(active)[0].tolist():
        owners = np.asarray(failures[int(failed_elements[f_idx])], dtype=np.int64)
        row_owner = np.zeros(a.n_rows, dtype=bool)
        row_owner[owners[owners < n_rows]] = True
        col_owner = np.zeros(b.n_cols, dtype=bool)
        col_owner[owners[owners >= n_rows] - n_rows] = True
        yield (
            (row_has[:, f_idx][:, None] & col_has[:, f_idx][None, :])
            & (row_owner[:, None] | col_owner[None, :])
        )


def _repair_cross_product(
    product: np.ndarray,
    collection: BatmapCollection,
    a: SparseBooleanMatrix,
    b: SparseBooleanMatrix,
) -> np.ndarray:
    """Add back the witnesses lost to failed cuckoo insertions (exact repair)."""
    out = None
    for increment in _iter_repair_increments(collection, a, b):
        if out is None:
            out = product.copy()
        out += increment.astype(np.int64)
    return product if out is None else out


def _repair_cross_result(
    result,
    collection: BatmapCollection,
    a: SparseBooleanMatrix,
    b: SparseBooleanMatrix,
):
    """Fold the failed-insertion repair into a sparse cross result as COO entries."""
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for increment in _iter_repair_increments(collection, a, b):
        r, c = np.nonzero(increment)
        rows.append(r)
        cols.append(c)
    if not rows:
        return result
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    return result.add_entries(r, c, np.ones(r.size, dtype=np.int64))


def multiply_batmap(
    a: SparseBooleanMatrix,
    b: SparseBooleanMatrix,
    *,
    config: BatmapConfig = DEFAULT_CONFIG,
    rng: RngLike = None,
    compute: str = "auto",
    workers: int | None = None,
    build_compute: str = "auto",
    build_workers: int | None = None,
    result_format: str = "dense",
    min_support: int = 0,
) -> np.ndarray:
    """Witness-count product using host-side batmap comparisons.

    All row-sets of ``a`` and column-sets of ``b`` live over the same inner
    dimension, so one shared hash family serves both sides.  Backend
    selection goes through the workload planner
    (:func:`~repro.core.plan.plan_counts`): the cross block
    (``a``-rows x ``b``-columns) runs on the vectorised batch engine, fans
    out to the threaded executor for large multi-core instances, or
    falls back to the per-pair reference for layouts the packed engines
    cannot represent (``payload_bits > 7``, sub-word ranges).  Failed
    insertions (rare) are repaired exactly in every case.

    ``build_compute`` independently selects the *construction* engine for
    the row/column batmaps (:func:`~repro.core.plan.plan_build`): the bulk
    engines build the whole collection with vectorized round-based cuckoo
    placement instead of one element at a time.

    ``result_format="sparse"`` returns a non-symmetric
    :class:`~repro.core.results.SparseCountResult` over the product's
    coordinates instead of the dense ndarray; a positive ``min_support``
    (only meaningful with sparse) prunes cross tiles whose set-size bounds
    cannot reach the threshold before any SWAR work.  Witness repair is
    folded in as COO entries, so the pruning contract matches the miner's:
    entries at or above ``min_support`` are exact.
    """
    _check_shapes(a, b)
    require(compute in ("auto", "host", "batch", "parallel"),
            f"compute must be 'auto', 'host', 'batch' or 'parallel', got {compute!r}")
    require(result_format in ("dense", "sparse"),
            f"result_format must be 'dense' or 'sparse', got {result_format!r}")
    require(min_support == 0 or result_format == "sparse",
            "min_support pruning needs result_format='sparse' "
            "(the dense product is the unpruned oracle)")
    universe = a.n_cols
    sets = list(a.rows) + b.column_sets()
    collection = BatmapCollection.build(sets, universe, config=config, rng=rng,
                                        build_compute=build_compute,
                                        build_workers=build_workers)
    rows_idx = np.arange(a.n_rows)
    cols_idx = a.n_rows + np.arange(b.n_cols)
    if result_format == "sparse":
        if collection.r0 >= 4 and config.entry_storage_bits == 8:
            # The pruned streaming path (serial batch engine: the executor
            # has no rectangular sparse shape, and the point of sparse here
            # is the result footprint, not the counting wall clock).
            result = collection.batch_counter().count_cross_result(
                rows_idx, cols_idx, min_support=min_support)
        else:
            from repro.core.results import SparseAccumulator

            acc = SparseAccumulator(a.n_rows, b.n_cols, symmetric=False,
                                    min_support=min_support)
            block = np.empty((1, b.n_cols), dtype=np.int64)
            for i in range(a.n_rows):
                bm_i = collection.batmap(int(rows_idx[i]))
                for j in range(b.n_cols):
                    block[0, j] = count_common(
                        bm_i, collection.batmap(int(cols_idx[j])))
                acc.add_block(rows_idx[i:i + 1], np.arange(b.n_cols), block)
            acc.tiles_total = a.n_rows
            result = acc.finalize()
        return _repair_cross_result(result, collection, a, b)
    plan = plan_counts(collection, requested=compute, workers=workers,
                       n_pairs=a.n_rows * b.n_cols)
    if plan.backend == "parallel":
        from repro.parallel.executor import ParallelPairCounter

        with ParallelPairCounter(collection, workers=workers) as counter:
            product = counter.count_cross(rows_idx, cols_idx)
    elif plan.backend == "host":
        product = np.empty((a.n_rows, b.n_cols), dtype=np.int64)
        for i in range(a.n_rows):
            bm_i = collection.batmap(int(rows_idx[i]))
            for j in range(b.n_cols):
                product[i, j] = count_common(bm_i, collection.batmap(int(cols_idx[j])))
    else:
        product = collection.batch_counter().count_cross(rows_idx, cols_idx)
    return _repair_cross_product(product, collection, a, b)


def multiply_batmap_device(
    a: SparseBooleanMatrix,
    b: SparseBooleanMatrix,
    *,
    config: BatmapConfig = DEFAULT_CONFIG,
    rng: RngLike = None,
    device: DeviceSpec = GTX_285,
    tile_size: int = 2048,
    build_compute: str = "auto",
) -> tuple[np.ndarray, float]:
    """Witness-count product through the simulated GPU kernel (modelling API).

    Returns ``(product, modelled_device_seconds)``.  The kernel counts *all*
    pairs among the ``a``-rows and ``b``-columns; only the cross block is
    extracted.  (The paper's join-project application has exactly this
    structure.)  :func:`multiply_batmap` computes the same product on the
    host engines.
    """
    from repro.kernels.driver import run_batmap_pair_counts

    _check_shapes(a, b)
    universe = a.n_cols
    sets = list(a.rows) + b.column_sets()
    collection = BatmapCollection.build(sets, universe, config=config, rng=rng,
                                        build_compute=build_compute)
    result = run_batmap_pair_counts(collection, device=device, tile_size=tile_size)
    # reorder device (sorted) counts back to original set indices
    n_total = len(sets)
    order = collection.order
    counts = np.zeros((n_total, n_total), dtype=np.int64)
    counts[np.ix_(order, order)] = result.counts

    product = counts[:a.n_rows, a.n_rows:]
    product = _repair_cross_product(product, collection, a, b)
    return product, result.device_seconds
