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

from contextlib import nullcontext

import numpy as np

from repro.baselines.merge import intersection_size_numpy
from repro.core.collection import BatmapCollection
from repro.core.config import BatmapConfig, DEFAULT_CONFIG
from repro.core.intersection import count_common
from repro.core.plan import plan_counts
from repro.core.results import SparseAccumulator
from repro.gpu.device import DeviceSpec, GTX_285
from repro.matrix.boolean import SparseBooleanMatrix
from repro.mining.postprocess import repair_increments
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


def _repair_cross(product, collection: BatmapCollection,
                  a: SparseBooleanMatrix, b: SparseBooleanMatrix):
    """Add back the witnesses lost to failed cuckoo insertions (exact repair).

    Inner element ``k`` plays the miner's transaction: the sets holding it
    are the ``a``-rows ``i`` with ``k`` in ``a.rows[i]`` and, as ids
    ``n_rows + j``, the ``b``-columns ``j`` in ``b.rows[k]``.
    :func:`~repro.mining.postprocess.repair_increments` turns the failures
    into upper-triangle increments, and only the row-by-column ones belong
    to the cross block.  ``product`` is the dense block (added to a copy)
    or a sparse result (``add_entries``); it comes back as is when nothing
    is added.
    """
    failures = collection.failed_insertions()
    if not failures:
        return product
    n_rows = a.n_rows
    flat = np.concatenate([np.zeros(0, dtype=np.int64), *a.rows])
    owner = np.repeat(np.arange(n_rows), [row.size for row in a.rows])
    hit = np.isin(flat, list(failures))     # one pass; failures are rare
    flat, owner = flat[hit], owner[hit]
    containing = {k: np.concatenate([owner[flat == k], n_rows + b.rows[k]])
                  for k in failures}
    rows, cols, values = repair_increments(failures, containing)
    cross = (rows < n_rows) & (cols >= n_rows)
    if not cross.any():
        return product
    rows, cols, values = rows[cross], cols[cross] - n_rows, values[cross]
    if isinstance(product, np.ndarray):
        product = product.copy()
        np.add.at(product, (rows, cols), values)
        return product
    return product.add_entries(rows, cols, values)


def _host_cross(collection: BatmapCollection, rows, cols) -> np.ndarray:
    """Per-pair reference counts of ``rows x cols`` (original indices)."""
    product = np.empty((rows.size, cols.size), dtype=np.int64)
    for i, row in enumerate(rows.tolist()):
        bm_i = collection.batmap(row)
        for j, col in enumerate(cols.tolist()):
            product[i, j] = count_common(bm_i, collection.batmap(col))
    return product


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
    dimension, so one shared hash family serves both sides.  The workload
    planner (:func:`~repro.core.plan.plan_counts`) picks the backend once
    for either result format: the cross block (``a``-rows x ``b``-columns)
    is one rectangle tile walk on the batch engine, on threads for large
    multi-core instances, or the per-pair reference for layouts the packed
    engines cannot represent (``payload_bits > 7``, sub-word ranges).
    Failed insertions (rare) are repaired exactly in every case.

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
    plan = plan_counts(collection, requested=compute, workers=workers,
                       n_pairs=a.n_rows * b.n_cols)
    if plan.backend == "host":
        product = _host_cross(collection, rows_idx, cols_idx)
        if result_format == "sparse":
            acc = SparseAccumulator(a.n_rows, b.n_cols, symmetric=False,
                                    min_support=min_support)
            acc.add_block(np.arange(a.n_rows), np.arange(b.n_cols), product)
            product = acc.finalize()
        return _repair_cross(product, collection, a, b)
    if plan.backend == "parallel":
        from repro.parallel.executor import ParallelPairCounter

        engine = ParallelPairCounter(collection, workers=workers)
    else:
        engine = nullcontext(collection.batch_counter())
    with engine as counter:
        if result_format == "dense":
            product = counter.count_cross(rows_idx, cols_idx)
        else:
            product = counter.count_cross_result(rows_idx, cols_idx,
                                                 min_support=min_support)
    return _repair_cross(product, collection, a, b)


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

    product = _repair_cross(counts[:a.n_rows, a.n_rows:], collection, a, b)
    return product, result.device_seconds
