"""Sparse results keep only what can matter, and repair stays exact.

A sparse sink given the sets with failed insertions drops every count
below ``min_support`` except the diagonal and those sets' rows and columns
(the only counts repair can raise).  These tests force failures with
``max_loop=1`` and pin the surviving pairs to the dense pipeline filtered
afterwards, for the in-memory and the streaming miner, on the serial engine
and on threads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BatmapConfig
from repro.core.results import SparseAccumulator, SparseCountResult, coalesce_coo
from repro.core.sharded import fixed_resident_bytes
from repro.datasets.fimi_io import read_fimi, write_fimi
from repro.datasets.synthetic import generate_density_instance
from repro.mining.pair_mining import BatmapPairMiner
from repro.mining.postprocess import repair_increments

FORCED_FAILURES = BatmapConfig(max_loop=1, seed=3)


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    db = generate_density_instance(48, 0.3, 9000, rng=13)
    path = tmp_path_factory.mktemp("sink") / "db.fimi"
    write_fimi(db, path)
    return path, db


@pytest.mark.parametrize("compute", ["batch", "parallel"])
@pytest.mark.parametrize("min_support", [2, 40, 90])
def test_sparse_mine_and_stream_equal_dense_then_filter(instance, compute, min_support,
                                                         monkeypatch):
    monkeypatch.setattr("repro.parallel.executor.PARALLEL_MIN_SETS", 1)
    path, db = instance
    dense = BatmapPairMiner(compute="batch", config=FORCED_FAILURES).mine(
        read_fimi(path), min_support=min_support, rng=2)
    assert dense.failed_insertions > 0, "max_loop=1 must force failed insertions"
    expected = dense.supports.frequent_pairs(min_support)

    miner = BatmapPairMiner(compute=compute, workers=2, config=FORCED_FAILURES,
                            result_format="sparse")
    mem = miner.mine(read_fimi(path), min_support=min_support, rng=2)
    budget = fixed_resident_bytes(db.n_transactions, db.n_items) + 400_000
    stream = miner.mine_stream(path, min_support=min_support, rng=2,
                               memory_budget=budget, result_format="sparse")
    assert mem.supports.frequent_pairs(min_support) == expected
    assert stream.supports.frequent_pairs(min_support) == expected
    if min_support > 2:
        all_nonzero = np.count_nonzero(np.triu(dense.supports.counts))
        assert mem.supports.counts.stored_entries < all_nonzero


def test_sink_keeps_diagonal_and_repairable_rows():
    block = np.array([[9, 1, 2], [1, 9, 3], [2, 3, 9]])
    acc = SparseAccumulator(3, min_support=5, repairable=[False, True, False])
    acc.add_block(np.arange(3), np.arange(3), np.triu(block))
    got = acc.finalize()
    # (0, 2) = 2 is below the floor and touches no repairable set
    assert list(zip(got.rows.tolist(), got.cols.tolist(), got.values.tolist())) == [
        (0, 0, 9), (0, 1, 1), (1, 1, 9), (1, 2, 3), (2, 2, 9)]


def test_sink_without_repairable_keeps_every_nonzero():
    block = np.array([[9, 1], [0, 9]])
    acc = SparseAccumulator(2, min_support=5)
    acc.add_block(np.arange(2), np.arange(2), block)
    got = acc.finalize()
    assert got.values.tolist() == [9, 1, 9]


def _reference_increments(failures, transactions):
    """The per-pair loop :func:`repair_increments` replaced."""
    rows, cols = [], []
    for b, failed_items in failures.items():
        items = list(transactions[b])
        failed = set(failed_items)
        for x in range(len(items)):
            for y in range(x + 1, len(items)):
                if items[x] in failed or items[y] in failed:
                    rows.append(min(items[x], items[y]))
                    cols.append(max(items[x], items[y]))
        for a in failed:
            rows.append(a)
            cols.append(a)
    return rows, cols


@pytest.mark.parametrize("seed", range(5))
def test_repair_increments_match_the_pair_loop(seed):
    rng = np.random.default_rng(seed)
    transactions = [np.sort(rng.choice(30, size=int(rng.integers(0, 12)), replace=False))
                    for _ in range(40)]
    failures = {}
    for b, items in enumerate(transactions):
        if items.size and rng.random() < 0.5:
            failures[b] = rng.choice(items, size=int(rng.integers(1, items.size + 1)),
                                     replace=False).tolist()
    rows, cols, values = repair_increments(failures, transactions)
    ref_rows, ref_cols = _reference_increments(failures, transactions)
    got = coalesce_coo(rows, cols, values)
    ref = coalesce_coo(ref_rows, ref_cols, np.ones(len(ref_rows), dtype=np.int64))
    for a, b in zip(got, ref):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed", range(5))
def test_add_entries_merge_equals_one_coalesce(seed):
    rng = np.random.default_rng(seed)
    n = 25
    rows, cols = rng.integers(0, n, size=(2, 300))
    values = rng.integers(1, 5, size=300)
    result = SparseCountResult(n, rows=np.minimum(rows, cols), cols=np.maximum(rows, cols),
                               values=values)
    add_rows, add_cols = rng.integers(0, n, size=(2, 80))
    add_values = rng.integers(-2, 3, size=80)
    expected = coalesce_coo(
        np.concatenate([result.rows, np.minimum(add_rows, add_cols)]),
        np.concatenate([result.cols, np.maximum(add_rows, add_cols)]),
        np.concatenate([result.values, add_values]))
    result.add_entries(add_rows, add_cols, add_values)
    for a, b in zip((result.rows, result.cols, result.values), expected):
        np.testing.assert_array_equal(a, b)


def _extract_then_threshold(sink, rows, cols, block):
    """The sink's extraction before tiles were thresholded first (reference)."""
    r_local, c_local = np.nonzero(block)
    values = block[r_local, c_local]
    rows, cols = np.asarray(rows)[r_local], np.asarray(cols)[c_local]
    keep = values >= sink.min_support
    keep |= rows == cols
    keep |= sink.repairable[rows]
    keep |= sink.repairable[cols]
    rows, cols, values = rows[keep], cols[keep], values[keep]
    flip = rows > cols
    return (np.where(flip, cols, rows), np.where(flip, rows, cols), values)


@pytest.mark.parametrize("seed", range(8))
def test_thresholded_tile_extraction_matches_the_reference(seed):
    """Random tiles with repairable rows/cols and a diagonal: same entries."""
    rng = np.random.default_rng(seed)
    n = 40
    repairable = rng.random(n) < 0.15
    sink = SparseAccumulator(n, min_support=int(rng.integers(2, 6)),
                             repairable=repairable)
    for _ in range(6):
        lo = int(rng.integers(0, n - 10))
        rows = np.arange(lo, lo + int(rng.integers(1, 10)))
        cols = np.sort(rng.choice(n, int(rng.integers(1, 12)), replace=False))
        block = rng.integers(0, 8, size=(rows.size, cols.size)) * (
            rng.random((rows.size, cols.size)) < 0.6)
        before = len(sink._parts)
        sink.add_block(rows, cols, block)
        want = _extract_then_threshold(sink, rows, cols, block)
        got = sink._parts[before] if len(sink._parts) > before else (
            np.zeros(0, np.int64),) * 3
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
