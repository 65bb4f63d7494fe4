"""Counting shapes of the one tile walk that no older test covers.

* the sparse boolean-matrix product with a pruning floor, on a byte-packable
  layout (a rectangle walk) and on ``payload_bits=9`` (no packed form: the
  planner routes it to the per-pair engine);
* a spilled collection of three shards with tombstones and ``max_loop=1``
  failed insertions: its sparse, top-k and rectangle counts equal those of
  the in-memory collection built from the live sets, inline and on threads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import Shard, TilePool, count_shards
from repro.core.collection import BatmapCollection
from repro.core.config import BatmapConfig
from repro.core.sharded import ShardedCollection
from repro.matrix.boolean import SparseBooleanMatrix
from repro.matrix.multiply import multiply_batmap, multiply_dense
from repro.parallel.sharded import ShardedPairCounter
from repro.serve.engine import SpillQueryEngine
from tests.conftest import random_sets

UNIVERSE = 400
CONFIG = BatmapConfig(max_loop=1)
DELETED = [2, 9, 10, 30]


def frequent(matrix: np.ndarray, ms: int):
    rows, cols = np.nonzero(matrix >= ms)
    return rows, cols, matrix[rows, cols]


class TestSparseProduct:
    @pytest.mark.parametrize("config", [BatmapConfig(), BatmapConfig(payload_bits=9)],
                             ids=["byte-packed", "payload-9"])
    @pytest.mark.parametrize("min_support", [1, 3, 6])
    def test_equals_dense_then_filter(self, config, min_support):
        a = SparseBooleanMatrix.random(14, 60, 0.3, rng=1)
        b = SparseBooleanMatrix.random(60, 11, 0.3, rng=2)
        dense = multiply_dense(a, b)
        result = multiply_batmap(a, b, rng=0, config=config, result_format="sparse",
                                 min_support=min_support)
        assert not result.symmetric
        assert result.min_support == min_support
        got = result.frequent_pairs(min_support)
        for have, want in zip(got, frequent(dense, min_support)):
            np.testing.assert_array_equal(have, want)

    def test_pruning_skips_tiles_and_repairs_failures(self):
        a = SparseBooleanMatrix.random(12, 40, 0.4, rng=3)
        b = SparseBooleanMatrix.random(40, 9, 0.4, rng=4)
        config = BatmapConfig(range_multiplier=1.0, max_loop=4)
        dense = multiply_dense(a, b)
        floor = int(dense.max())
        result = multiply_batmap(a, b, rng=1, config=config, result_format="sparse",
                                 min_support=floor)
        for have, want in zip(result.frequent_pairs(floor), frequent(dense, floor)):
            np.testing.assert_array_equal(have, want)


class TestOrderedAxes:
    """Slots and output ids need not ascend: no axis may be taken for a slice."""

    @pytest.fixture
    def index(self):
        rng = np.random.default_rng(3)
        sets = [np.sort(rng.choice(UNIVERSE, size=40, replace=False)) for _ in range(8)]
        return BatmapCollection.build(sets, UNIVERSE, rng=1).batch_counter().index

    def test_rectangle_rows_in_any_order(self, index):
        full = index.all_pairs()
        assert index.n_classes == 1
        rows = np.array([0, 2, 1, 3, 5, 4, 6, 7])
        np.testing.assert_array_equal(index.cross_index(index, rows, rows),
                                      full[np.ix_(rows, rows)])

    @pytest.mark.parametrize("result_format", ["dense", "sparse"])
    def test_triangle_into_permuted_ids(self, index, result_format):
        full = index.all_pairs()
        ids = np.array([0, 2, 1, 3, 5, 4, 6, 7])
        want = np.empty_like(full)
        want[np.ix_(ids, ids)] = full
        result = count_shards([Shard(index, np.arange(8), ids)], shape=full.shape,
                              result_format=result_format)
        for have, oracle_part in zip(result.frequent_pairs(1), frequent(np.triu(want, 1), 1)):
            np.testing.assert_array_equal(have, oracle_part)


@pytest.fixture(scope="module")
def spilled(tmp_path_factory):
    """A 3-shard spill with tombstones and failures, plus its live-set oracle."""
    rng = np.random.default_rng(12)
    sets = random_sets(rng, 36, UNIVERSE, min_size=1, max_size=160)
    spill = tmp_path_factory.mktemp("walk") / "spill"
    # one build engine on both sides: with max_loop=1 the failures depend on it
    sharded = ShardedCollection.build(sets, UNIVERSE, spill, rng=4, config=CONFIG,
                                      memory_budget=64 << 20, max_sets_per_shard=12,
                                      build_compute="host")
    assert sharded.n_shards == 3
    sharded.delete(DELETED)
    assert sharded.failed_insertions(), "max_loop=1 must force failures"
    live = [s for k, s in enumerate(sets) if k not in DELETED]
    oracle = BatmapCollection.build(live, UNIVERSE, rng=4, config=CONFIG,
                                    build_compute="host")
    return ShardedCollection.from_spill(spill), oracle


@pytest.fixture(params=["batch", "threads"])
def compute(request, monkeypatch):
    if request.param == "threads":
        monkeypatch.setattr("repro.parallel.executor.PARALLEL_MIN_SETS", 4)
        return "parallel"
    return "batch"


class TestSpillMatchesLiveCollection:
    def test_failed_insertions_match(self, spilled):
        sharded, oracle = spilled
        want = {e: sorted(sets) for e, sets in oracle.failed_insertions().items()}
        assert sharded.failed_insertions() == want

    @pytest.mark.parametrize("min_support", [0, 2, 5])
    def test_sparse(self, spilled, compute, min_support):
        sharded, oracle = spilled
        counter = ShardedPairCounter(sharded, compute=compute, workers=2,
                                     tile_size=5, result_format="sparse",
                                     min_support=min_support)
        assert counter.plan.backend == compute
        want = oracle.count_result(result_format="sparse", min_support=min_support)
        floor = max(1, min_support)
        for have, oracle_part in zip(counter.count_result().frequent_pairs(floor),
                                     want.frequent_pairs(floor)):
            np.testing.assert_array_equal(have, oracle_part)

    def test_dense(self, spilled, compute):
        sharded, oracle = spilled
        counter = ShardedPairCounter(sharded, compute=compute, workers=2, tile_size=5)
        np.testing.assert_array_equal(counter.counts(), oracle.count_all_pairs())

    def test_rectangle(self, spilled, compute):
        sharded, oracle = spilled
        rows = np.array([0, 5, 13, 20, 31])
        want = oracle.batch_counter().count_cross(rows, np.arange(sharded.n_sets))
        engine = SpillQueryEngine(sharded)
        try:
            np.testing.assert_array_equal(engine.count_rows(rows), want)
            # coalesced queries arrive in any order and may repeat
            shuffled = np.array([13, 0, 31, 5, 13, 20, 1, 3, 2])
            np.testing.assert_array_equal(
                engine.count_rows(shuffled),
                oracle.batch_counter().count_cross(shuffled, np.arange(sharded.n_sets)))
        finally:
            engine.close()
        # the same rectangle walked over the counter's lazily attached shards
        counter = ShardedPairCounter(sharded, compute=compute, workers=2)
        columns = counter.shards()
        row_shards = []
        for shard, info in zip(columns, sharded.shards):
            live = sharded.live_positions[info.global_order]
            slots = np.flatnonzero(np.isin(live, rows))
            position = np.searchsorted(rows, live[slots])
            row_shards.append(Shard(shard.index, slots, position))
        pool = TilePool(2) if compute == "parallel" else None
        try:
            result = count_shards(row_shards, columns, shape=want.shape, pool=pool,
                                  band_rows=2)
        finally:
            if pool is not None:
                pool.close()
        np.testing.assert_array_equal(result.matrix(), want)
        sparse = count_shards(row_shards, columns, shape=want.shape,
                              result_format="sparse", min_support=3)
        for have, oracle_part in zip(sparse.frequent_pairs(3), frequent(want, 3)):
            np.testing.assert_array_equal(have, oracle_part)

    def test_served_top_k(self, spilled):
        sharded, oracle = spilled
        dense = oracle.count_all_pairs()
        engine = SpillQueryEngine(sharded)
        try:
            for set_id, k in [(0, 3), (7, 50), (31, 1)]:
                row = dense[set_id].copy()
                row[set_id] = -1
                order = np.lexsort((np.arange(row.size), -row))[:min(k, row.size - 1)]
                assert engine.top_k(set_id, k) == [(int(j), int(dense[set_id, j]))
                                                   for j in order]
        finally:
            engine.close()
