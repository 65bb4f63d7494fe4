"""Property tests for the CountResult API: sparse vs the dense oracle.

The redesign's contract, pinned across every counting backend: a sparse
result pruned at ``min_support`` filtered with ``frequent_pairs(ms)``
(``ms >= floor``) is **bit-identical** to the dense matrix computed first
and filtered afterwards.  It holds for batch, parallel and sharded engines,
for byte and non-byte payload layouts, for tombstoned incremental
artifacts, and in the empty / all-pruned edge cases.
"""

import numpy as np
import pytest

from repro.core.collection import BatmapCollection
from repro.core.config import BatmapConfig
from repro.core.plan import PlanFeatures, plan_counts, resolve_result_format
from repro.core.results import (
    CountResult,
    DenseCountResult,
    SparseCountResult,
    as_count_result,
    coalesce_coo,
)
from repro.core.sharded import ShardedCollection
from repro.mining.support import PairSupports
from tests.conftest import random_sets

UNIVERSE = 600


def dense_frequent(counts: np.ndarray, ms: int):
    """Oracle: threshold the strict upper triangle of a dense matrix."""
    iu, ju = np.triu_indices(counts.shape[0], k=1)
    values = counts[iu, ju]
    keep = values >= ms
    return iu[keep], ju[keep], values[keep]


def assert_matches_dense(result, dense: np.ndarray, ms: int):
    ri, rj, rv = result.frequent_pairs(ms)
    oi, oj, ov = dense_frequent(dense, ms)
    assert np.array_equal(ri, oi)
    assert np.array_equal(rj, oj)
    assert np.array_equal(rv, ov)


@pytest.fixture
def skewed_sets(rng):
    """A few large sets among many small ones, so tile pruning bites."""
    sets = []
    for i in range(60):
        size = 200 if i % 9 == 0 else rng.integers(1, 12)
        sets.append(np.unique(rng.integers(0, UNIVERSE, size=size)))
    return sets


class TestBatchEngine:
    @pytest.mark.parametrize("ms", [0, 1, 3, 25])
    def test_sparse_matches_dense_filter(self, skewed_sets, ms):
        coll = BatmapCollection.build(skewed_sets, UNIVERSE, rng=3)
        dense = coll.count_all_pairs()
        result = coll.batch_counter().count_result(
            result_format="sparse", min_support=ms)
        assert isinstance(result, SparseCountResult)
        assert_matches_dense(result, dense, max(1, ms))
        if ms >= 25:
            assert result.stats["tiles_skipped"] > 0

    def test_diagonal_round_trips(self, skewed_sets):
        coll = BatmapCollection.build(skewed_sets, UNIVERSE, rng=3)
        dense = coll.count_all_pairs()
        result = coll.batch_counter().count_result(result_format="sparse")
        assert np.array_equal(result.diagonal(), np.diag(dense))

    def test_cross_rectangle_matches_dense(self, rng):
        sets = random_sets(rng, 30, UNIVERSE, max_size=120)
        coll = BatmapCollection.build(sets, UNIVERSE, rng=5)
        rows = np.arange(12)
        cols = np.arange(12, 30)
        dense = coll.batch_counter().count_cross(rows, cols)
        result = coll.batch_counter().count_cross_result(rows, cols)
        assert not result.symmetric
        ri, rj, rv = result.frequent_pairs(1)
        oi, oj = np.nonzero(dense >= 1)
        assert np.array_equal(ri, oi) and np.array_equal(rj, oj)
        assert np.array_equal(rv, dense[oi, oj])


class TestParallelEngine:
    def test_sparse_and_top_k_match_batch(self, skewed_sets):
        from repro.parallel.executor import ParallelPairCounter

        coll = BatmapCollection.build(skewed_sets, UNIVERSE, rng=3)
        dense = coll.count_all_pairs()
        with ParallelPairCounter(coll, workers=2) as counter:
            for ms in (0, 2, 25):
                assert_matches_dense(
                    counter.count_result(result_format="sparse", min_support=ms),
                    dense, max(1, ms))


class TestShardedEngine:
    @pytest.mark.parametrize("workers_compute", [("host", None), ("parallel", 2)])
    def test_sparse_matches_dense_counts(self, tmp_path, rng, workers_compute):
        compute, workers = workers_compute
        sets = random_sets(rng, 80, UNIVERSE, max_size=150)
        sharded = ShardedCollection.build(
            sets, UNIVERSE, tmp_path / "spill", rng=7,
            memory_budget=512 << 10)
        from repro.parallel.sharded import ShardedPairCounter

        dense = ShardedPairCounter(sharded, compute="host").counts()
        counter = ShardedPairCounter(
            sharded, compute=compute, workers=workers,
            result_format="sparse", min_support=3)
        result = counter.count_result()
        assert_matches_dense(result, dense, 3)

    def test_tombstoned_artifact(self, tmp_path, rng):
        sets = random_sets(rng, 60, UNIVERSE, max_size=100)
        sharded = ShardedCollection.build(
            sets, UNIVERSE, tmp_path / "spill", rng=9,
            memory_budget=512 << 10)
        sharded.delete([0, 7, 33, 59])
        reloaded = ShardedCollection.from_spill(tmp_path / "spill")
        from repro.parallel.sharded import ShardedPairCounter

        dense = ShardedPairCounter(reloaded, compute="host").counts()
        counter = ShardedPairCounter(
            reloaded, compute="host", result_format="sparse", min_support=2)
        assert_matches_dense(counter.count_result(), dense, 2)


class TestPayloadWidths:
    """Non-byte layouts route through the per-pair reference path."""

    @pytest.mark.parametrize("payload_bits", [5, 7])
    def test_sparse_matches_dense(self, rng, payload_bits):
        config = BatmapConfig(payload_bits=payload_bits)
        sets = random_sets(rng, 25, UNIVERSE, max_size=80)
        coll = BatmapCollection.build(sets, UNIVERSE, config=config, rng=11)
        dense = coll.count_all_pairs()
        result = coll.count_result(result_format="sparse", min_support=2)
        assert_matches_dense(result, dense, 2)


class TestEdgeCases:
    def test_all_pruned_is_empty(self, rng):
        sets = random_sets(rng, 12, UNIVERSE, max_size=10)
        coll = BatmapCollection.build(sets, UNIVERSE, rng=1)
        result = coll.batch_counter().count_result(
            result_format="sparse", min_support=10_000)
        assert result.nnz == 0
        assert result.stats["tiles_skipped"] == result.stats["tiles_total"] > 0
        ri, rj, rv = result.frequent_pairs(10_000)
        assert ri.size == rj.size == rv.size == 0

    def test_disjoint_sets_sparse_empty(self):
        sets = [np.arange(0, 10), np.arange(100, 110), np.arange(300, 310)]
        coll = BatmapCollection.build(sets, UNIVERSE, rng=2)
        result = coll.batch_counter().count_result(result_format="sparse")
        assert result.nnz == 0                      # off-diagonal empty
        assert result.stored_entries == 3           # diagonal supports kept
        assert np.array_equal(result.diagonal(),
                              np.diag(coll.count_all_pairs()))

    def test_refuses_filter_below_floor(self, rng):
        sets = random_sets(rng, 10, UNIVERSE, max_size=60)
        coll = BatmapCollection.build(sets, UNIVERSE, rng=4)
        result = coll.batch_counter().count_result(
            result_format="sparse", min_support=5)
        with pytest.raises(ValueError):
            result.frequent_pairs(2)

class TestResultPrimitives:
    def test_coalesce_sums_duplicates_drops_zeros(self):
        rows, cols, values = coalesce_coo(
            np.array([3, 1, 3, 2]), np.array([4, 2, 4, 2]),
            np.array([1, 5, 2, 0]))
        assert rows.tolist() == [1, 3]
        assert cols.tolist() == [2, 4]
        assert values.tolist() == [5, 3]

    @pytest.mark.parametrize("high", [50, 1 << 31, 1 << 40])
    def test_coalesce_matches_lexsort_reference(self, rng, high):
        """Shuffled duplicates at small and huge indices: the lexsort canon."""
        coords = rng.integers(0, high, size=(300, 2))
        picks = rng.integers(0, coords.shape[0], size=2000)
        rows, cols = coords[picks, 0], coords[picks, 1]
        values = rng.integers(-3, 4, size=picks.size)
        order = np.lexsort((cols, rows))
        keys = np.stack([rows[order], cols[order]], axis=1)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        sums = np.zeros(uniq.shape[0], dtype=np.int64)
        np.add.at(sums, inverse.ravel(), values[order])
        keep = sums != 0

        out_rows, out_cols, out_values = coalesce_coo(rows, cols, values)
        assert out_rows.tolist() == uniq[keep, 0].tolist()
        assert out_cols.tolist() == uniq[keep, 1].tolist()
        assert out_values.tolist() == sums[keep].tolist()

    def test_dense_matrix_access_is_silent(self, rng):
        dense = DenseCountResult(np.zeros((4, 4), dtype=np.int64))
        dense.matrix()                               # oracle path: no warning

    def test_sparse_matrix_access_warns(self):
        sparse = SparseCountResult(
            4, rows=np.array([0]), cols=np.array([1]), values=np.array([2]))
        with pytest.deprecated_call():
            sparse.matrix()

    def test_as_count_result_wraps_and_passes_through(self):
        raw = np.zeros((3, 3), dtype=np.int64)
        wrapped = as_count_result(raw)
        assert isinstance(wrapped, DenseCountResult)
        assert as_count_result(wrapped) is wrapped

    def test_pair_supports_accepts_count_result(self, rng):
        sets = random_sets(rng, 10, UNIVERSE, max_size=60)
        coll = BatmapCollection.build(sets, UNIVERSE, rng=8)
        dense = coll.count_all_pairs()
        result = coll.batch_counter().count_result(result_format="sparse")
        supports = PairSupports(counts=result,
                                item_ids=np.arange(10, dtype=np.int64))
        for i in range(10):
            for j in range(10):
                assert supports.support(i, j) == dense[i, j]

    def test_plan_features_carry_format_and_floor(self, rng):
        sets = random_sets(rng, 10, UNIVERSE, max_size=40)
        coll = BatmapCollection.build(sets, UNIVERSE, rng=1)
        features = PlanFeatures.from_collection(
            coll, result_format="sparse", min_support=6)
        plan = plan_counts(features)
        assert plan.result_format == "sparse"
        assert plan.min_support == 6

    def test_auto_resolves_against_budget(self):
        # 100 sets -> 80 kB dense result: sparse under a smaller budget.
        assert resolve_result_format("auto", 100, None) == "dense"
        assert resolve_result_format("auto", 100, 1 << 20) == "dense"
        assert resolve_result_format("auto", 100, 40_000) == "sparse"

    def test_count_all_pairs_legacy_signature_unchanged(self, rng):
        sets = random_sets(rng, 8, UNIVERSE, max_size=30)
        coll = BatmapCollection.build(sets, UNIVERSE, rng=2)
        out = coll.count_all_pairs()
        assert isinstance(out, np.ndarray)           # deprecation shim intact
        assert not isinstance(out, CountResult)


class TestMinerIntegration:
    """End-to-end: sparse mining (repair included) equals dense-then-filter."""

    def _database(self, rng, n_items=70, n_txns=350):
        from repro.datasets.transactions import TransactionDatabase

        txns = [np.unique(rng.integers(0, n_items, size=rng.integers(2, 10)))
                for _ in range(n_txns)]
        return TransactionDatabase(
            transactions=[t for t in txns if t.size], n_items=n_items)

    @pytest.mark.parametrize("compute", ["host"])
    def test_mine_sparse_matches_dense(self, rng, compute):
        from repro.mining.pair_mining import BatmapPairMiner

        db = self._database(rng)
        miner = BatmapPairMiner(compute=compute)
        dense = miner.mine(db, min_support=3, rng=1)
        sparse = miner.mine(db, min_support=3, rng=1, result_format="sparse")
        assert isinstance(sparse.supports.counts, SparseCountResult)
        assert (sparse.supports.frequent_pairs(3)
                == dense.supports.frequent_pairs(3))

    def test_mine_device_refuses_sparse(self, rng):
        """The simulator models the dense kernel only."""
        from repro.mining.pair_mining import BatmapPairMiner

        db = self._database(rng)
        with pytest.raises(ValueError, match="dense kernel only"):
            BatmapPairMiner(compute="device").mine(
                db, min_support=3, rng=1, result_format="sparse")
        with pytest.raises(ValueError, match="dense kernel only"):
            BatmapPairMiner(compute="device", result_format="sparse").mine(
                db, min_support=3, rng=1)

    def test_mine_stream_sparse_matches_dense(self, tmp_path, rng):
        from repro.mining.pair_mining import BatmapPairMiner

        db = self._database(rng)
        path = tmp_path / "db.dat"
        path.write_text("\n".join(
            " ".join(str(i) for i in t) for t in db.transactions) + "\n")
        miner = BatmapPairMiner(compute="auto")
        dense = miner.mine_stream(path, min_support=3, rng=2,
                                  memory_budget="8M")
        sparse = miner.mine_stream(path, min_support=3, rng=2,
                                   memory_budget="8M", result_format="sparse")
        assert isinstance(sparse.supports.counts, SparseCountResult)
        assert (sparse.supports.frequent_pairs(3)
                == dense.supports.frequent_pairs(3))

    def test_serve_top_k_after_delete_matches_pair_counts(self, tmp_path, rng):
        from repro.serve.engine import SpillQueryEngine

        sets = random_sets(rng, 50, UNIVERSE, max_size=120)
        sharded = ShardedCollection.build(
            sets, UNIVERSE, tmp_path / "spill", rng=5,
            memory_budget=256 << 10)
        sharded.delete([3, 17])
        reloaded = ShardedCollection.from_spill(tmp_path / "spill")
        engine = SpillQueryEngine(reloaded)
        requests = [(0, 1), (5, 10), (40, 47)]
        expected = []
        for set_id, k in requests:
            # rank the per-pair folds, not the rectangle walk top-k reads
            others = np.arange(engine.n_sets)
            row = engine.count_pairs(np.stack([np.full_like(others, set_id),
                                               others], axis=1))
            ranking = row.copy()
            ranking[set_id] = -1
            order = np.lexsort((others, -ranking))[:min(k, engine.n_sets - 1)]
            expected.append([(int(j), int(row[j])) for j in order])
        assert engine.top_k_batch(requests) == expected
