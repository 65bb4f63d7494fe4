"""Tests for the batmap mining pipeline: preprocessing, repair, end-to-end agreement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.apriori import AprioriMiner
from repro.baselines.fpgrowth import FPGrowthMiner
from repro.core.config import BatmapConfig
from repro.datasets.synthetic import generate_fixed_transactions
from repro.datasets.transactions import TransactionDatabase
from repro.kernels.driver import run_batmap_pair_counts
from repro.mining.itemsets import BatmapItemsetMiner
from repro.mining.pair_mining import BatmapPairMiner
from repro.mining.postprocess import reorder_counts, repair_pair_counts, upper_triangle_pairs
from repro.mining.preprocess import preprocess
from repro.mining.support import PairSupports


def brute_force_pair_matrix(db: TransactionDatabase) -> np.ndarray:
    """Exact pair-support matrix (diagonal = item supports)."""
    n = db.n_items
    out = np.zeros((n, n), dtype=np.int64)
    for t in db.transactions:
        items = t.tolist()
        for a in items:
            out[a, a] += 1
        for ai in range(len(items)):
            for bi in range(ai + 1, len(items)):
                a, b = items[ai], items[bi]
                out[a, b] += 1
                out[b, a] += 1
    return out


class TestPreprocess:
    def test_basic_structure(self):
        db = generate_fixed_transactions(20, 0.2, 100, rng=0)
        pre = preprocess(db, rng=0)
        assert pre.n_items == 20
        assert pre.universe_size == db.n_transactions
        assert pre.batmap_bytes > 0
        assert pre.item_map.tolist() == list(range(20))

    def test_min_support_filtering(self):
        db = TransactionDatabase([[0, 1], [1, 2], [1]], n_items=3)
        pre = preprocess(db, min_support=2, rng=0)
        assert pre.n_items == 1          # only item 1 survives
        assert pre.item_map.tolist() == [1]

    def test_no_filtering_option(self):
        db = TransactionDatabase([[0, 1], [1, 2], [1]], n_items=3)
        pre = preprocess(db, min_support=2, filter_items=False, rng=0)
        assert pre.n_items == 3

    def test_rejects_empty_database_after_filter(self):
        db = TransactionDatabase([[0]], n_items=1)
        with pytest.raises(ValueError):
            preprocess(db, min_support=0)

    def test_tidlists_become_batmaps(self):
        db = TransactionDatabase([[0, 1], [0], [0, 1]], n_items=2)
        pre = preprocess(db, rng=0)
        assert pre.collection.batmap(0).set_size == 3   # item 0 in 3 transactions
        assert pre.collection.batmap(1).set_size == 2


class TestPostprocess:
    def test_reorder_counts_roundtrip(self):
        db = generate_fixed_transactions(10, 0.3, 50, rng=1)
        pre = preprocess(db, rng=1)
        result = run_batmap_pair_counts(pre.collection, tile_size=4)
        reordered = reorder_counts(result.counts, pre.collection)
        assert np.array_equal(reordered, pre.collection.count_all_pairs())

    def test_reorder_shape_checked(self):
        db = generate_fixed_transactions(5, 0.3, 20, rng=0)
        pre = preprocess(db, rng=0)
        with pytest.raises(ValueError):
            reorder_counts(np.zeros((3, 3), dtype=np.int64), pre.collection)

    def test_repair_restores_exact_counts(self):
        """With under-provisioned tables many insertions fail; repair must restore exactness."""
        db = generate_fixed_transactions(12, 0.5, 120, rng=2)
        config = BatmapConfig(max_loop=2, range_multiplier=1.0)
        pre = preprocess(db, config=config, rng=3)
        failures = pre.failed_insertions()
        assert failures, "expected forced insertion failures with max_loop=2"
        counts = reorder_counts(run_batmap_pair_counts(pre.collection, tile_size=6).counts,
                                pre.collection)
        repaired = repair_pair_counts(counts, pre.collection, pre.database)
        assert np.array_equal(repaired, brute_force_pair_matrix(db))

    def test_repair_without_failures_is_identity(self):
        db = generate_fixed_transactions(8, 0.3, 40, rng=4)
        pre = preprocess(db, rng=4)
        counts = reorder_counts(run_batmap_pair_counts(pre.collection, tile_size=4).counts,
                                pre.collection)
        repaired = repair_pair_counts(counts, pre.collection, pre.database)
        assert np.array_equal(repaired, counts)

    def test_repair_shape_checked(self):
        db = generate_fixed_transactions(5, 0.3, 20, rng=0)
        pre = preprocess(db, rng=0)
        with pytest.raises(ValueError):
            repair_pair_counts(np.zeros((2, 2), dtype=np.int64), pre.collection, pre.database)

    def test_upper_triangle_pairs(self):
        counts = np.array([[5, 2, 0], [2, 4, 3], [0, 3, 6]], dtype=np.int64)
        pairs = upper_triangle_pairs(counts, min_support=2)
        assert pairs == {(0, 1): 2, (1, 2): 3}
        with pytest.raises(ValueError):
            upper_triangle_pairs(np.zeros((2, 3)), 1)


class TestPairSupports:
    def _supports(self):
        counts = np.array([[4, 2], [2, 3]], dtype=np.int64)
        return PairSupports(counts=counts, item_ids=np.array([7, 9]))

    def test_support_lookup_by_original_id(self):
        s = self._supports()
        assert s.support(7, 9) == 2
        assert s.support(7, 7) == 4
        with pytest.raises(KeyError):
            s.support(1, 9)

    def test_frequent_pairs_and_topk(self):
        s = self._supports()
        assert s.frequent_pairs(1) == {(7, 9): 2}
        assert s.frequent_pairs(3) == {}
        assert s.top_k(1) == [((7, 9), 2)]
        assert s.total_pairs_with_support(2) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PairSupports(counts=np.zeros((2, 3)), item_ids=np.array([1, 2]))
        with pytest.raises(ValueError):
            PairSupports(counts=np.zeros((2, 2)), item_ids=np.array([1]))


class TestEndToEnd:
    @pytest.mark.parametrize("min_support", [1, 2, 4])
    def test_matches_fpgrowth(self, min_support):
        db = generate_fixed_transactions(25, 0.25, 150, rng=5)
        miner = BatmapPairMiner(tile_size=8)
        got = miner.mine_pairs(db, 25, min_support, rng=0)
        expected = FPGrowthMiner().mine_pairs(db.transactions, 25, min_support)
        assert got == expected

    def test_report_fields(self):
        db = generate_fixed_transactions(15, 0.3, 80, rng=6)
        report = BatmapPairMiner(compute="device", tile_size=8).mine(
            db, min_support=2, rng=0)
        assert report.preprocess_seconds > 0
        assert report.counting_seconds > 0
        assert report.total_seconds >= report.counting_seconds
        assert report.device_bytes > 0
        assert report.batmap_bytes > 0
        assert report.tiles >= 1
        assert 0 < report.coalescing_efficiency <= 1.0

    def test_exact_even_with_forced_failures(self):
        db = generate_fixed_transactions(10, 0.5, 100, rng=7)
        miner = BatmapPairMiner(
            tile_size=8, config=BatmapConfig(max_loop=2, range_multiplier=1.0))
        report = miner.mine(db, min_support=1, rng=1)
        assert report.failed_insertions > 0
        expected = brute_force_pair_matrix(db)
        assert np.array_equal(report.supports.counts, expected)

    def test_min_support_validated(self):
        db = generate_fixed_transactions(5, 0.3, 20, rng=0)
        with pytest.raises(ValueError):
            BatmapPairMiner().mine(db, min_support=0)

    @given(st.integers(0, 2**31))
    @settings(max_examples=8, deadline=None)
    def test_property_pair_supports_exact(self, seed):
        db = generate_fixed_transactions(12, 0.3, 60, rng=seed)
        report = BatmapPairMiner(tile_size=8).mine(db, min_support=1, rng=seed % 3)
        assert np.array_equal(report.supports.counts, brute_force_pair_matrix(db))


class TestItemsetMiner:
    def test_matches_apriori_to_size_three(self):
        db = generate_fixed_transactions(14, 0.35, 80, rng=8)
        result = BatmapItemsetMiner(BatmapPairMiner(tile_size=8), max_size=3).mine(
            db, min_support=4, rng=0)
        expected = AprioriMiner(max_size=3).mine(db.transactions, 14, 4).itemsets
        assert result.itemsets == expected
        assert result.max_size() <= 3

    def test_all_sizes_match_apriori(self):
        db = generate_fixed_transactions(10, 0.4, 50, rng=9)
        result = BatmapItemsetMiner(BatmapPairMiner(tile_size=8)).mine(db, min_support=6, rng=0)
        expected = AprioriMiner().mine(db.transactions, 10, 6).itemsets
        assert result.itemsets == expected

    def test_size_one_only(self):
        db = generate_fixed_transactions(8, 0.3, 40, rng=10)
        result = BatmapItemsetMiner(BatmapPairMiner(tile_size=8), max_size=1).mine(
            db, min_support=2, rng=0)
        assert all(len(k) == 1 for k in result.itemsets)

    def test_of_size_accessor(self):
        db = generate_fixed_transactions(10, 0.4, 50, rng=11)
        result = BatmapItemsetMiner(BatmapPairMiner(tile_size=8), max_size=2).mine(
            db, min_support=5, rng=0)
        pairs = result.of_size(2)
        assert all(len(k) == 2 for k in pairs)
        assert result.pair_phase_seconds > 0


class TestHostComputeMode:
    def test_host_matches_device_counts(self):
        db = generate_fixed_transactions(20, 0.3, 120, rng=8)
        device = BatmapPairMiner(compute="device", tile_size=8).mine(
            db, min_support=1, rng=0)
        host = BatmapPairMiner(compute="host").mine(db, min_support=1, rng=0)
        assert np.array_equal(device.supports.counts, host.supports.counts)
        # the host path has no device model attached but does time counting
        assert host.device_seconds == 0.0
        assert host.tiles == 0
        assert host.counting_seconds > 0
        assert host.total_seconds >= host.counting_seconds

    def test_invalid_compute_rejected(self):
        db = generate_fixed_transactions(10, 0.3, 40, rng=8)
        with pytest.raises(ValueError):
            BatmapPairMiner(compute="cloud").mine(db, min_support=1, rng=0)


class TestParallelComputeMode:
    def test_parallel_matches_host_counts_with_fallback(self):
        """Small instance: compute="parallel" drops to the batch engine."""
        db = generate_fixed_transactions(20, 0.3, 120, rng=8)
        batch = BatmapPairMiner(compute="batch").mine(db, min_support=1, rng=0)
        parallel = BatmapPairMiner(compute="parallel", workers=2).mine(
            db, min_support=1, rng=0)
        assert np.array_equal(batch.supports.counts, parallel.supports.counts)
        assert batch.count_backend == "batch"
        assert parallel.count_backend == "batch"      # fell back: tiny input

    def test_parallel_forced_through_pool(self, monkeypatch):
        import repro.parallel.executor as executor_module

        monkeypatch.setattr(executor_module, "PARALLEL_MIN_SETS", 1)
        db = generate_fixed_transactions(20, 0.3, 120, rng=8)
        batch = BatmapPairMiner(compute="batch").mine(db, min_support=1, rng=0)
        parallel = BatmapPairMiner(compute="parallel", workers=2).mine(
            db, min_support=1, rng=0)
        assert np.array_equal(batch.supports.counts, parallel.supports.counts)
        assert parallel.count_backend == "parallel"
        assert parallel.device_seconds == 0.0
        assert parallel.counting_seconds > 0

    @pytest.mark.parametrize("compute", ["auto", "batch", "parallel"])
    def test_mine_plans_once(self, monkeypatch, compute):
        import sys

        import repro.core.plan as plan_module

        calls = []
        real = plan_module.plan_counts

        def counting(*args, **kwargs):
            plan = real(*args, **kwargs)
            calls.append(plan.backend)
            return plan

        # every module that bound the planner by name
        for module in list(sys.modules.values()):
            if getattr(module, "plan_counts", None) is real:
                monkeypatch.setattr(module, "plan_counts", counting)
        db = generate_fixed_transactions(20, 0.3, 120, rng=8)
        report = BatmapPairMiner(compute=compute, workers=2).mine(
            db, min_support=1, rng=0)
        assert calls == [report.count_backend]

    def test_device_backend_recorded(self):
        db = generate_fixed_transactions(10, 0.3, 40, rng=8)
        report = BatmapPairMiner(compute="device", tile_size=8).mine(
            db, min_support=1, rng=0)
        assert report.count_backend == "kernel"
