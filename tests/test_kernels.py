"""Tests for the device kernels: pair counting, bitmap baseline, tiling, drivers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.bitmap import BitmapIndex
from repro.core.collection import BatmapCollection
from repro.kernels.driver import run_batmap_pair_counts, run_bitmap_pair_counts
from repro.kernels.pair_count import PairCountKernel
from repro.kernels.tiling import Tile, TileScheduler, pad_to_multiple
from tests.conftest import random_sets


def reorder_to_original(counts_sorted: np.ndarray, coll: BatmapCollection) -> np.ndarray:
    out = np.zeros_like(counts_sorted)
    out[np.ix_(coll.order, coll.order)] = counts_sorted
    return out


class TestTiling:
    def test_pad_to_multiple(self):
        assert pad_to_multiple(0, 16) == 0
        assert pad_to_multiple(1, 16) == 16
        assert pad_to_multiple(16, 16) == 16
        assert pad_to_multiple(17, 16) == 32
        with pytest.raises(ValueError):
            pad_to_multiple(-1, 16)
        with pytest.raises(ValueError):
            pad_to_multiple(4, 0)

    def test_scheduler_counts(self):
        sched = TileScheduler(100, 30)
        assert sched.tiles_per_side == 4
        assert sched.n_tiles == 10          # upper triangle of 4x4
        assert sched.n_tiles_full == 16
        assert len(list(sched)) == len(sched)

    def test_tiles_cover_upper_triangle(self):
        sched = TileScheduler(50, 20)
        tiles = list(sched)
        assert all(t.q >= t.p for t in tiles)
        # every (row, col) cell with col >= row is inside exactly one tile
        covered = np.zeros((50, 50), dtype=int)
        for t in tiles:
            covered[t.row_start:t.row_end, t.col_start:t.col_end] += 1
        upper = np.triu(np.ones((50, 50), dtype=bool))
        assert np.all(covered[upper] >= 1)

    def test_tile_properties(self):
        t = Tile(p=1, q=1, row_start=10, row_end=20, col_start=10, col_end=20)
        assert t.rows == 10 and t.cols == 10
        assert t.is_diagonal
        assert not Tile(p=0, q=1, row_start=0, row_end=5, col_start=5, col_end=9).is_diagonal

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TileScheduler(0, 4)
        with pytest.raises(ValueError):
            TileScheduler(4, 0)


class TestPairCountKernelConstruction:
    def test_rejects_mismatched_offsets_widths(self):
        with pytest.raises(ValueError):
            PairCountKernel(np.zeros(3), np.zeros(2), 3)

    def test_rejects_non_positive_widths(self):
        with pytest.raises(ValueError):
            PairCountKernel(np.zeros(2), np.array([4, 0]), 2)

    def test_requires_tile_shape_at_run(self):
        from repro.gpu.device import GTX_285
        from repro.gpu.executor import GpuSimulator
        coll = BatmapCollection.build([[1, 2], [2, 3]], 16, rng=0)
        buf = coll.device_buffer()
        sim = GpuSimulator(GTX_285)
        sim.upload("batmaps", buf.words)
        sim.allocate("results", (4,), np.int64)
        kernel = PairCountKernel(buf.offsets, buf.widths, 2, tile_shape=None,
                                 local_size=(2, 2))
        with pytest.raises(ValueError):
            sim.launch(kernel, (2, 2))


class TestBatmapDriver:
    def test_counts_match_host_path(self, rng):
        m = 800
        sets = random_sets(rng, 24, m, max_size=150)
        coll = BatmapCollection.build(sets, m, rng=1)
        result = run_batmap_pair_counts(coll, tile_size=10)
        device = reorder_to_original(result.counts, coll)
        host = coll.count_all_pairs()
        assert np.array_equal(device, host)

    def test_single_tile_covers_everything(self, rng):
        m = 300
        sets = random_sets(rng, 9, m, max_size=60)
        coll = BatmapCollection.build(sets, m, rng=2)
        result = run_batmap_pair_counts(coll, tile_size=1000)
        assert result.tiles == 1
        assert np.array_equal(reorder_to_original(result.counts, coll),
                              coll.count_all_pairs())

    def test_matrix_symmetric(self, rng):
        sets = random_sets(rng, 17, 200, max_size=50)
        coll = BatmapCollection.build(sets, 200, rng=0)
        result = run_batmap_pair_counts(coll, tile_size=7)
        assert np.array_equal(result.counts, result.counts.T)

    def test_statistics_populated(self, rng):
        sets = random_sets(rng, 8, 200, min_size=10, max_size=50)
        coll = BatmapCollection.build(sets, 200, rng=0)
        result = run_batmap_pair_counts(coll, tile_size=8)
        assert result.device_seconds > 0
        assert result.transfer_seconds > 0
        assert result.total_device_bytes > 0
        assert 0 < result.coalescing_efficiency <= 1.0
        assert result.achieved_bandwidth_gbps > 0

    def test_symmetry_pruning_reduces_tiles(self, rng):
        sets = random_sets(rng, 32, 100, max_size=30)
        coll = BatmapCollection.build(sets, 100, rng=0)
        result = run_batmap_pair_counts(coll, tile_size=8)
        scheduler = TileScheduler(32, 8)
        assert result.tiles == scheduler.n_tiles < scheduler.n_tiles_full

    def test_rejects_bad_tile_size(self, rng):
        sets = random_sets(rng, 4, 64)
        coll = BatmapCollection.build(sets, 64, rng=0)
        with pytest.raises(ValueError):
            run_batmap_pair_counts(coll, tile_size=0)

    @given(st.integers(0, 2**31), st.integers(2, 20))
    @settings(max_examples=10, deadline=None)
    def test_property_device_equals_host(self, seed, n_sets):
        rng = np.random.default_rng(seed)
        m = 300
        sets = [np.sort(rng.choice(m, size=int(rng.integers(0, 80)), replace=False))
                for _ in range(n_sets)]
        coll = BatmapCollection.build(sets, m, rng=seed % 5)
        result = run_batmap_pair_counts(coll, tile_size=int(rng.integers(3, 40)))
        assert np.array_equal(reorder_to_original(result.counts, coll),
                              coll.count_all_pairs())


class TestBitmapDriver:
    def test_counts_match_reference(self, rng):
        m = 500
        sets = random_sets(rng, 20, m, max_size=100)
        index = BitmapIndex.from_sets(sets, m)
        result = run_bitmap_pair_counts(index, tile_size=9)
        assert np.array_equal(result.counts, index.pairwise_counts())

    def test_device_bytes_reflect_dense_layout(self, rng):
        """The bitmap kernel reads width proportional to m, not to set sizes."""
        m = 16384
        sparse_sets = [rng.choice(m, size=5, replace=False) for _ in range(16)]
        index = BitmapIndex.from_sets(sparse_sets, m)
        bitmap_run = run_bitmap_pair_counts(index, tile_size=16)

        coll = BatmapCollection.build(sparse_sets, m, rng=0)
        batmap_run = run_batmap_pair_counts(coll, tile_size=16)
        # For sparse sets the batmap kernel moves fewer bytes than the dense
        # bitmap kernel (bounded by the compression floor r >= 2**shift), and
        # the resident representation is smaller as well.
        assert batmap_run.total_device_bytes < bitmap_run.total_device_bytes / 2
        assert coll.memory_bytes < index.memory_bytes / 2


class TestBatchComputeMode:
    """The driver is the simulator only; counts-only runs use the collection."""

    def test_batch_counts_match_kernel_counts(self, rng):
        m = 700
        sets = random_sets(rng, 14, m, max_size=120)
        coll = BatmapCollection.build(sets, m, rng=6)
        kernel = run_batmap_pair_counts(coll, tile_size=8)
        batch = coll.count_all_pairs(compute="batch")
        assert np.array_equal(reorder_to_original(kernel.counts, coll), batch)
        assert kernel.tiles > 0
        assert kernel.device_seconds > 0

    def test_batch_counts_are_a_private_copy(self, rng):
        m = 300
        coll = BatmapCollection.build(random_sets(rng, 5, m, max_size=60), m, rng=0)
        first = coll.count_all_pairs(compute="batch")
        first[0, 0] = -1
        second = coll.count_all_pairs(compute="batch")
        assert second[0, 0] != -1

    def test_invalid_compute_rejected(self, rng):
        m = 200
        coll = BatmapCollection.build(random_sets(rng, 3, m, max_size=30), m, rng=0)
        with pytest.raises(TypeError):
            run_batmap_pair_counts(coll, compute="batch")
        with pytest.raises(ValueError):
            coll.count_all_pairs(compute="kernel")


class TestParallelComputeMode:
    def test_parallel_counts_match_kernel_counts(self, rng):
        """Small input: the parallel backend falls back to the batch engine."""
        m = 700
        sets = random_sets(rng, 14, m, max_size=120)
        coll = BatmapCollection.build(sets, m, rng=6)
        kernel = run_batmap_pair_counts(coll, tile_size=8)
        parallel = coll.count_all_pairs(compute="parallel", workers=2)
        assert np.array_equal(reorder_to_original(kernel.counts, coll), parallel)

    def test_parallel_forced_through_pool(self, rng, monkeypatch):
        """Lowering the fallback floor drives the counts through real workers."""
        import repro.parallel.executor as executor_module

        monkeypatch.setattr(executor_module, "PARALLEL_MIN_SETS", 1)
        m = 700
        sets = random_sets(rng, 12, m, max_size=120)
        coll = BatmapCollection.build(sets, m, rng=2)
        kernel = run_batmap_pair_counts(coll, tile_size=8)
        parallel = coll.count_all_pairs(compute="parallel", workers=2)
        assert np.array_equal(reorder_to_original(kernel.counts, coll), parallel)
