"""Tests for the threaded pair-counting executor (repro.parallel.executor)."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.parallel.executor as executor_module
from repro.core.collection import BatmapCollection
from repro.core.plan import plan_counts
from repro.parallel.executor import (
    MAX_AUTO_WORKERS,
    PARALLEL_MIN_SETS,
    ParallelPairCounter,
    measure_executor_scaling,
    resolve_worker_count,
)
from repro.parallel.scaling import relative_speedups
from tests.conftest import random_sets


def tile_threads() -> list[threading.Thread]:
    """Worker threads of live tile pools."""
    return [t for t in threading.enumerate() if t.name.startswith("repro-tile")]


@pytest.fixture(scope="module")
def coll() -> BatmapCollection:
    rng = np.random.default_rng(7)
    m = 1500
    sets = [np.sort(rng.choice(m, size=int(rng.integers(0, 180)), replace=False))
            for _ in range(30)]
    return BatmapCollection.build(sets, m, rng=3)


class TestBitIdentity:
    """compute="parallel" must be bit-identical to the serial batch engine."""

    def test_all_pairs(self, coll):
        with ParallelPairCounter(coll, workers=2, tile_size=8) as counter:
            assert np.array_equal(counter.counts_sorted(),
                                  coll.batch_counter().counts_sorted())
            assert np.array_equal(counter.count_all_pairs(), coll.count_all_pairs())

    def test_pairs_list(self, coll):
        pairs = [(0, 29), (4, 4), (17, 3), (2, 25), (29, 0), (13, 13)]
        with ParallelPairCounter(coll, workers=2) as counter:
            got = counter.count_pairs(pairs)
        assert got.tolist() == coll.batch_counter().count_pairs(pairs).tolist()

    def test_cross_rectangle(self, coll):
        rows, cols = [0, 5, 9, 22, 28], [1, 2, 3, 17]
        with ParallelPairCounter(coll, workers=2, tile_size=2) as counter:
            got = counter.count_cross(rows, cols)
        assert np.array_equal(got, coll.batch_counter().count_cross(rows, cols))

    def test_count_pair_and_empty_inputs(self, coll):
        with ParallelPairCounter(coll, workers=2) as counter:
            assert counter.count_pair(3, 11) == coll.count_pair(3, 11)
            assert counter.count_pairs(np.zeros((0, 2), dtype=np.int64)).size == 0
            assert counter.count_cross([], [1, 2]).shape == (0, 2)

    def test_rejects_bad_pairs_shape(self, coll):
        with ParallelPairCounter(coll, workers=2) as counter:
            with pytest.raises(ValueError):
                counter.count_pairs(np.array([1, 2, 3]))

    @given(st.integers(0, 2**31), st.integers(2, 6))
    @settings(max_examples=5, deadline=None)
    def test_property_matches_batch_engine(self, seed, n_sets):
        rng = np.random.default_rng(seed)
        m = 600
        sets = [np.sort(rng.choice(m, size=int(rng.integers(0, 120)), replace=False))
                for _ in range(n_sets)]
        collection = BatmapCollection.build(sets, m, rng=seed % 13)
        with ParallelPairCounter(collection, workers=2, tile_size=2) as counter:
            assert np.array_equal(counter.count_all_pairs(),
                                  collection.count_all_pairs())


class TestLifecycle:
    """Context-manager semantics: the worker threads never outlive the counter."""

    def test_threads_joined_on_clean_exit(self, coll):
        with ParallelPairCounter(coll, workers=2, tile_size=4) as counter:
            counter.counts_sorted()
            assert tile_threads()
        assert tile_threads() == []

    def test_close_is_idempotent(self, coll):
        counter = ParallelPairCounter(coll, workers=2).start()
        counter.counts_sorted()
        counter.close()
        counter.close()
        assert counter._pool is None
        assert tile_threads() == []

    def test_error_inside_body_closes_pool(self, coll):
        """An exception raised while the pool is live still joins its threads."""
        with pytest.raises(IndexError):
            with ParallelPairCounter(coll, workers=2) as counter:
                counter.counts_sorted()
                counter.count_pairs([[0, 10**9]])
        assert counter._pool is None
        assert tile_threads() == []

    def test_error_inside_a_tile_propagates(self, coll, monkeypatch):
        """A tile that raises on a worker thread surfaces in the caller."""
        def broken(large, small, **kwargs):
            raise RuntimeError("tile failed")

        monkeypatch.setattr("repro.core.batch.fold_counts", broken)
        with pytest.raises(RuntimeError, match="tile failed"):
            with ParallelPairCounter(coll, workers=2, tile_size=4) as counter:
                counter.counts_sorted()
        assert tile_threads() == []

    def test_start_twice_reuses_pool(self, coll):
        with ParallelPairCounter(coll, workers=2) as counter:
            pool = counter._pool
            counter.start()
            assert counter._pool is pool


class TestWorkerSelection:
    def test_auto_worker_count_bounds(self):
        auto = resolve_worker_count(None)
        assert 1 <= auto <= MAX_AUTO_WORKERS

    def test_explicit_worker_count(self):
        assert resolve_worker_count(3) == 3

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            resolve_worker_count(0)
        with pytest.raises(ValueError):
            resolve_worker_count(-2)


class TestFallback:
    def test_small_collection_recommends_batch(self, coll):
        assert len(coll) < PARALLEL_MIN_SETS
        assert plan_counts(coll, requested="parallel", workers=4).backend == "batch"

    def test_single_worker_recommends_batch(self, coll):
        assert plan_counts(coll, requested="parallel", workers=1).backend == "batch"

    def test_large_collection_recommends_parallel(self, rng):
        sets = random_sets(rng, PARALLEL_MIN_SETS, 256, max_size=10)
        collection = BatmapCollection.build(sets, 256, rng=0)
        plan = plan_counts(collection, requested="parallel", workers=2)
        assert plan.backend == "parallel"

    def test_collection_parallel_kwarg_falls_back(self, coll):
        """Small input: compute="parallel" silently uses the batch engine."""
        assert np.array_equal(coll.count_all_pairs(compute="parallel", workers=2),
                              coll.count_all_pairs())

    def test_collection_parallel_kwarg_forced(self, coll, monkeypatch):
        """With the floor lowered the executor path really engages."""
        monkeypatch.setattr(executor_module, "PARALLEL_MIN_SETS", 1)
        assert np.array_equal(coll.count_all_pairs(compute="parallel", workers=2),
                              coll.batch_counter().count_all_pairs())


class TestMeasuredScaling:
    def test_points_and_speedups(self, coll):
        points = measure_executor_scaling(coll, worker_counts=(1, 2), tile_size=8)
        assert [p.cores for p in points] == [1, 2]
        assert all(p.seconds > 0 for p in points)
        speedups = relative_speedups(points)
        assert speedups[1] == pytest.approx(1.0)

    def test_validation(self, coll):
        with pytest.raises(ValueError):
            measure_executor_scaling(coll, worker_counts=())
        with pytest.raises(ValueError):
            measure_executor_scaling(coll, worker_counts=(1,), repeats=0)
