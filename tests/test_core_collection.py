"""Tests for BatmapCollection: shared-family construction, sorting, device packing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.collection import BatmapCollection
from repro.core.config import BatmapConfig
from repro.core.hashing import HashFamily
from tests.conftest import random_sets


class TestBuild:
    def test_round_trip_counts(self, rng):
        m = 1000
        sets = random_sets(rng, 8, m, max_size=200)
        coll = BatmapCollection.build(sets, m, rng=0)
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                failed = set(coll.batmap(i).failed) | set(coll.batmap(j).failed)
                expected = len((set(sets[i].tolist()) & set(sets[j].tolist())) - failed)
                assert coll.count_pair(i, j) == expected

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            BatmapCollection.build([], 10)

    def test_non_positive_universe_rejected(self):
        with pytest.raises(ValueError):
            BatmapCollection.build([[1]], 0)

    def test_len(self, rng):
        sets = random_sets(rng, 5, 100)
        assert len(BatmapCollection.build(sets, 100, rng=0)) == 5

    def test_sorted_by_width(self, rng):
        sets = [np.arange(50), np.arange(3), np.arange(200), np.arange(17)]
        coll = BatmapCollection.build(sets, 256, rng=0)
        widths = [coll.batmap_sorted(k).r for k in range(len(sets))]
        assert widths == sorted(widths)

    def test_order_maps_back_to_original(self, rng):
        sets = [np.arange(50), np.arange(3), np.arange(200), np.arange(17)]
        coll = BatmapCollection.build(sets, 256, rng=0)
        for original in range(len(sets)):
            assert coll.batmap(original).set_size == len(sets[original])

    def test_no_sorting_option(self):
        sets = [np.arange(50), np.arange(3)]
        coll = BatmapCollection.build(sets, 64, rng=0, sort_by_size=False)
        assert coll.batmap_sorted(0).set_size == 50

    def test_shared_family(self, rng):
        sets = random_sets(rng, 4, 128)
        coll = BatmapCollection.build(sets, 128, rng=0)
        fams = {id(coll.batmap(i).family) for i in range(4)}
        assert len(fams) == 1

    def test_explicit_family(self):
        cfg = BatmapConfig()
        m = 128
        family = HashFamily.create(m, shift=cfg.shift_for_universe(m), rng=9)
        coll = BatmapCollection.build([[1, 2], [2, 3]], m, family=family)
        assert coll.family is family
        assert coll.count_pair(0, 1) == 1

    def test_family_universe_mismatch_rejected(self):
        family = HashFamily.create(64, shift=0, rng=0)
        with pytest.raises(ValueError):
            BatmapCollection.build([[1]], 128, family=family)


class TestCountAllPairs:
    def test_matches_exact(self, rng):
        m = 400
        sets = random_sets(rng, 6, m, max_size=80)
        coll = BatmapCollection.build(sets, m, rng=1)
        matrix = coll.count_all_pairs()
        assert matrix.shape == (6, 6)
        assert np.array_equal(matrix, matrix.T)
        for i in range(6):
            assert matrix[i, i] == coll.batmap(i).stored_count
            for j in range(i + 1, 6):
                failed = set(coll.batmap(i).failed) | set(coll.batmap(j).failed)
                expected = len((set(sets[i].tolist()) & set(sets[j].tolist())) - failed)
                assert matrix[i, j] == expected

    def test_parallel_kwarg_matches_serial(self, rng):
        """compute="parallel" on a small collection falls back to the batch engine."""
        m = 400
        sets = random_sets(rng, 6, m, max_size=80)
        coll = BatmapCollection.build(sets, m, rng=1)
        assert np.array_equal(coll.count_all_pairs(compute="parallel", workers=2),
                              coll.count_all_pairs())

    def test_parallel_kwarg_through_pool(self, rng, monkeypatch):
        import repro.parallel.executor as executor_module

        monkeypatch.setattr(executor_module, "PARALLEL_MIN_SETS", 1)
        m = 400
        sets = random_sets(rng, 8, m, max_size=80)
        coll = BatmapCollection.build(sets, m, rng=1)
        assert np.array_equal(coll.count_all_pairs(compute="parallel", workers=2),
                              coll.count_all_pairs())


class TestFailures:
    def test_failed_insertions_indexed_by_element(self):
        cfg = BatmapConfig(max_loop=5, seed=1)
        m = 4096
        # Large, heavily colliding sets with tight max_loop to force failures.
        sets = [np.arange(0, 2000, 1), np.arange(500, 2500, 1), np.arange(10)]
        coll = BatmapCollection.build(sets, m, config=cfg, rng=2)
        failures = coll.failed_insertions()
        total_failures = sum(len(coll.batmap(i).failed) for i in range(3))
        assert sum(len(v) for v in failures.values()) == total_failures
        for element, owners in failures.items():
            for owner in owners:
                assert element in coll.batmap(owner).failed


class TestDeviceBuffer:
    def test_offsets_and_widths_consistent(self, rng):
        m = 512
        sets = random_sets(rng, 7, m, max_size=120)
        coll = BatmapCollection.build(sets, m, rng=3)
        buf = coll.device_buffer()
        # every batmap starts at a 16-word (64-byte) aligned offset
        assert buf.offsets[0] == 0
        assert np.all(buf.offsets % 16 == 0)
        # offsets advance by the aligned (padded) width of the previous batmap
        padded = ((buf.widths + 15) // 16) * 16
        assert np.array_equal(np.diff(buf.offsets), padded[:-1])
        assert buf.words.size == int(padded.sum())
        # widths are 3 * r / 4 words for each sorted batmap
        for k in range(len(sets)):
            assert buf.widths[k] == 3 * coll.batmap_sorted(k).r // 4

    def test_buffer_cached(self, rng):
        sets = random_sets(rng, 3, 64)
        coll = BatmapCollection.build(sets, 64, rng=0)
        assert coll.device_buffer() is coll.device_buffer()

    def test_slice_returns_views_per_batmap(self, rng):
        m = 256
        sets = random_sets(rng, 5, m, max_size=60)
        coll = BatmapCollection.build(sets, m, rng=1)
        buf = coll.device_buffer()
        for k in range(5):
            assert buf.slice(k).size == int(buf.widths[k])

    def test_memory_bytes_matches_batmaps(self, rng):
        sets = random_sets(rng, 4, 128)
        coll = BatmapCollection.build(sets, 128, rng=0)
        assert coll.memory_bytes == sum(coll.batmap(i).memory_bytes for i in range(4))
        # the device buffer adds at most 63 alignment bytes per batmap
        assert coll.memory_bytes <= coll.device_buffer().nbytes
        assert coll.device_buffer().nbytes <= coll.memory_bytes + 64 * len(coll)

    def test_r0_is_smallest_range(self, rng):
        sets = [np.arange(3), np.arange(100)]
        coll = BatmapCollection.build(sets, 256, rng=0)
        assert coll.r0 == min(coll.batmap(0).r, coll.batmap(1).r)


class TestPropertyBased:
    @given(st.integers(0, 2**31), st.integers(2, 6))
    @settings(max_examples=15, deadline=None)
    def test_property_pairwise_counts(self, seed, n_sets):
        rng = np.random.default_rng(seed)
        m = 600
        sets = [np.sort(rng.choice(m, size=int(rng.integers(0, 150)), replace=False))
                for _ in range(n_sets)]
        coll = BatmapCollection.build(sets, m, rng=seed % 7)
        for i in range(n_sets):
            for j in range(i + 1, n_sets):
                failed = set(coll.batmap(i).failed) | set(coll.batmap(j).failed)
                expected = len((set(sets[i].tolist()) & set(sets[j].tolist())) - failed)
                assert coll.count_pair(i, j) == expected
