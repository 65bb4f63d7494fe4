"""Tests for the vectorised batch pair-counting engine (repro.core.batch)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch import BatchPairCounter
from repro.core.collection import BatmapCollection
from repro.core.errors import LayoutError
from repro.core.hashing import HashFamily
from repro.core.intersection import count_common
from tests.conftest import random_sets


def _legacy_matrix(coll: BatmapCollection) -> np.ndarray:
    """The seed's per-pair loop over count_common (the reference the engine replaces)."""
    n = len(coll)
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        out[i, i] = coll.batmap(i).stored_count
        for j in range(i + 1, n):
            c = count_common(coll.batmap(i), coll.batmap(j))
            out[i, j] = c
            out[j, i] = c
    return out


class TestEquivalence:
    def test_all_pairs_matches_per_pair_loop(self, rng):
        m = 1000
        sets = random_sets(rng, 10, m, max_size=220)
        coll = BatmapCollection.build(sets, m, rng=1)
        assert np.array_equal(coll.count_all_pairs(), _legacy_matrix(coll))

    def test_mixed_range_folding(self, rng):
        """Sets of wildly different sizes produce several width classes."""
        m = 4096
        sets = [np.arange(5), np.arange(40), np.arange(3, 700), np.arange(2, 2000),
                np.arange(0, 4096, 7), np.arange(12), np.arange(100, 160)]
        coll = BatmapCollection.build(sets, m, rng=2)
        widths = {coll.batmap(i).r for i in range(len(sets))}
        assert len(widths) >= 3          # genuinely folded comparisons
        assert np.array_equal(coll.count_all_pairs(), _legacy_matrix(coll))

    def test_unsorted_collection(self, rng):
        m = 512
        sets = [np.arange(100), np.arange(4), np.arange(30)]
        coll = BatmapCollection.build(sets, m, rng=0, sort_by_size=False)
        assert np.array_equal(coll.count_all_pairs(), _legacy_matrix(coll))

    def test_count_pair_delegates_to_engine(self, rng):
        m = 800
        sets = random_sets(rng, 6, m, max_size=150)
        coll = BatmapCollection.build(sets, m, rng=4)
        for i in range(6):
            for j in range(6):
                assert coll.count_pair(i, j) == count_common(coll.batmap(i), coll.batmap(j))

    @given(st.integers(0, 2**31), st.integers(2, 8))
    @settings(max_examples=12, deadline=None)
    def test_property_engine_matches_loop(self, seed, n_sets):
        rng = np.random.default_rng(seed)
        m = 600
        sets = [np.sort(rng.choice(m, size=int(rng.integers(0, 150)), replace=False))
                for _ in range(n_sets)]
        coll = BatmapCollection.build(sets, m, rng=seed % 11)
        assert np.array_equal(coll.count_all_pairs(), _legacy_matrix(coll))


class TestQueries:
    def _collection(self, rng, n=9, m=900):
        sets = random_sets(rng, n, m, max_size=200)
        return BatmapCollection.build(sets, m, rng=5), sets

    def test_count_pairs_list(self, rng):
        coll, _ = self._collection(rng)
        pairs = [(0, 8), (3, 3), (7, 1), (2, 5), (8, 0)]
        got = coll.batch_counter().count_pairs(pairs)
        expected = [count_common(coll.batmap(i), coll.batmap(j)) for i, j in pairs]
        assert got.tolist() == expected

    def test_count_pairs_empty(self, rng):
        coll, _ = self._collection(rng, n=3)
        assert coll.batch_counter().count_pairs(np.zeros((0, 2), dtype=np.int64)).size == 0

    def test_count_pairs_rejects_bad_shape(self, rng):
        coll, _ = self._collection(rng, n=3)
        with pytest.raises(ValueError):
            coll.batch_counter().count_pairs(np.array([1, 2, 3]))

    def test_count_cross_rectangle(self, rng):
        coll, _ = self._collection(rng)
        rows, cols = [0, 4, 6, 8], [1, 2, 3]
        block = coll.batch_counter().count_cross(rows, cols)
        full = coll.count_all_pairs()
        assert np.array_equal(block, full[np.ix_(rows, cols)])

    def test_counter_cached_on_collection(self, rng):
        coll, _ = self._collection(rng, n=3)
        assert coll.batch_counter() is coll.batch_counter()

    def test_small_block_words_chunking(self, rng):
        """Tiny chunk budget exercises the blocked path without changing results."""
        coll, _ = self._collection(rng)
        tiny = BatchPairCounter(coll, block_words=16)
        assert np.array_equal(tiny.count_all_pairs(), coll.count_all_pairs())


class TestValidation:
    def test_mixed_families_rejected(self, rng):
        m = 256
        a = BatmapCollection.build(random_sets(rng, 3, m), m, rng=0)
        b = BatmapCollection.build(random_sets(rng, 3, m), m, rng=9)
        mixed = BatmapCollection(
            a.family, a.config,
            a.batmaps_sorted[:2] + [b.batmaps_sorted[0]],
            np.arange(3), m,
        )
        with pytest.raises(LayoutError):
            BatchPairCounter(mixed)

    def test_structurally_equal_family_accepted(self, rng):
        """A pickled family copy is not `is`-identical but must still pass."""
        import pickle
        m = 256
        coll = BatmapCollection.build(random_sets(rng, 4, m), m, rng=0)
        clone = pickle.loads(pickle.dumps(coll.batmaps_sorted[0]))
        patched = BatmapCollection(
            coll.family, coll.config,
            [clone] + coll.batmaps_sorted[1:],
            coll.order.copy(), m,
        )
        counter = BatchPairCounter(patched)
        assert np.array_equal(counter.count_all_pairs(), coll.count_all_pairs())

    def test_compression_floor_rejected(self):
        # A family shifting one bit more than the config's floor assumes, so
        # small batmaps land below 2**shift and payload comparison is ambiguous.
        m = 4000
        family = HashFamily.create(m, shift=6, rng=0)
        coll = BatmapCollection.build([np.arange(6), np.arange(8)], m, family=family)
        assert coll.r0 < (1 << family.shift)
        with pytest.raises(LayoutError):
            BatchPairCounter(coll)
