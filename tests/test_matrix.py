"""Tests for sparse boolean matrices, multiplication and join-project."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matrix.boolean import SparseBooleanMatrix
from repro.matrix.joinproject import Relation, join_project, join_project_counting
from repro.matrix.multiply import (
    multiply_batmap,
    multiply_batmap_device,
    multiply_dense,
    multiply_merge,
)


class TestSparseBooleanMatrix:
    def test_from_dense_roundtrip(self):
        dense = np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1]], dtype=bool)
        m = SparseBooleanMatrix.from_dense(dense)
        assert np.array_equal(m.to_dense(), dense)
        assert m.nnz == 5
        assert m.density == pytest.approx(5 / 9)

    def test_transpose(self):
        dense = np.array([[1, 0], [1, 1], [0, 1]], dtype=bool)
        m = SparseBooleanMatrix.from_dense(dense)
        assert np.array_equal(m.transpose().to_dense(), dense.T)

    def test_column_sets(self):
        m = SparseBooleanMatrix(2, 3, [np.array([0, 2]), np.array([2])])
        cols = m.column_sets()
        assert cols[0].tolist() == [0]
        assert cols[1].tolist() == []
        assert cols[2].tolist() == [0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseBooleanMatrix(0, 3)
        with pytest.raises(ValueError):
            SparseBooleanMatrix(2, 3, [np.array([3]), np.array([])])
        with pytest.raises(ValueError):
            SparseBooleanMatrix(2, 3, [np.array([0])])  # wrong row count
        with pytest.raises(ValueError):
            SparseBooleanMatrix.from_dense(np.zeros(3))

    def test_random_density(self):
        m = SparseBooleanMatrix.random(50, 50, 0.2, rng=0)
        assert 0.1 < m.density < 0.3

    def test_equality(self):
        a = SparseBooleanMatrix(1, 3, [np.array([0, 1])])
        b = SparseBooleanMatrix(1, 3, [np.array([1, 0])])
        c = SparseBooleanMatrix(1, 3, [np.array([2])])
        assert a == b
        assert a != c


class TestMultiply:
    def _pair(self, seed, shape_a=(12, 30), shape_b=(30, 9), density=0.15):
        a = SparseBooleanMatrix.random(*shape_a, density, rng=seed)
        b = SparseBooleanMatrix.random(*shape_b, density, rng=seed + 1)
        return a, b

    def test_merge_matches_dense(self):
        a, b = self._pair(0)
        assert np.array_equal(multiply_merge(a, b), multiply_dense(a, b))

    def test_batmap_matches_dense(self):
        a, b = self._pair(1)
        assert np.array_equal(multiply_batmap(a, b, rng=0), multiply_dense(a, b))

    def test_batmap_device_matches_dense(self):
        a, b = self._pair(2)
        product, seconds = multiply_batmap_device(a, b, rng=0, tile_size=16)
        assert np.array_equal(product, multiply_dense(a, b))
        assert seconds > 0

    def test_shape_mismatch_rejected(self):
        a = SparseBooleanMatrix.random(4, 5, 0.5, rng=0)
        b = SparseBooleanMatrix.random(6, 3, 0.5, rng=1)
        for fn in (multiply_dense, multiply_merge):
            with pytest.raises(ValueError):
                fn(a, b)
        with pytest.raises(ValueError):
            multiply_batmap(a, b)

    @given(st.integers(0, 2**31), st.floats(0.05, 0.4))
    @settings(max_examples=10, deadline=None)
    def test_property_batmap_product_exact(self, seed, density):
        a = SparseBooleanMatrix.random(8, 20, density, rng=seed)
        b = SparseBooleanMatrix.random(20, 6, density, rng=seed + 7)
        assert np.array_equal(multiply_batmap(a, b, rng=seed % 13), multiply_dense(a, b))

    def test_rejects_unknown_compute(self):
        a, b = self._pair(3)
        with pytest.raises(ValueError):
            multiply_batmap(a, b, compute="quantum")

    @pytest.mark.parametrize("compute", ["auto", "host", "batch", "parallel"])
    def test_all_backends_match_dense(self, compute):
        a, b = self._pair(4)
        kwargs = {"workers": 2} if compute == "parallel" else {}
        assert np.array_equal(multiply_batmap(a, b, rng=0, compute=compute, **kwargs),
                              multiply_dense(a, b))

    def test_wide_payload_layout_routes_to_host(self):
        """payload_bits > 7 has no packed form; the planner must still produce
        an exact product through the per-pair reference."""
        from repro.core.config import BatmapConfig

        a, b = self._pair(5, shape_a=(6, 15), shape_b=(15, 5))
        product = multiply_batmap(a, b, rng=0,
                                  config=BatmapConfig(payload_bits=9))
        assert np.array_equal(product, multiply_dense(a, b))


class TestRepairCrossProduct:
    """The failed-insertion repair of the cross block (`repair_increments`)."""

    def _overfull_config(self):
        from repro.core.config import BatmapConfig

        # range_multiplier 1.0 + tiny MaxLoop provoke failed insertions
        return BatmapConfig(range_multiplier=1.0, max_loop=4)

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_property_repair_is_exact_under_failures(self, seed):
        config = self._overfull_config()
        a = SparseBooleanMatrix.random(10, 40, 0.35, rng=seed)
        b = SparseBooleanMatrix.random(40, 8, 0.35, rng=seed + 1)
        product = multiply_batmap(a, b, rng=seed % 7, config=config)
        assert np.array_equal(product, multiply_dense(a, b))

    def test_repair_runs_with_failures_present(self):
        """At least one seed must actually exercise the repair path."""
        from repro.core.collection import BatmapCollection

        config = self._overfull_config()
        for seed in range(40):
            a = SparseBooleanMatrix.random(10, 40, 0.4, rng=seed)
            b = SparseBooleanMatrix.random(40, 8, 0.4, rng=seed + 1)
            sets = list(a.rows) + b.column_sets()
            coll = BatmapCollection.build(sets, 40, config=config, rng=seed % 7)
            if coll.failed_insertions():
                assert np.array_equal(
                    multiply_batmap(a, b, rng=seed % 7, config=config),
                    multiply_dense(a, b))
                return
        pytest.fail("no seed produced failed insertions; tighten the config")

    def test_empty_side_pairs_short_circuit(self):
        """Failures touching elements absent from one side add nothing —
        mirroring multiply_merge's empty-set skip."""
        from repro.matrix.multiply import _repair_cross

        class FakeCollection:
            def failed_insertions(self):
                # element 39 failed somewhere, but no b-column contains it
                return {39: [0]}

        a = SparseBooleanMatrix(2, 40, [np.array([39]), np.array([], dtype=np.int64)])
        b = SparseBooleanMatrix(40, 2, [np.array([], dtype=np.int64)] * 40)
        product = np.zeros((2, 2), dtype=np.int64)
        repaired = _repair_cross(product, FakeCollection(), a, b)
        assert repaired is product  # untouched, not even copied
        assert np.array_equal(repaired, np.zeros((2, 2), dtype=np.int64))


class TestJoinProject:
    def test_small_example(self):
        # R(a, k): a joins to k; S(k, c)
        r = Relation.from_tuples([(0, 1), (0, 2), (1, 2)], left_domain=2, right_domain=3)
        s = Relation.from_tuples([(1, 0), (2, 0), (2, 1)], left_domain=3, right_domain=2)
        counting = join_project_counting(r, s, use_batmaps=False)
        # a=0 joins via k=1,2 to c=0 (two witnesses) and via k=2 to c=1
        assert counting[0, 0] == 2
        assert counting[0, 1] == 1
        assert counting[1, 0] == 1
        assert join_project(r, s, use_batmaps=False) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_batmap_and_dense_agree(self):
        rng = np.random.default_rng(3)
        pairs_r = [(int(a), int(k))
                   for a, k in zip(rng.integers(0, 10, 60), rng.integers(0, 25, 60))]
        pairs_s = [(int(k), int(c))
                   for k, c in zip(rng.integers(0, 25, 60), rng.integers(0, 8, 60))]
        r = Relation.from_tuples(pairs_r, 10, 25)
        s = Relation.from_tuples(pairs_s, 25, 8)
        assert np.array_equal(join_project_counting(r, s, use_batmaps=True, rng=0),
                              join_project_counting(r, s, use_batmaps=False))
        assert join_project(r, s, use_batmaps=True, rng=0) == join_project(r, s, use_batmaps=False)

    def test_relation_validation(self):
        with pytest.raises(ValueError):
            Relation.from_tuples([(0, 5)], left_domain=2, right_domain=3)
        with pytest.raises(ValueError):
            Relation.from_tuples([(2, 0)], left_domain=2, right_domain=3)
        with pytest.raises(ValueError):
            Relation(np.zeros((2, 3)), 2, 2)

    def test_cardinality_dedupes(self):
        r = Relation.from_tuples([(0, 1), (0, 1), (1, 2)], 2, 3)
        assert r.cardinality == 2

    def test_join_domain_mismatch(self):
        r = Relation.from_tuples([(0, 1)], 1, 2)
        s = Relation.from_tuples([(0, 0)], 5, 1)
        with pytest.raises(ValueError):
            join_project_counting(r, s)

    def test_to_matrix(self):
        r = Relation.from_tuples([(0, 1), (1, 0)], 2, 2)
        assert np.array_equal(r.to_matrix().to_dense(),
                              np.array([[False, True], [True, False]]))
