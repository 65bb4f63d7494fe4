"""Tests for the workload planner (repro.core.plan)."""

import numpy as np
import pytest

import repro.parallel.executor as executor_module
from repro.core.collection import BatmapCollection
from repro.core.config import BatmapConfig
from repro.core.plan import (
    BULK_BUILD_MIN_ELEMENTS,
    PARALLEL_BUILD_MIN_ELEMENTS,
    PARALLEL_BUILD_MIN_SETS,
    BuildPlan,
    CountPlan,
    PlanFeatures,
    plan_build,
    plan_counts,
    plan_levelwise,
)


def small_collection(n_sets=6, universe=256, rng=0):
    sets = [np.arange(i, universe, n_sets, dtype=np.int64) for i in range(n_sets)]
    return BatmapCollection.build(sets, universe, rng=rng)


#: Mean packed words per set of a wide-row collection (256 KB rows).
WIDE_WORDS = 1 << 16


def features(n_sets=512, mean_words=64, r0=16, byte_entries=True, cached=False):
    return PlanFeatures(
        n_sets=n_sets,
        total_words=n_sets * mean_words,
        r0=r0,
        byte_entries=byte_entries,
        cached_engine=cached,
    )


class TestCountPlanValidation:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            CountPlan("quantum", 1, "nope")

    def test_rejects_unknown_request(self):
        # "kernel": the GPU simulator is a modelling API, not a planner backend
        for requested in ("quantum", "kernel"):
            with pytest.raises(ValueError):
                plan_counts(features(), requested=requested)

    def test_from_collection_features(self):
        coll = small_collection()
        feats = PlanFeatures.from_collection(coll)
        assert feats.n_sets == len(coll)
        assert feats.r0 == coll.r0
        assert feats.byte_entries
        assert feats.total_words == sum(3 * bm.r // 4 for bm in coll.batmaps_sorted)
        assert not feats.cached_engine
        coll.batch_counter()
        assert PlanFeatures.from_collection(coll).cached_engine


class TestExplicitRequests:
    def test_explicit_backends_honoured(self):
        for backend in ("host", "batch"):
            assert plan_counts(features(), requested=backend).backend == backend

    def test_packed_requests_demote_to_host_on_unpackable_layouts(self):
        """The planner owns the layout gate: no caller re-checks it."""
        for layout in (features(r0=2), features(byte_entries=False)):
            for backend in ("batch", "parallel"):
                plan = plan_counts(layout, requested=backend, workers=4)
                assert plan.backend == "host"
                assert f"{backend} requested" in plan.reason

    def test_parallel_demotes_below_floor(self):
        plan = plan_counts(features(n_sets=4), requested="parallel", workers=4)
        assert plan.backend == "batch"
        assert "floor" in plan.reason

    def test_parallel_demotes_on_single_worker(self):
        plan = plan_counts(features(n_sets=4096), requested="parallel", workers=1)
        assert plan.backend == "batch"

    def test_parallel_honoured_when_it_pays(self):
        plan = plan_counts(features(n_sets=4096), requested="parallel", workers=4)
        assert plan.backend == "parallel"
        assert plan.workers == 4

    def test_explicit_parallel_ignores_wide_heuristic(self):
        """An explicit parallel request is not second-guessed by the width mix."""
        wide = features(n_sets=4096, mean_words=4 * WIDE_WORDS)
        assert plan_counts(wide, requested="parallel", workers=4).backend == "parallel"


class TestAutoPolicy:
    def test_small_point_query_stays_on_host(self):
        plan = plan_counts(features(n_sets=4096), workers=4, n_pairs=1)
        assert plan.backend == "host"

    def test_point_query_uses_cached_engine(self):
        plan = plan_counts(features(n_sets=4096, cached=True), workers=4, n_pairs=1)
        assert plan.backend != "host"

    def test_small_collection_goes_batch(self):
        assert plan_counts(features(n_sets=32), workers=4).backend == "batch"

    def test_single_worker_goes_batch(self):
        assert plan_counts(features(n_sets=4096), workers=1).backend == "batch"

    def test_large_multicore_goes_parallel(self):
        plan = plan_counts(features(n_sets=4096, mean_words=64), workers=4)
        assert plan.backend == "parallel"
        assert plan.workers == 4

    def test_sub_word_ranges_go_host(self):
        assert plan_counts(features(r0=2), workers=4).backend == "host"

    def test_wide_entries_go_host(self):
        assert plan_counts(features(byte_entries=False), workers=4).backend == "host"

    def test_wide_payload_collection_plans_host(self):
        wide_coll = BatmapCollection.build(
            [np.arange(0, 200, 3), np.arange(0, 200, 5)], 200,
            config=BatmapConfig(payload_bits=9), rng=0,
        )
        assert plan_counts(wide_coll, workers=4).backend == "host"

    def test_respects_monkeypatched_floor(self, monkeypatch):
        """The executor's floor is read at plan time, so test patches apply."""
        monkeypatch.setattr(executor_module, "PARALLEL_MIN_SETS", 2)
        plan = plan_counts(features(n_sets=8, mean_words=16), workers=2)
        assert plan.backend == "parallel"


class TestPlanLevelwise:
    def test_small_work_stays_serial(self):
        assert plan_levelwise(10, 100, workers=4).backend == "batch"

    def test_single_worker_stays_serial(self):
        assert plan_levelwise(1 << 20, 1 << 10, workers=1).backend == "batch"

    def test_large_work_goes_parallel(self):
        plan = plan_levelwise(1 << 20, 1 << 10, workers=4)
        assert plan.backend == "parallel"
        assert plan.workers == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_levelwise(-1, 10)


class TestPlanBuild:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            plan_build(10, 100, requested="device")
        with pytest.raises(ValueError):
            BuildPlan("batch", 1, "counting backend is not a build backend")

    def test_explicit_requests_honoured(self):
        assert plan_build(2, 10, requested="host").backend == "host"
        assert plan_build(2, 10, requested="bulk").backend == "bulk"

    def test_parallel_demotes_below_floor(self):
        plan = plan_build(4, 100, requested="parallel", workers=4)
        assert plan.backend == "bulk"
        assert "pay-off floor" in plan.reason

    def test_parallel_demotes_on_single_worker(self):
        plan = plan_build(PARALLEL_BUILD_MIN_SETS,
                          PARALLEL_BUILD_MIN_ELEMENTS,
                          requested="parallel", workers=1)
        assert plan.backend == "bulk"

    def test_parallel_honoured_above_floor(self):
        plan = plan_build(PARALLEL_BUILD_MIN_SETS,
                          PARALLEL_BUILD_MIN_ELEMENTS,
                          requested="parallel", workers=3)
        assert plan.backend == "parallel"
        assert plan.workers == 3

    def test_auto_tiny_stays_host(self):
        assert plan_build(8, BULK_BUILD_MIN_ELEMENTS - 1).backend == "host"

    def test_auto_medium_goes_bulk(self):
        assert plan_build(64, BULK_BUILD_MIN_ELEMENTS).backend == "bulk"

    def test_auto_large_multicore_goes_parallel(self):
        plan = plan_build(PARALLEL_BUILD_MIN_SETS,
                          PARALLEL_BUILD_MIN_ELEMENTS, workers=4)
        assert plan.backend == "parallel"

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_build(-1, 10)
        with pytest.raises(ValueError):
            plan_build(1, -10)


class TestKernelGate:
    """Threads pay only while the compiled kernel releases the GIL."""

    @pytest.fixture
    def numpy_kernel(self, monkeypatch):
        from repro.core import swar_kernel

        monkeypatch.setattr(swar_kernel, "_state", (None, "numpy (disabled by the test)"))

    @staticmethod
    def shapes():
        for n_sets in (4096, 1 << 16):
            for mean_words in (16, 64, WIDE_WORDS):
                for n_shards in (1, 4, 32):
                    yield PlanFeatures(n_sets=n_sets, total_words=n_sets * mean_words,
                                       r0=16, byte_entries=True, n_shards=n_shards)

    @pytest.mark.parametrize("requested", ["auto", "parallel"])
    def test_counting_never_picks_parallel(self, numpy_kernel, requested):
        for shape in self.shapes():
            plan = plan_counts(shape, requested=requested, workers=4)
            assert plan.backend == "batch"
            assert "numpy" in plan.reason

    @pytest.mark.parametrize("requested", ["auto", "parallel"])
    def test_build_never_picks_parallel(self, numpy_kernel, requested):
        plan = plan_build(1 << 16, 1 << 26, requested=requested, workers=4)
        assert plan.backend == "bulk"

    def test_native_kernel_picks_parallel_on_the_same_shapes(self):
        from repro.core.swar_kernel import kernel_status

        if kernel_status() != "native":
            pytest.skip("no compiled kernel on this host")
        for shape in self.shapes():
            assert plan_counts(shape, workers=4).backend == "parallel"
