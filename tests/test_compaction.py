"""LSM-style compaction: planning policy, bit-identity, planner awareness.

Compaction is pure data movement — a spilled row's bytes depend only on
(set, family, r, config), never on which shard holds them — so the central
claim here is that *every* count is bit-identical before and after a merge,
including after tombstone purges and a disk re-attach.  The planning tests
pin the size-tier policy and the budget splitting; the planner tests pin
the shard-fanout gate that makes many-shard collections prefer the
parallel counting pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compaction import (
    COMPACTION_MIN_RUN,
    compact,
    plan_compaction,
)
from repro.core.plan import (
    SHARD_FANOUT_MIN,
    WIDE_WORDS_PER_SET,
    PlanFeatures,
    plan_build,
    plan_counts,
)
from repro.core.sharded import (
    SHARD_BUDGET_DIVISOR,
    ShardedCollection,
    fixed_resident_bytes,
)
from tests.conftest import random_sets

UNIVERSE = 2048


def make_sets(n, seed=5, min_size=1, max_size=300):
    rng = np.random.default_rng(seed)
    return random_sets(rng, n, UNIVERSE, min_size=min_size, max_size=max_size)


def budget_for(n_sets, extra=200_000):
    return fixed_resident_bytes(UNIVERSE, n_sets) + extra


class TestPlanCompaction:
    def test_short_same_tier_run_is_left_alone(self):
        assert plan_compaction([1000] * (COMPACTION_MIN_RUN - 1)) == []

    def test_tiered_run_at_threshold_merges(self):
        tasks = plan_compaction([1000] * COMPACTION_MIN_RUN)
        assert [(t.start, t.stop) for t in tasks] == [(0, COMPACTION_MIN_RUN)]
        assert "tier" in tasks[0].reason

    def test_only_long_runs_merge_in_mixed_tiers(self):
        # tiers: 9,9,9,9 | 12 | 6,6,6,6,6 — the lone tier-12 shard is kept.
        nbytes = [1000] * 4 + [5000] + [64] * 5
        tasks = plan_compaction(nbytes)
        assert [(t.start, t.stop) for t in tasks] == [(0, 4), (5, 10)]

    def test_min_run_is_tunable(self):
        tasks = plan_compaction([1000, 1000], min_run=2)
        assert [(t.start, t.stop) for t in tasks] == [(0, 2)]
        with pytest.raises(ValueError):
            plan_compaction([1000], min_run=0)

    def test_full_merges_everything(self):
        tasks = plan_compaction([100, 5000, 64], full=True)
        assert [(t.start, t.stop) for t in tasks] == [(0, 3)]
        assert tasks[0].reason == "full compaction requested"

    def test_budget_splits_merge_groups(self):
        # shard budget 250 B: greedy groups of two 100 B shards each.
        tasks = plan_compaction([100] * 6, full=True,
                                memory_budget=250 * SHARD_BUDGET_DIVISOR)
        assert [(t.start, t.stop) for t in tasks] == [(0, 2), (2, 4), (4, 6)]

    def test_oversized_shard_gets_singleton_group(self):
        # A shard already over the budget cannot shrink — it still gets its
        # own group (where a full compaction may purge its tombstones).
        tasks = plan_compaction([1000, 50, 50], full=True,
                                memory_budget=100 * SHARD_BUDGET_DIVISOR)
        assert [(t.start, t.stop) for t in tasks] == [(0, 1), (1, 3)]
        assert tasks[0].n_shards == 1


class TestCompactIntegration:
    def test_full_compaction_is_bit_identical(self, tmp_path):
        sets = make_sets(24)
        sharded = ShardedCollection.build(
            sets, UNIVERSE, tmp_path / "spill", rng=7,
            memory_budget=budget_for(24), max_sets_per_shard=3)
        assert sharded.n_shards == 8
        reference = sharded.count_all_pairs()
        sharded.compact(full=True)
        assert sharded.generation == 1
        assert sharded.n_shards < 8
        np.testing.assert_array_equal(sharded.count_all_pairs(), reference)
        reattached = ShardedCollection.from_spill(tmp_path / "spill")
        assert reattached.generation == 1
        np.testing.assert_array_equal(reattached.count_all_pairs(), reference)

    def test_tiered_compaction_merges_equal_shards(self, tmp_path):
        # Same-size sets pack to same-size shards → one size tier → the
        # steady-state tiered policy (no ``full``) folds the run.
        sets = make_sets(18, seed=2, min_size=50, max_size=50)
        sharded = ShardedCollection.build(
            sets, UNIVERSE, tmp_path / "spill", rng=1,
            memory_budget=budget_for(18), max_sets_per_shard=3)
        assert sharded.n_shards == 6
        reference = sharded.count_all_pairs()
        sharded.compact()
        assert sharded.generation == 1
        assert sharded.n_shards < 6
        np.testing.assert_array_equal(sharded.count_all_pairs(), reference)

    def test_compaction_purges_tombstones(self, tmp_path):
        sets = make_sets(20, seed=3)
        sharded = ShardedCollection.build(
            sets, UNIVERSE, tmp_path / "spill", rng=4,
            memory_budget=budget_for(20), max_sets_per_shard=4)
        sharded.delete([1, 5, 17])
        live_counts = sharded.count_all_pairs()
        assert sharded.generation == 1
        sharded.compact(full=True)
        assert sharded.generation == 2
        assert sharded.tombstones.size == 0
        # A full purge leaves no tombstone file at all — neither the legacy
        # fixed name nor any v3 generational one.
        assert not list((tmp_path / "spill").glob("tombstones*.npy"))
        assert sharded.n_sets == 17
        assert sharded.n_physical_sets == 17
        np.testing.assert_array_equal(sharded.count_all_pairs(), live_counts)
        reattached = ShardedCollection.from_spill(tmp_path / "spill")
        assert reattached.tombstones.size == 0
        np.testing.assert_array_equal(reattached.count_all_pairs(), live_counts)

    def test_delta_shards_fold_into_base(self, tmp_path):
        sharded = ShardedCollection.build(
            make_sets(12, seed=6), UNIVERSE, tmp_path / "spill", rng=9,
            memory_budget=budget_for(12), max_sets_per_shard=4)
        for seed in (20, 21, 22):
            sharded.append(make_sets(2, seed=seed))
        assert any(s.kind == "delta" for s in sharded.shards)
        reference = sharded.count_all_pairs()
        sharded.compact(full=True)
        assert all(s.kind == "base" for s in sharded.shards)
        np.testing.assert_array_equal(sharded.count_all_pairs(), reference)

    def test_tiered_noop_keeps_generation(self, tmp_path):
        sets = make_sets(9, seed=8)
        sharded = ShardedCollection.build(
            sets, UNIVERSE, tmp_path / "spill", rng=2,
            memory_budget=budget_for(9), max_sets_per_shard=3)
        assert sharded.n_shards < COMPACTION_MIN_RUN + 1
        generation = sharded.generation
        n_shards = sharded.n_shards
        sharded.compact()  # nothing to merge, nothing to purge
        assert sharded.generation == generation
        assert sharded.n_shards == n_shards

    def test_consumed_shard_directories_are_removed(self, tmp_path):
        sets = make_sets(16, seed=12)
        sharded = ShardedCollection.build(
            sets, UNIVERSE, tmp_path / "spill", rng=5,
            memory_budget=budget_for(16), max_sets_per_shard=2)
        old_dirs = [s.directory for s in sharded.shards]
        sharded.compact(full=True)
        for directory in old_dirs:
            assert not directory.exists()
        for shard in sharded.shards:
            assert shard.directory.exists()

    def test_module_level_compact_on_empty_collection_rejected(self, tmp_path):
        sets = make_sets(4, seed=1)
        sharded = ShardedCollection.build(
            sets, UNIVERSE, tmp_path / "spill", rng=1,
            memory_budget=budget_for(4))
        sharded.shards = []
        with pytest.raises(ValueError, match="empty"):
            compact(sharded)


class TestPlannerShardFanout:
    def features(self, n_shards, words_per_set=8, n_sets=2048):
        return PlanFeatures(n_sets=n_sets, total_words=n_sets * words_per_set,
                            r0=8, byte_entries=True, n_shards=n_shards)

    def test_shard_fanout_selects_parallel(self):
        plan = plan_counts(self.features(SHARD_FANOUT_MIN + 2), workers=4)
        assert plan.backend == "parallel"
        assert "shard-pair" in plan.reason

    def test_fanout_overrides_wide_class_gate(self):
        # Wide classes normally keep counting serial (memory-bound SWAR),
        # but shard-pair rectangles are attach-latency-bound: fanout wins.
        wide = self.features(SHARD_FANOUT_MIN, words_per_set=WIDE_WORDS_PER_SET)
        plan = plan_counts(wide, workers=4)
        assert plan.backend == "parallel"
        assert "shard" in plan.reason

    def test_below_fanout_wide_class_stays_serial(self):
        wide = self.features(SHARD_FANOUT_MIN - 1,
                             words_per_set=WIDE_WORDS_PER_SET)
        plan = plan_counts(wide, workers=4)
        assert plan.backend == "batch"
        assert "wide-class" in plan.reason

    def test_plan_build_recommends_compaction_past_fanout(self):
        plan = plan_build(1024, 200_000, workers=4,
                          n_existing_shards=SHARD_FANOUT_MIN + 2)
        assert "compaction recommended" in plan.reason

    def test_plan_build_quiet_below_fanout(self):
        plan = plan_build(1024, 200_000, workers=4, n_existing_shards=2)
        assert "compaction" not in plan.reason
