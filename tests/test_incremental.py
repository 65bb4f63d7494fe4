"""Incremental-lifecycle property tests: mutations ≡ from-scratch builds.

The tentpole invariant of the incremental pipeline: a spilled collection
taken through any sequence of ``append`` / ``delete`` / ``compact`` is
bit-identical — counts, pair queries, failed lists — to a from-scratch
build of the equivalent final dataset with the same hash family.  The
property holds because per-set placement depends only on
(set, family, r, config), never on sharding, generation or arrival order.

Randomized sequences run at the spill level for both family kinds and both
byte-packable payload widths.  ``payload_bits=9`` needs 16-bit entry
storage, which the spill format does not support (the sharded builder
raises ``LayoutError``), so the placement-stability half of the invariant
is pinned at the in-memory level for that width.

Also here: the stale-cache regression — after an out-of-band mutation and a
``reload``, the server must never answer from a pre-mutation cache entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.collection import BatmapCollection
from repro.core.config import DEFAULT_CONFIG
from repro.core.errors import LayoutError
from repro.core.hashing import HashFamily
from repro.core.sharded import ShardedCollection
from repro.serve.client import ServeClient
from repro.serve.engine import SpillQueryEngine
from repro.serve.server import BackgroundServer
from repro.utils.memory import parse_memory_size
from tests.conftest import random_sets

UNIVERSE = 256
BUDGET = parse_memory_size("64M")
SEED = 42
CAPACITY = 400  # lazy-family headroom: lets the universe grow mid-sequence


def reference_counts(sharded, live_sets, config):
    """From-scratch in-memory build of the live dataset, same family."""
    collection = BatmapCollection.build(
        live_sets, sharded.universe_size, config=config, family=sharded.family)
    return collection, collection.count_all_pairs(compute="batch")


def check_equivalent(sharded, live_sets, config):
    collection, expected = reference_counts(sharded, live_sets, config)
    np.testing.assert_array_equal(sharded.count_all_pairs(), expected)
    return collection


@pytest.mark.parametrize("family_kind", ["eager", "lazy"])
@pytest.mark.parametrize("payload_bits", [5, 7])
def test_random_lifecycle_matches_from_scratch(tmp_path, family_kind,
                                               payload_bits):
    config = DEFAULT_CONFIG.with_(payload_bits=payload_bits)
    rng = np.random.default_rng(900 + payload_bits)
    universe = UNIVERSE

    def fresh_sets(n):
        return random_sets(rng, n, universe, min_size=1, max_size=40)

    live = fresh_sets(10)
    lazy = family_kind == "lazy"
    sharded = ShardedCollection.build(
        live, universe, tmp_path / "spill", rng=SEED, config=config,
        memory_budget=BUDGET, family_kind=family_kind,
        family_capacity=CAPACITY if lazy else None, max_sets_per_shard=4)
    check_equivalent(sharded, live, config)

    for step in range(8):
        op = int(rng.integers(0, 3))
        if op == 0 or len(live) <= 4:
            if lazy and step == 3:
                universe += 40  # growth within capacity: placements frozen
            batch = fresh_sets(int(rng.integers(2, 5)))
            sharded.append(batch, universe_size=universe)
            live = live + batch
        elif op == 1:
            ids = np.sort(rng.choice(len(live), size=2, replace=False))
            sharded.delete(ids)
            keep = np.setdiff1d(np.arange(len(live)), ids)
            live = [live[k] for k in keep.tolist()]
        else:
            sharded.compact(full=bool(rng.integers(0, 2)))
        check_equivalent(sharded, live, config)

    # Disk re-attach and the serving engine agree with the final state —
    # counts, point pair queries, membership, and per-set failed lists.
    reattached = ShardedCollection.from_spill(tmp_path / "spill")
    reference = check_equivalent(reattached, live, config)
    engine = SpillQueryEngine(reattached)
    try:
        pairs = np.array([[0, 1], [2, len(live) - 1]], dtype=np.int64)
        expected_pairs = [reference.count_pair(int(i), int(j))
                          for i, j in pairs]
        np.testing.assert_array_equal(engine.count_pairs(pairs),
                                      expected_pairs)
        probe = np.arange(universe, dtype=np.int64)
        for i in (0, len(live) // 2, len(live) - 1):
            np.testing.assert_array_equal(
                np.nonzero(engine.members(i, probe))[0], live[i])
            assert engine.batmap(i).failed == reference.batmap(i).failed
    finally:
        engine.close()

    # The strongest form: a from-scratch *spill* build of the final live
    # dataset (same seed, same capacity) serves the same bytes.
    scratch = ShardedCollection.build(
        live, universe, tmp_path / "scratch", rng=SEED, config=config,
        memory_budget=BUDGET, family_kind=family_kind,
        family_capacity=CAPACITY if lazy else None, max_sets_per_shard=4)
    assert scratch.family == reattached.family
    np.testing.assert_array_equal(scratch.count_all_pairs(),
                                  reattached.count_all_pairs())


@pytest.mark.parametrize("family_kind", ["eager", "lazy"])
def test_delete_and_compact_never_load_the_family(tmp_path, family_kind, monkeypatch):
    """Naming the family's kind in the next manifest reads the current one."""
    import json

    import repro.core.sharded as sharded_module

    rng = np.random.default_rng(SEED)
    ShardedCollection.build(random_sets(rng, 30, UNIVERSE), UNIVERSE, tmp_path,
                            memory_budget=BUDGET, rng=SEED, family_kind=family_kind,
                            max_sets_per_shard=10)

    def refuse(path):
        raise AssertionError(f"loaded {path}")

    monkeypatch.setattr(sharded_module, "load_family", refuse)
    ShardedCollection.from_spill(tmp_path).delete([3, 7])
    ShardedCollection.from_spill(tmp_path).compact(full=True)
    monkeypatch.undo()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["generation"] == 2 and manifest["family_kind"] == family_kind
    reattached = ShardedCollection.from_spill(tmp_path)
    assert reattached.n_sets == 28 and reattached.family is not None
    assert reattached.family_kind == family_kind  # the loaded family agrees


class TestPayloadNine:
    """payload_bits=9: in-memory placement stability, spill rejection."""

    CONFIG = DEFAULT_CONFIG.with_(payload_bits=9)

    def test_placement_stable_under_dataset_growth_in_memory(self):
        # 9-bit payloads store in 16-bit entries, so the spill format
        # (one byte per entry, SWAR-folded) cannot hold them — but the
        # incremental invariant is a property of placement, not storage:
        # adding sets to a collection must not move any existing row.
        rng = np.random.default_rng(77)
        base = random_sets(rng, 8, UNIVERSE, min_size=1, max_size=40)
        delta = random_sets(rng, 4, UNIVERSE, min_size=1, max_size=40)
        family = HashFamily.create(
            UNIVERSE, shift=self.CONFIG.shift_for_universe(UNIVERSE), rng=5)
        small = BatmapCollection.build(base, UNIVERSE, config=self.CONFIG,
                                       family=family)
        grown = BatmapCollection.build(base + delta, UNIVERSE,
                                       config=self.CONFIG, family=family)
        for i in range(len(base)):
            before, after = small.batmap(i), grown.batmap(i)
            assert after.r == before.r
            assert after.failed == before.failed
            np.testing.assert_array_equal(after.entries, before.entries)
        np.testing.assert_array_equal(
            grown.count_all_pairs()[:len(base), :len(base)],
            small.count_all_pairs())

    def test_sharded_builder_rejects_sixteen_bit_entries(self, tmp_path):
        rng = np.random.default_rng(1)
        sets = random_sets(rng, 4, UNIVERSE, min_size=1, max_size=20)
        with pytest.raises(LayoutError):
            ShardedCollection.build(sets, UNIVERSE, tmp_path / "spill",
                                    rng=1, config=self.CONFIG,
                                    memory_budget=BUDGET)


class TestStaleCacheRegression:
    def test_mutation_plus_reload_invalidates_cached_results(self, tmp_path):
        # Deliberate overlaps so the answer to live pair (0, 1) provably
        # changes when set 1 is deleted: (0,1) then denotes today's (0,2).
        rng = np.random.default_rng(3)
        sets = [np.arange(0, 50), np.arange(0, 10), np.arange(0, 30)]
        sets += random_sets(rng, 5, UNIVERSE, min_size=1, max_size=60)
        spill = tmp_path / "spill"
        ShardedCollection.build(sets, UNIVERSE, spill, rng=9,
                                memory_budget=BUDGET, max_sets_per_shard=3)
        with BackgroundServer(spill) as bg:
            with ServeClient(bg.host, bg.port) as client:
                assert client.count([[0, 1]]) == [10]
                # Same generation: the repeat answers from the cache.
                assert client.count([[0, 1]]) == [10]
                assert client.metrics()["cache"]["hits"] >= 1

                ShardedCollection.from_spill(spill).delete([1])
                info = client.reload()
                assert info["generation"] == 1

                # The generation-scoped key must miss the pre-mutation
                # entry: (0, 1) now means old (0, 2) → 30, never 10.
                assert client.count([[0, 1]]) == [30]
                assert client.stats()["generation"] == 1

    def test_append_then_reload_serves_new_sets(self, tmp_path):
        rng = np.random.default_rng(8)
        sets = random_sets(rng, 6, UNIVERSE, min_size=1, max_size=60)
        spill = tmp_path / "spill"
        ShardedCollection.build(sets, UNIVERSE, spill, rng=2,
                                memory_budget=BUDGET)
        with BackgroundServer(spill) as bg:
            with ServeClient(bg.host, bg.port) as client:
                assert client.stats()["n_sets"] == 6
                extra = [np.arange(5, 25)]
                ShardedCollection.from_spill(spill).append(extra)
                client.reload()
                stats = client.stats()
                assert stats["n_sets"] == 7
                assert stats["generation"] == 1
                member = client.member(6, list(range(30)))
                assert [e for e, hit in enumerate(member) if hit] == list(
                    range(5, 25))
