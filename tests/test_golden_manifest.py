"""Golden manifests: one seeded spill lifecycle, pinned byte for byte.

Every writer — finalize, append, delete, compact — publishes a version-3
``manifest.json``.  This test drives one fixed-seed lifecycle through all of
them (a lazy-family build into two shards, an append whose tiny set lowers
``r0``, an append that grows the universe, a delete, a full compaction) and
compares the committed document after each step with the frozen copy under
``tests/fixtures/golden_manifests/``.  The documents carry every content
digest, file name, generation and shard boundary, so any change to what a
writer records — or to the bytes of a file it writes — shows here.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.manifest import MANIFEST_NAME
from repro.core.sharded import ShardedCollection

GOLDEN = Path(__file__).parent / "fixtures" / "golden_manifests"

#: (fixture name, mutation) in lifecycle order; the build is step 0.
STEPS = (
    ("1_append_lowers_r0", lambda c, sets: c.append(sets["tiny"])),
    ("2_append_grows_universe",
     lambda c, sets: c.append(sets["medium"], universe_size=512)),
    ("3_delete", lambda c, sets: c.delete([1, 4, 6])),
    ("4_compact_full", lambda c, sets: c.compact(full=True)),
)


def _lifecycle_sets() -> dict:
    rng = np.random.default_rng(2024)
    return {
        "base": [np.sort(rng.choice(256, size=40, replace=False))
                 for _ in range(8)],
        "tiny": [np.sort(rng.choice(64, size=3, replace=False))],
        "medium": [np.sort(rng.choice(400, size=15, replace=False))
                   for _ in range(3)],
    }


def _assert_golden(spill: Path, name: str) -> None:
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert (spill / MANIFEST_NAME).read_bytes() == expected, name


def test_lifecycle_manifests_match_golden_bytes(tmp_path):
    sets = _lifecycle_sets()
    spill = tmp_path / "spill"
    collection = ShardedCollection.build(
        sets["base"], 256, spill, memory_budget=60_000, family_kind="lazy",
        family_capacity=1024, max_sets_per_shard=4, rng=7)
    assert collection.n_shards >= 2
    _assert_golden(spill, "0_build")
    r0 = collection.r0
    for name, mutate in STEPS:
        mutate(collection, sets)
        _assert_golden(spill, name)
        if name == "1_append_lowers_r0":
            assert collection.r0 < r0
    assert collection.universe_size == 512

