"""Spill-format version negotiation and v1 migration.

``tests/fixtures/spill_v1`` is a frozen artifact written by the version-1
manifest writer (before generations, tombstones and delta shards existed),
together with the exact sets it was built from and its expected count
matrix.  These tests pin the compatibility promise: v1 artifacts attach,
serve and accept appends unchanged (the first mutation re-commits them at
version 3 with checksums), and anything outside the supported versions
fails with :class:`~repro.core.errors.SpillFormatError` — never a KeyError
or a silently wrong attach.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import SpillFormatError
from repro.core.sharded import SUPPORTED_SPILL_VERSIONS, ShardedCollection
from repro.parallel.sharded import ShardedPairCounter
from repro.serve.engine import SpillQueryEngine

FIXTURES = Path(__file__).parent / "fixtures"
V1_DIR = FIXTURES / "spill_v1"


@pytest.fixture
def v1_spill(tmp_path) -> Path:
    """A writable copy of the frozen v1 artifact."""
    target = tmp_path / "spill_v1"
    shutil.copytree(V1_DIR, target)
    return target


def v1_sets() -> list:
    data = np.load(FIXTURES / "spill_v1_sets.npz")
    return [data[f"set_{k}"] for k in range(12)]


def expected_counts() -> np.ndarray:
    return np.load(FIXTURES / "spill_v1_expected_counts.npy")


class TestV1Attach:
    def test_attach_negotiates_generation_zero(self):
        sharded = ShardedCollection.from_spill(V1_DIR)
        assert sharded.generation == 0
        assert sharded.n_sets == 12
        assert sharded.tombstones.size == 0
        assert all(shard.kind == "base" for shard in sharded.shards)

    def test_v1_counts_match_frozen_expectation(self):
        sharded = ShardedCollection.from_spill(V1_DIR)
        counts = ShardedPairCounter(sharded, compute="batch").counts()
        np.testing.assert_array_equal(counts, expected_counts())

    def test_shard_attach_works(self):
        sharded = ShardedCollection.from_spill(V1_DIR)
        for s in range(sharded.n_shards):
            index = sharded.attach(s)
            assert index.widths.size == sharded.shards[s].n_sets

    def test_supported_versions_constant(self):
        assert SUPPORTED_SPILL_VERSIONS == (1, 2, 3)


class TestV1Serve:
    def test_engine_serves_v1(self):
        engine = SpillQueryEngine(ShardedCollection.from_spill(V1_DIR))
        counts = expected_counts()
        sets = v1_sets()
        pairs = np.array([[0, 1], [3, 7], [8, 11]], dtype=np.int64)
        np.testing.assert_array_equal(
            engine.count_pairs(pairs),
            counts[pairs[:, 0], pairs[:, 1]])
        member = engine.members(2, np.arange(96))
        np.testing.assert_array_equal(np.nonzero(member)[0], sets[2])
        stats = engine.stats()
        assert stats["generation"] == 0
        assert stats["n_tombstones"] == 0
        assert stats["artifact_token"].startswith("g0-")


class TestV1Migration:
    def test_append_to_v1_upgrades_manifest(self, v1_spill):
        sharded = ShardedCollection.from_spill(v1_spill)
        rng = np.random.default_rng(99)
        delta = [np.sort(rng.choice(96, size=9, replace=False))
                 for _ in range(3)]
        sharded.append(delta)
        manifest = json.loads((v1_spill / "manifest.json").read_text())
        assert manifest["version"] == 3
        assert manifest["generation"] == 1
        # The upgrade records checksums for every shard, old and new.
        assert manifest["checksums"] == "blake2b-128"
        assert all(set(entry["files"]) == {"words.npy", "offsets.npy",
                                           "widths.npy", "order.npy",
                                           "failed.npy"}
                   for entry in manifest["shards"])
        kinds = [entry["kind"] for entry in manifest["shards"]]
        assert kinds[:-1] == ["base"] * (len(kinds) - 1)
        assert kinds[-1] == "delta"

        # Counts over base + delta equal a from-scratch build with the
        # artifact's own (eager) family.
        from repro.core.collection import BatmapCollection
        from repro.core.config import DEFAULT_CONFIG

        reloaded = ShardedCollection.from_spill(v1_spill)
        counts = ShardedPairCounter(reloaded, compute="batch").counts()
        reference = BatmapCollection.build(
            v1_sets() + delta, 96,
            config=DEFAULT_CONFIG.with_(payload_bits=7),
            family=reloaded.family)
        np.testing.assert_array_equal(
            counts, reference.count_all_pairs(compute="batch"))

    def test_delete_on_v1_writes_tombstones(self, v1_spill):
        sharded = ShardedCollection.from_spill(v1_spill)
        sharded.delete([0, 5])
        assert sharded.n_sets == 10
        # v3 deletes write generational tombstone files recorded in the
        # manifest — never the legacy fixed name.
        manifest = json.loads((v1_spill / "manifest.json").read_text())
        tombstones_file = manifest["tombstones"]["file"]
        assert tombstones_file == "tombstones_0001.npy"
        assert (v1_spill / tombstones_file).exists()
        reloaded = ShardedCollection.from_spill(v1_spill)
        assert reloaded.generation == 1
        np.testing.assert_array_equal(reloaded.tombstones, [0, 5])
        counts = ShardedPairCounter(reloaded, compute="batch").counts()
        live = np.setdiff1d(np.arange(12), [0, 5])
        np.testing.assert_array_equal(
            counts, expected_counts()[np.ix_(live, live)])

    def test_v1_files_are_hashed_once_across_mutations(self, v1_spill,
                                                       monkeypatch):
        # The first mutation records digests for the carried v1 files; the
        # collection adopts that record, so later commits hash only the
        # files they write themselves.
        from repro.core import manifest, sharded as sharded_module

        hashed = []
        real = manifest.file_digest

        def recording(path):
            hashed.append(Path(path))
            return real(path)

        monkeypatch.setattr(manifest, "file_digest", recording)
        monkeypatch.setattr(sharded_module, "file_digest", recording)
        sharded = ShardedCollection.from_spill(v1_spill)
        sharded.delete([0])  # the v3 upgrade hashes the carried files
        assert {"words.npy", "family.npz"} <= {path.name for path in hashed}
        hashed.clear()
        sharded.append([np.arange(3, 30, 2)])
        sharded.delete([1])
        committed = [path for path in hashed if ".staging-" not in path.as_posix()]
        assert committed == []
        assert sharded.generation == 3

    def test_compact_v1_names_the_family_kind_without_loading_it(
            self, v1_spill, monkeypatch):
        # A v1 manifest records no family kind; compaction takes it from the
        # record (the archive's member list), never from a loaded family.
        from repro.core import hashing, sharded as sharded_module

        def refuse(path):
            raise AssertionError(f"load_family({path}) during compaction")

        monkeypatch.setattr(hashing, "load_family", refuse)
        monkeypatch.setattr(sharded_module, "load_family", refuse)
        sharded = ShardedCollection.from_spill(v1_spill)
        sharded.compact(full=True)
        assert sharded.generation == 1 and sharded.n_shards == 1
        manifest = json.loads((v1_spill / "manifest.json").read_text())
        assert manifest["version"] == 3
        assert manifest["family_kind"] == "eager"
        assert manifest["family"]["file"] == "family.npz"
        counts = ShardedPairCounter(sharded, compute="batch").counts()
        np.testing.assert_array_equal(counts, expected_counts())


def _corrupt(spill: Path, mutate) -> None:
    manifest = json.loads((spill / "manifest.json").read_text())
    mutate(manifest)
    (spill / "manifest.json").write_text(json.dumps(manifest))


class TestRejection:
    def test_unknown_version_raises_spill_format_error(self, v1_spill):
        _corrupt(v1_spill, lambda m: m.update(version=99))
        with pytest.raises(SpillFormatError, match="version"):
            ShardedCollection.from_spill(v1_spill)

    def test_corrupt_json_raises_spill_format_error(self, v1_spill):
        (v1_spill / "manifest.json").write_text("{not json")
        with pytest.raises(SpillFormatError):
            ShardedCollection.from_spill(v1_spill)

    def test_missing_field_raises_spill_format_error(self, v1_spill):
        _corrupt(v1_spill, lambda m: m.pop("r0"))
        with pytest.raises(SpillFormatError):
            ShardedCollection.from_spill(v1_spill)

    def test_missing_manifest_raises_spill_format_error(self, tmp_path):
        with pytest.raises(SpillFormatError):
            ShardedCollection.from_spill(tmp_path)

    def test_engine_surface_rejects_corrupt_spill(self, v1_spill):
        # The serving path goes through the same negotiation: a corrupt
        # artifact can never reach query execution.
        _corrupt(v1_spill, lambda m: m.update(version=99))
        with pytest.raises(SpillFormatError):
            SpillQueryEngine(ShardedCollection.from_spill(v1_spill))

    def test_server_startup_rejects_corrupt_spill(self, v1_spill):
        from repro.serve.server import BackgroundServer

        _corrupt(v1_spill, lambda m: m.update(version=99))
        server = BackgroundServer(v1_spill)
        with pytest.raises(SpillFormatError):
            server.start()
        server.stop()
