"""Unit tests for the atomic-commit protocol and verify/repair backends.

:mod:`repro.core.integrity` is the durability kernel every spill mutation
routes through.  These tests exercise it in isolation — staging hygiene,
the commit point, garbage sweeping, stale-staging reclamation and the
verify/repair report surface — while ``tests/test_crash_recovery.py``
proves the end-to-end crash guarantees over real mutations.
"""

from __future__ import annotations

import errno
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from repro.core.errors import IntegrityError
from repro.core.integrity import (
    DIGEST_ALGORITHM,
    MANIFEST_NAME,
    SHARD_ARRAY_NAMES,
    STAGING_PREFIX,
    AtomicCommit,
    file_digest,
    repair_spill,
    sweep_stale_staging,
    verify_spill,
)
from repro.core.sharded import ShardedCollection


@pytest.fixture
def spill(tmp_path):
    """A small committed v3 artifact with two tombstones."""
    rng = np.random.default_rng(5)
    sets = [np.sort(rng.choice(64, size=8, replace=False)) for _ in range(8)]
    collection = ShardedCollection.build(
        sets, 64, tmp_path / "spill", memory_budget=30_000, rng=3)
    collection.delete([1, 4])
    return tmp_path / "spill"


class TestFileDigest:
    def test_stable_and_chunking_invariant(self, tmp_path):
        payload = os.urandom((1 << 20) + 17)  # crosses the 1 MiB chunk size
        path = tmp_path / "blob"
        path.write_bytes(payload)
        first = file_digest(path)
        assert first == file_digest(path)
        assert len(first) == 32  # 16-byte blake2b, hex
        path.write_bytes(payload[:-1] + bytes([payload[-1] ^ 1]))
        assert file_digest(path) != first
        assert DIGEST_ALGORITHM == "blake2b-128"


class TestAtomicCommit:
    def test_commit_publishes_files_manifest_and_sweeps_garbage(self, tmp_path):
        spill = tmp_path / "spill"
        spill.mkdir()
        old = spill / "tombstones_0001.npy"
        old.write_bytes(b"old generation")
        commit = AtomicCommit(spill)
        commit.stage("payload.npy").write_bytes(b"new data")
        staged_dir = commit.stage("shard_0001")
        staged_dir.mkdir()
        (staged_dir / "words.npy").write_bytes(b"words")
        commit.add_garbage(old)
        commit.commit({"version": 3, "generation": 2})
        assert (spill / "payload.npy").read_bytes() == b"new data"
        assert (spill / "shard_0001" / "words.npy").read_bytes() == b"words"
        assert json.loads((spill / MANIFEST_NAME).read_text())["generation"] == 2
        assert not old.exists()
        assert not commit.staging.exists()
        assert commit.committed

    def test_abort_leaves_the_live_artifact_untouched(self, tmp_path):
        spill = tmp_path / "spill"
        spill.mkdir()
        (spill / MANIFEST_NAME).write_text('{"version": 3}')
        live = spill / "live.npy"
        live.write_bytes(b"live")
        commit = AtomicCommit(spill)
        commit.stage("next.npy").write_bytes(b"uncommitted")
        commit.add_garbage(live)
        commit.abort()
        assert live.read_bytes() == b"live"
        assert not (spill / "next.npy").exists()
        assert not commit.staging.exists()
        assert (spill / MANIFEST_NAME).read_text() == '{"version": 3}'

    def test_stage_rejects_reserved_and_duplicate_names(self, tmp_path):
        commit = AtomicCommit(tmp_path / "spill")
        with pytest.raises(ValueError, match="reserved"):
            commit.stage(MANIFEST_NAME)
        with pytest.raises(ValueError, match="reserved"):
            commit.stage(f"{STAGING_PREFIX}evil")
        with pytest.raises(ValueError, match="reserved"):
            commit.stage("nested/name")
        commit.stage("fresh.npy")
        with pytest.raises(ValueError, match="already staged"):
            commit.stage("fresh.npy")
        commit.abort()

    def test_taken_sees_both_live_and_staged_names(self, tmp_path):
        spill = tmp_path / "spill"
        spill.mkdir()
        (spill / "shard_0000").mkdir()
        commit = AtomicCommit(spill)
        assert commit.taken("shard_0000")
        assert not commit.taken("shard_0001")
        commit.stage("shard_0001")
        assert commit.taken("shard_0001")
        commit.abort()

    @staticmethod
    def _fail_dir_fsync(monkeypatch, code):
        real = os.fsync

        def fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(code, os.strerror(code))
            return real(fd)

        monkeypatch.setattr(os, "fsync", fsync)

    def test_dir_fsync_io_error_fails_the_commit(self, tmp_path, monkeypatch):
        spill = tmp_path / "spill"
        spill.mkdir()
        commit = AtomicCommit(spill)
        commit.stage("payload.npy").write_bytes(b"new data")
        self._fail_dir_fsync(monkeypatch, errno.EIO)
        with pytest.raises(OSError) as info:
            commit.commit({"version": 3, "generation": 1})
        assert info.value.errno == errno.EIO
        assert not commit.committed

    def test_dir_fsync_unsupported_is_tolerated(self, tmp_path, monkeypatch):
        spill = tmp_path / "spill"
        spill.mkdir()
        commit = AtomicCommit(spill)
        commit.stage("payload.npy").write_bytes(b"new data")
        self._fail_dir_fsync(monkeypatch, errno.EINVAL)
        commit.commit({"version": 3, "generation": 1})
        assert commit.committed
        assert (spill / "payload.npy").read_bytes() == b"new data"
        assert json.loads((spill / MANIFEST_NAME).read_text())["generation"] == 1

    def test_commit_twice_raises(self, tmp_path):
        commit = AtomicCommit(tmp_path / "spill")
        commit.commit({"version": 3})
        with pytest.raises(RuntimeError, match="twice"):
            commit.commit({"version": 3})

    def test_crashed_attempt_dir_target_is_replaced(self, tmp_path):
        # A crashed earlier attempt can leave a directory under a name the
        # retry re-stages (generations only advance on successful commits).
        spill = tmp_path / "spill"
        spill.mkdir()
        stale = spill / "compact_0002_0000"
        stale.mkdir()
        (stale / "words.npy").write_bytes(b"stale")
        commit = AtomicCommit(spill)
        staged = commit.stage("compact_0002_0000")
        staged.mkdir()
        (staged / "words.npy").write_bytes(b"fresh")
        commit.commit({"version": 3})
        assert (spill / "compact_0002_0000" / "words.npy").read_bytes() == b"fresh"


class TestStaleStagingSweep:
    def test_dead_pid_is_swept_and_live_pid_is_kept(self, tmp_path):
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        dead = tmp_path / f"{STAGING_PREFIX}{proc.pid}-cafe0000"
        dead.mkdir()
        (dead / "partial.npy").write_bytes(b"x")
        live = tmp_path / f"{STAGING_PREFIX}{os.getpid()}-beef0000"
        live.mkdir()
        removed = sweep_stale_staging(tmp_path)
        assert removed == [dead]
        assert not dead.exists()
        assert live.exists()


class TestVerify:
    def test_clean_artifact_verifies_clean(self, spill):
        report = verify_spill(spill)
        assert report.ok
        assert report.version == 3
        assert report.generation == 1
        assert report.files_checked > 0
        assert report.bytes_hashed > 0
        assert report.errors == [] and report.warnings == []
        assert "clean" in report.render()
        assert report.to_dict()["ok"] is True

    def test_missing_manifest_is_damage(self, tmp_path):
        report = verify_spill(tmp_path)
        assert not report.ok
        assert report.errors[0].code == "manifest-missing"
        assert "DAMAGED" in report.render()

    def test_garbage_is_warned_not_errored(self, spill):
        (spill / f"{STAGING_PREFIX}99999999-dead0000").mkdir()
        (spill / "tombstones_0099.npy").write_bytes(b"orphan")
        (spill / "compact_0099_0000").mkdir()
        report = verify_spill(spill)
        assert report.ok
        codes = sorted(f.code for f in report.warnings)
        assert codes == ["orphan", "orphan", "staging-leftover"]

    def test_checksum_mismatch_is_damage(self, spill):
        manifest = json.loads((spill / MANIFEST_NAME).read_text())
        shard_dir = spill / manifest["shards"][0]["dir"]
        with open(shard_dir / "words.npy", "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last[0] ^ 0xFF]))
        report = verify_spill(spill)
        assert not report.ok
        assert any(f.code == "checksum-mismatch" for f in report.errors)

    def test_verify_covers_every_shard_array(self, spill):
        manifest = json.loads((spill / MANIFEST_NAME).read_text())
        for entry in manifest["shards"]:
            assert set(entry["files"]) == set(SHARD_ARRAY_NAMES)


class TestRepair:
    def test_repair_sweeps_all_garbage(self, spill):
        # a finished process's staging: repair leaves a live writer's alone
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        (spill / f"{STAGING_PREFIX}{dead.pid}-feed0000").mkdir()
        (spill / "family_0099.npz").write_bytes(b"orphan")
        result = repair_spill(spill)
        assert len(result.actions) == 2
        assert result.report.ok
        assert not (spill / "family_0099.npz").exists()
        follow_up = repair_spill(spill)
        assert follow_up.actions == []

    def test_repair_without_manifest_raises_integrity_error(self, tmp_path):
        with pytest.raises(IntegrityError, match="rebuilt"):
            repair_spill(tmp_path)

    def test_repair_keeps_everything_the_manifest_references(self, spill):
        before = sorted(p.name for p in spill.iterdir())
        result = repair_spill(spill)
        assert result.actions == []
        assert sorted(p.name for p in spill.iterdir()) == before
        reloaded = ShardedCollection.from_spill(spill)
        assert reloaded.generation == 1
