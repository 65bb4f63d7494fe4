"""Concurrent spill writers: no lost updates.

Append, delete, compact and repair hold an exclusive ``flock`` on
``<spill>/LOCK`` and re-read the committed generation under it.  The CLI
holds the lock from attach to commit, so a second ``repro`` writer waits
and then mutates the newer generation; a library caller holding a stale
attachment gets :class:`~repro.core.errors.SpillConflictError` instead of
silently overwriting the other writer's commit.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.core.errors import SpillConflictError
from repro.core.integrity import STAGING_PREFIX, repair_spill, verify_spill, writer_lock
from repro.core.sharded import ShardedCollection

SRC = Path(__file__).resolve().parents[1] / "src"


def _write_sets(path: Path, n: int, seed: int) -> Path:
    rng = np.random.default_rng(seed)
    lines = [" ".join(map(str, np.sort(rng.choice(300, size=int(rng.integers(3, 30)),
                                                 replace=False))))
             for _ in range(n)]
    path.write_text("\n".join(lines) + "\n")
    return path


def _spill(tmp_path: Path, n: int = 40) -> Path:
    spill = tmp_path / "spill"
    out = io.StringIO()
    argv = ["build-index", str(_write_sets(tmp_path / "base.sets", n, 1)), str(spill),
            "--sets-file", "--universe", "400", "--family", "lazy",
            "--memory-budget", "40K"]
    assert cli.main(argv, out=out) == 0, out.getvalue()
    return spill


def _repro(*args) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "repro.cli", *map(str, args)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def _assert_clean(spill: Path) -> None:
    report = verify_spill(spill)
    assert report.ok and not report.warnings, report.render()


def test_two_concurrent_ingests_lose_no_update(tmp_path):
    spill = _spill(tmp_path)
    batches = [_write_sets(tmp_path / f"extra{k}.sets", 30, 10 + k) for k in range(2)]
    procs = [_repro("ingest", spill, batch, "--append") for batch in batches]
    outputs = [proc.communicate(timeout=120)[0] for proc in procs]
    codes = [proc.returncode for proc in procs]
    n_sets = ShardedCollection.from_spill(spill).n_sets
    if codes == [0, 0]:
        assert n_sets == 100, outputs
    else:
        # the only acceptable loss: one writer refused, loudly
        assert sorted(codes) == [0, 2], outputs
        refused = outputs[codes.index(2)].strip().splitlines()
        assert refused[-1].startswith("error:") and "another writer" in refused[-1]
        assert n_sets == 70
    _assert_clean(spill)


def test_cli_writer_waits_for_the_lock(tmp_path):
    spill = _spill(tmp_path)
    with writer_lock(spill):
        proc = _repro("delete", spill, "--sets", 3)
        time.sleep(1.0)
        assert proc.poll() is None, "a second writer must block on the lock"
    output = proc.communicate(timeout=60)[0]
    assert proc.returncode == 0, output
    assert ShardedCollection.from_spill(spill).n_sets == 39
    _assert_clean(spill)


@pytest.mark.parametrize("mutation", ["append", "delete", "compact"])
def test_stale_attachment_raises(tmp_path, mutation):
    spill = _spill(tmp_path)
    first = ShardedCollection.from_spill(spill)
    stale = ShardedCollection.from_spill(spill)
    first.delete([0])
    with pytest.raises(SpillConflictError, match="another writer"):
        if mutation == "append":
            stale.append([np.arange(5)])
        elif mutation == "delete":
            stale.delete([1])
        else:
            stale.compact(full=True)
    reloaded = ShardedCollection.from_spill(spill)
    assert reloaded.generation == first.generation
    assert reloaded.n_sets == 39
    _assert_clean(spill)


def test_cli_reports_a_conflict_as_one_error_line(tmp_path, monkeypatch):
    from repro.core import manifest

    spill = _spill(tmp_path)
    real = manifest.read_manifest

    def stale_attach(path):
        # another writer commits between this process's attach and its commit
        monkeypatch.setattr(manifest, "read_manifest", real)
        committed = real(path)
        ShardedCollection.from_spill(path).delete([5])
        return committed

    monkeypatch.setattr(manifest, "read_manifest", stale_attach)
    out = io.StringIO()
    assert cli.main(["delete", str(spill), "--sets", "1"], out=out) == 2
    lines = out.getvalue().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "another writer" in lines[0]


def test_repair_keeps_a_live_writers_staging(tmp_path):
    spill = _spill(tmp_path)
    live = spill / f"{STAGING_PREFIX}{os.getpid()}-0000beef"
    live.mkdir()
    result = repair_spill(spill)
    assert result.actions == []
    assert live.is_dir()


def test_threads_serialise_on_the_lock(tmp_path):
    """More writer threads than cores, each attach-to-commit under the lock."""
    import threading

    spill = _spill(tmp_path)
    errors = []

    def delete_first_live():
        try:
            with writer_lock(spill):
                ShardedCollection.from_spill(spill).delete([0])
        except Exception as exc:  # reported below; a lost update fails the count
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=delete_first_live) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    reloaded = ShardedCollection.from_spill(spill)
    assert reloaded.n_sets == 34 and reloaded.generation == 6
    _assert_clean(spill)


# --------------------------------------------------------------------------- #
# Fresh builds: staging to commit under the same lock
# --------------------------------------------------------------------------- #
def _build_argv(sets: Path, spill: Path) -> list:
    return ["build-index", sets, spill, "--sets-file", "--universe", "400",
            "--family", "lazy", "--memory-budget", "40K"]


def test_two_concurrent_builds_leave_one_clean_spill(tmp_path):
    spill = tmp_path / "spill"
    inputs = {n: _write_sets(tmp_path / f"base{n}.sets", n, n) for n in (40, 60)}
    procs = [_repro(*_build_argv(path, spill)) for path in inputs.values()]
    outputs = [proc.communicate(timeout=120)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outputs
    # the later build replaced the earlier one: its files are swept, the
    # generation moved past it, and the item map matches the survivor
    final = ShardedCollection.from_spill(spill)
    assert final.n_sets in inputs and final.generation == 1
    assert np.load(spill / "item_map.npy").size == final.n_sets
    _assert_clean(spill)


def test_ingest_racing_a_fresh_build_waits_or_refuses(tmp_path):
    spill = tmp_path / "spill"
    build = _repro(*_build_argv(_write_sets(tmp_path / "base.sets", 40, 1), spill))
    ingest = _repro("ingest", spill, _write_sets(tmp_path / "extra.sets", 30, 2), "--append")
    outputs = [proc.communicate(timeout=120)[0] for proc in (build, ingest)]
    assert build.returncode == 0, outputs
    n_sets = ShardedCollection.from_spill(spill).n_sets
    if ingest.returncode == 0:  # waited for the build, then appended to it
        assert n_sets == 70, outputs
    else:  # ran before the build committed: nothing to append to
        assert ingest.returncode == 2, outputs
        lines = outputs[1].strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), outputs
        assert n_sets == 40
    _assert_clean(spill)


def test_cli_build_waits_for_the_lock(tmp_path):
    spill = tmp_path / "spill"
    spill.mkdir()
    with writer_lock(spill):
        proc = _repro(*_build_argv(_write_sets(tmp_path / "base.sets", 40, 1), spill))
        time.sleep(1.0)
        assert proc.poll() is None, "a fresh build must block on the lock"
        assert not any(spill.glob(f"{STAGING_PREFIX}*")), "nothing staged before the lock"
    output = proc.communicate(timeout=60)[0]
    assert proc.returncode == 0, output
    assert ShardedCollection.from_spill(spill).n_sets == 40
    _assert_clean(spill)


def test_rebuild_in_place_replaces_the_committed_spill(tmp_path):
    spill = _spill(tmp_path)
    stale = ShardedCollection.from_spill(spill)
    stale.delete([0])  # generation 1, with a tombstone file
    old_files = {p.name for p in spill.iterdir()}
    rebuilt = ShardedCollection.build([np.arange(k, k + 5) for k in range(12)], 64, spill,
                                      memory_budget=1 << 20, rng=3)
    assert rebuilt.generation == 2 and rebuilt.n_sets == 12
    assert not any(p.name.startswith("tombstones") for p in spill.iterdir())
    kept = {"manifest.json", "LOCK", "item_map.npy"}  # the item map is the CLI's
    assert {p.name for p in spill.iterdir()} & old_files <= kept
    _assert_clean(spill)
    with pytest.raises(SpillConflictError, match="another writer"):
        stale.delete([1])


def test_failed_build_releases_the_lock(tmp_path):
    import fcntl

    from repro.utils import faultpoints

    spill = tmp_path / "spill"
    sets = [np.arange(k, k + 5) for k in range(40)]
    faultpoints.arm("append.shard", hit=2)
    try:
        with pytest.raises(faultpoints.InjectedFault):
            ShardedCollection.build(sets, 64, spill, memory_budget=1 << 20,
                                    max_sets_per_shard=10)
    finally:
        faultpoints.disarm()
    assert not any(spill.glob(f"{STAGING_PREFIX}*")), "the staged shard is dropped"
    assert not (spill / "manifest.json").exists()
    fd = os.open(spill / "LOCK", os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)  # raises if still held
    finally:
        os.close(fd)
