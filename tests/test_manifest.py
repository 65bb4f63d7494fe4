"""The NumPy-free spill metadata layer: tombstone codec, manifest, delete.

``repro delete`` runs on :mod:`repro.core.manifest` alone, so the codec must
write exactly what ``np.save`` wrote before it (and read it back), and
:func:`~repro.core.manifest.delete_sets` must commit the same manifest and
tombstone bytes the attach-then-delete path committed: on the frozen v1/v2
fixtures against files recorded from that path, and on a fresh v3 spill
against ``sorted_unique(concat(old, live_ids[ids]))``.
"""

from __future__ import annotations

import io
import json
import shutil
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.core import manifest
from repro.core.config import DEFAULT_CONFIG
from repro.core.errors import SpillFormatError
from repro.core.manifest import (
    npy_header,
    _tombstoned_with,
    delete_sets,
    read_manifest,
    read_tombstones,
    write_tombstones,
)
from repro.core.sharded import ShardedCollection
from repro.utils.arrays import sorted_unique

FIXTURES = Path(__file__).parent / "fixtures"


def _saved(ids: np.ndarray) -> bytes:
    out = io.BytesIO()
    np.save(out, ids)
    return out.getvalue()


# --------------------------------------------------------------------------- #
# Codec
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("n", [0, 1, 2, 9, 10, 99, 100, 1000, 12345])
def test_codec_writes_what_np_save_writes(tmp_path, n):
    ids = np.random.default_rng(n).integers(-2**62, 2**62, n, dtype=np.int64)
    write_tombstones(tmp_path / "a.npy", ids)
    assert (tmp_path / "a.npy").read_bytes() == _saved(ids)
    write_tombstones(tmp_path / "b.npy", array("q", ids.tolist()))
    assert (tmp_path / "b.npy").read_bytes() == _saved(ids)


@pytest.mark.parametrize("digits", range(1, 24))
def test_header_matches_numpy_at_every_digit_count(digits):
    """The shape's digit count moves the growth padding and the 64-byte pad."""
    for n in {10 ** (digits - 1), 10 ** digits - 1}:
        out = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            out, {"descr": "<i8", "fortran_order": False, "shape": (n,)})
        assert npy_header("<i8", (n,)) == out.getvalue()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=300))
def test_codec_reads_what_np_save_wrote(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("codec") / "t.npy"
    np.save(path, np.array(values, dtype=np.int64))
    assert read_tombstones(path).tolist() == values


def _corrupt(tmp_path, ids, mutate) -> Path:
    path = tmp_path / "t.npy"
    np.save(path, ids)
    path.write_bytes(mutate(path.read_bytes()))
    return path


@pytest.mark.parametrize("case, array_, mutate", [
    ("not npy", np.arange(4), lambda b: b"\x00" + b[1:]),
    ("short", np.arange(4), lambda b: b[:5]),
    ("version", np.arange(4), lambda b: b[:6] + b"\x07" + b[7:]),
    ("header", np.arange(4), lambda b: b.replace(b"'shape'", b"'shope'")),
    ("header length", np.arange(4), lambda b: b[:8] + b"\xff\x00" + b[10:]),
    ("int32", np.arange(4, dtype=np.int32), lambda b: b),
    ("float64", np.arange(4, dtype=np.float64), lambda b: b),
    ("uint64", np.arange(4, dtype=np.uint64), lambda b: b),
    ("big-endian", np.arange(4, dtype=">i8"), lambda b: b),
    ("2-D", np.arange(4).reshape(2, 2), lambda b: b),
    ("0-D", np.int64(4), lambda b: b),
    ("fortran", np.arange(4), lambda b: b.replace(b"False", b"True ")),
    ("truncated", np.arange(4), lambda b: b[:-1]),
    ("trailing", np.arange(4), lambda b: b + b"\x00"),
])
def test_codec_rejects_malformed_files(tmp_path, case, array_, mutate):
    path = _corrupt(tmp_path, array_, mutate)
    with pytest.raises(SpillFormatError, match="unreadable"):
        read_tombstones(path)


def test_codec_refuses_to_write_other_dtypes(tmp_path):
    for bad in (np.arange(3, dtype=np.float64), np.arange(3, dtype=np.int32),
                np.arange(4).reshape(2, 2)):
        with pytest.raises(TypeError):
            write_tombstones(tmp_path / "x.npy", bad)


def test_default_payload_bits_is_the_config_default():
    assert manifest.DEFAULT_PAYLOAD_BITS == DEFAULT_CONFIG.payload_bits


# --------------------------------------------------------------------------- #
# Merge: live ids -> physical ids -> sorted tombstones
# --------------------------------------------------------------------------- #
@st.composite
def _deletes(draw):
    n_physical = draw(st.integers(1, 400))
    dead = draw(st.sets(st.integers(0, n_physical - 1), max_size=n_physical - 1))
    n_live = n_physical - len(dead)
    ids = draw(st.sets(st.integers(0, n_live - 1), min_size=1))
    return n_physical, sorted(dead), sorted(ids)


@settings(max_examples=300, deadline=None)
@given(_deletes())
def test_merge_matches_sorted_unique_of_live_ids(case):
    n_physical, dead, ids = case
    old = np.array(dead, dtype=np.int64)
    live = np.setdiff1d(np.arange(n_physical), old)
    expected = sorted_unique(np.concatenate([old, live[ids]]))
    merged = _tombstoned_with(array("q", dead), ids)
    assert merged.tolist() == expected.tolist()


class _CountingTombstones:
    """An ``array('q')`` that counts element reads and slices."""

    def __init__(self, values):
        self.values = array("q", values)
        self.reads = 0

    def __len__(self):
        return len(self.values)

    def __getitem__(self, index):
        self.reads += 1
        return self.values[index]


def test_merge_touches_only_log_many_tombstones():
    n = 100_000
    tombstones = _CountingTombstones(range(0, 2 * n, 2))  # every even id dead
    merged = _tombstoned_with(tombstones, [0, n // 2, n - 1])
    assert len(merged) == n + 3
    assert merged[:3].tolist() == [0, 1, 2]
    # three binary searches of ~17 probes plus four slices, not 10^5 reads
    assert tombstones.reads < 3 * 20 + 4


# --------------------------------------------------------------------------- #
# Delete: bytes equal to the attach-then-delete path
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("version, tombstones", [("v1", "tombstones_0001.npy"),
                                                 ("v2", "tombstones_0003.npy")])
def test_delete_upgrades_frozen_fixtures_to_the_recorded_bytes(tmp_path, version,
                                                               tombstones):
    """``spill_vN_deleted`` holds what ``--sets 7 3 1`` committed before this layer."""
    spill = tmp_path / "spill"
    shutil.copytree(FIXTURES / f"spill_{version}", spill)
    committed, _ = delete_sets(spill, [7, 3, 1])
    recorded = FIXTURES / f"spill_{version}_deleted"
    assert (spill / "manifest.json").read_bytes() == (recorded / "manifest.json").read_bytes()
    assert (spill / tombstones).read_bytes() == (recorded / tombstones).read_bytes()
    assert committed == json.loads((recorded / "manifest.json").read_text())


def _v3_spill(tmp_path) -> Path:
    rng = np.random.default_rng(11)
    sets = [np.sort(rng.choice(200, size=int(rng.integers(1, 30)), replace=False))
            for _ in range(40)]
    ShardedCollection.build(sets, 200, tmp_path / "spill", memory_budget=1 << 20,
                            rng=3, family_kind="lazy", max_sets_per_shard=15)
    return tmp_path / "spill"


def test_delete_on_v3_changes_only_the_tombstone_fields(tmp_path):
    spill = _v3_spill(tmp_path)
    ShardedCollection.from_spill(spill).delete([4, 9])
    before = json.loads((spill / "manifest.json").read_text())
    old = np.load(spill / before["tombstones"]["file"])
    live = np.setdiff1d(np.arange(before["n_sets"]), old)
    committed, tombstones = delete_sets(spill, [30, 0, 12, 30])
    expected = sorted_unique(np.concatenate([old, live[[0, 12, 30]]]))
    name = f"tombstones_{before['generation'] + 1:04d}.npy"
    assert (spill / name).read_bytes() == _saved(expected)
    assert tombstones.tolist() == expected.tolist()
    assert not (spill / before["tombstones"]["file"]).exists()
    on_disk = json.loads((spill / "manifest.json").read_text())
    assert on_disk == committed
    changed = {key for key in before if before[key] != on_disk[key]}
    assert changed == {"generation", "n_tombstones", "tombstones"}
    assert on_disk["tombstones"]["file"] == name
    assert on_disk["tombstones"]["n"] == on_disk["n_tombstones"] == expected.size
    # the library attachment sees the same state as a fresh attach
    attached = ShardedCollection.from_spill(spill)
    np.testing.assert_array_equal(attached.tombstones, expected)


def test_delete_checks_what_it_reads(tmp_path):
    spill = _v3_spill(tmp_path)
    ShardedCollection.from_spill(spill).delete([1])
    with pytest.raises(ValueError, match=r"set ids must be in \[0, 39\)"):
        delete_sets(spill, [39])
    with pytest.raises(ValueError, match="at least one"):
        delete_sets(spill, [])
    document = json.loads((spill / "manifest.json").read_text())
    document["n_sets"] += 1
    (spill / "manifest.json").write_text(json.dumps(document))
    with pytest.raises(SpillFormatError, match="shard table covers"):
        delete_sets(spill, [0])
    document["n_sets"] -= 1
    document["tombstones"]["n"] = 2
    (spill / "manifest.json").write_text(json.dumps(document))
    with pytest.raises(SpillFormatError, match="tombstone"):
        delete_sets(spill, [0])
    document["tombstones"]["n"] = 1
    (spill / "manifest.json").write_text(json.dumps(document))
    (spill / document["tombstones"]["file"]).unlink()
    with pytest.raises(SpillFormatError, match="resurrect"):
        delete_sets(spill, [0])


def test_read_manifest_negotiates_versions():
    v1 = read_manifest(FIXTURES / "spill_v1")
    assert (v1.version, v1.generation, v1.n_sets) == (1, 0, 12)
    assert v1.tombstones_file is None and v1.family_file == "family.npz"
    assert v1.resolved_family_kind() == "eager"  # no capacity member
    v2 = read_manifest(FIXTURES / "spill_v2")
    assert (v2.version, v2.generation, v2.n_tombstones) == (2, 2, 2)
    assert v2.tombstones_file == "tombstones.npy"
    assert v2.resolved_family_kind() == "lazy"
    assert len(v2.read_tombstones()) == 2


# --------------------------------------------------------------------------- #
# Mutations on a directory without a spill leave it untouched
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("argv", [["delete", "--sets", "1"],
                                  ["ingest", "--append"],
                                  ["compact"]])
def test_mutation_without_a_manifest_leaves_no_lock(tmp_path, argv):
    target = tmp_path / "not-a-spill"
    target.mkdir()
    (target / "notes.txt").write_text("unrelated\n")
    sets = tmp_path / "extra.sets"
    sets.write_text("1 2 3\n")
    command, *flags = argv
    full = [command, str(target), *([str(sets)] if command == "ingest" else []), *flags]
    out = io.StringIO()
    assert cli.main(full, out=out) == 2
    assert out.getvalue().strip() == f"error: no manifest.json in {target}"
    assert sorted(p.name for p in target.iterdir()) == ["notes.txt"]
