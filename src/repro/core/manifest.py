"""Spill metadata on the standard library: names, manifest, tombstones, delete.

Everything a spill mutation reads or writes *besides* the shard arrays lives
here, with no NumPy and no ``dataclasses``, so that ``repro delete`` — which
appends physical ids to the tombstone list and commits a manifest, and
builds or counts nothing — starts as a plain interpreter:

* the spill's file names and versions (:data:`MANIFEST_NAME`,
  :data:`TOMBSTONES_NAME`, :data:`SUPPORTED_SPILL_VERSIONS`, ...);
* :func:`read_manifest` — the one manifest parser, negotiating versions 1,
  2 and 3 into one :class:`SpillManifest`, the record every writer holds;
* :meth:`SpillManifest.next_document` — the one builder of the next
  version-3 document, for finalize, append, delete and compact alike;
* :func:`read_tombstones` / :func:`write_tombstones` — the tombstone codec:
  sorted physical ids as a little-endian ``int64`` ``.npy`` (format 1.0),
  byte-identical to ``np.save``;
* :func:`delete_sets` — the delete transaction, which
  ``repro delete`` and :meth:`~repro.core.sharded.ShardedCollection.delete`
  both run.

:mod:`repro.core.sharded` attaches shard arrays on top of
:func:`read_manifest`; :mod:`repro.core.integrity` publishes what this
module builds.
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from pathlib import Path

from repro.core.errors import SpillFormatError

# ``hashlib`` loads OpenSSL's ``_hashlib`` on import (~3.5 ms of a cold
# ``repro delete``) only to hand out this same built-in blake2b.
try:
    from _blake2 import blake2b
except ImportError:  # pragma: no cover - CPython builds without _blake2
    from hashlib import blake2b

__all__ = [
    "MANIFEST_NAME",
    "LOCK_NAME",
    "STAGING_PREFIX",
    "SHARD_ARRAY_NAMES",
    "DIGEST_ALGORITHM",
    "FAMILY_NAME",
    "TOMBSTONES_NAME",
    "SPILL_VERSION",
    "SUPPORTED_SPILL_VERSIONS",
    "file_digest",
    "referenced_names",
    "read_tombstones",
    "write_tombstones",
    "npy_header",
    "require_manifest",
    "SpillManifest",
    "read_manifest",
    "delete_sets",
]

MANIFEST_NAME = "manifest.json"
#: The spill's writer lock file (``fcntl.flock``, the LevelDB convention).
LOCK_NAME = "LOCK"
#: Prefix of per-mutation staging directories: ``.staging-<pid>-<token>``.
STAGING_PREFIX = ".staging-"
#: The five arrays every shard directory holds, in manifest order.
SHARD_ARRAY_NAMES = ("words.npy", "offsets.npy", "widths.npy", "order.npy", "failed.npy")
#: Digest recorded per file in manifest v3 (hex; 16-byte blake2b).
DIGEST_ALGORITHM = "blake2b-128"
#: Serialised hash family (``.npz``), written next to the manifest so a
#: serving process can answer membership / decode queries without the build
#: process's in-memory family.  Optional for pure pair counting.  Version-3
#: mutations that replace the family write generational names
#: (``family_{gen:04d}.npz``) recorded in the manifest's ``family`` entry;
#: this canonical name is the fresh-build default and the v1/v2 location.
FAMILY_NAME = "family.npz"
#: Sorted physical set ids deleted from the collection (``int64``); absent
#: or empty means no deletes.  Consulted by every read path before results
#: surface, and purged physically by compaction.  Version-3 deletes write
#: generational names (``tombstones_{gen:04d}.npy``) recorded in the
#: manifest's ``tombstones`` entry — a live tombstone file is never
#: overwritten in place; this canonical name is the v1/v2 location.
TOMBSTONES_NAME = "tombstones.npy"
#: The version every mutation writes.  Version 3 adds the durability
#: metadata: per-file content digests (``checksums`` / per-shard ``files`` /
#: ``tombstones`` / ``family`` manifest entries) and the atomic-commit
#: discipline of :mod:`repro.core.integrity`.
SPILL_VERSION = 3
#: Current write version plus every older version readers still accept.
SUPPORTED_SPILL_VERSIONS = (1, 2, 3)
#: ``payload_bits`` of a manifest that records none
#: (``BatmapConfig().payload_bits``, pinned by ``tests/test_manifest.py``).
DEFAULT_PAYLOAD_BITS = 7
#: :meth:`SpillManifest.next_document` default: carry the record's entry.
_CARRIED = object()


def file_digest(path) -> str:
    """Hex content digest (:data:`DIGEST_ALGORITHM`) of one file, chunked."""
    digest = blake2b(digest_size=16)
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def referenced_names(manifest: dict) -> set:
    """Every top-level spill entry a committed manifest document owns."""
    referenced = {MANIFEST_NAME, "item_map.npy"}
    for entry in manifest.get("shards") or []:
        if isinstance(entry, dict) and isinstance(entry.get("dir"), str):
            referenced.add(entry["dir"])
    tombstones = manifest.get("tombstones")
    referenced.add(tombstones["file"] if isinstance(tombstones, dict)
                   else TOMBSTONES_NAME)
    family = manifest.get("family")
    referenced.add(family["file"] if isinstance(family, dict) else FAMILY_NAME)
    return referenced


# --------------------------------------------------------------------------- #
# Tombstone codec: a 1-D little-endian int64 ``.npy``, format version 1.0
# --------------------------------------------------------------------------- #
_NPY_MAGIC = b"\x93NUMPY"
#: ``np.save`` pads the shape so a header can be rewritten in place for up
#: to this many digits, then aligns the data to 64 bytes.
_NPY_GROWTH_DIGITS = 21
_NPY_ALIGN = 64
_NPY_HEADER_RE = re.compile(
    r"\{\s*'descr':\s*'(?P<descr>[^']*)',\s*"
    r"'fortran_order':\s*(?P<fortran>True|False),\s*"
    r"'shape':\s*\((?P<shape>[^)]*)\),?\s*\}\s*\Z")


def npy_header(descr: str, shape: tuple) -> bytes:
    """The ``np.save`` header (format 1.0) of a C-ordered array."""
    text = "{'descr': %r, 'fortran_order': False, 'shape': %r, }" % (descr, shape)
    if shape:
        text += " " * (_NPY_GROWTH_DIGITS - len(repr(shape[0])))
    length = len(text) + 1  # the closing newline
    pad = _NPY_ALIGN - (len(_NPY_MAGIC) + 4 + length) % _NPY_ALIGN
    return (_NPY_MAGIC + b"\x01\x00" + (length + pad).to_bytes(2, "little")
            + text.encode("latin1") + b" " * pad + b"\n")


def write_tombstones(path, ids) -> None:
    """Write ``ids`` (a C-contiguous native ``int64`` buffer) as ``np.save`` does.

    ``ids`` is an ``array('q')`` or a NumPy ``int64`` array; the bytes are
    exactly those of ``np.save(path, ids)`` on a little-endian host.
    """
    view = memoryview(ids)
    if view.itemsize != 8 or view.format[-1:] not in ("q", "l") or view.ndim != 1:
        raise TypeError(f"tombstones must be a 1-D int64 buffer, got {view.format!r}")
    data = view.cast("B")
    if sys.byteorder == "big":  # pragma: no cover - the format is little-endian
        swapped = array("q")
        swapped.frombytes(data)
        swapped.byteswap()
        data = swapped
    with open(path, "wb") as handle:
        handle.write(npy_header("<i8", (len(view),)))
        handle.write(data)


def read_tombstones(path) -> array:
    """Read a tombstone file into an ``array('q')``.

    Accepts exactly what :func:`write_tombstones` (or ``np.save`` of a 1-D
    ``int64`` array) writes; a malformed header, another dtype, Fortran
    order, a truncated body or trailing bytes raise
    :class:`~repro.core.errors.SpillFormatError`.  A missing file raises
    ``FileNotFoundError``.
    """
    with open(path, "rb") as handle:
        prefix = handle.read(len(_NPY_MAGIC) + 2)
        if len(prefix) < len(_NPY_MAGIC) + 2 or not prefix.startswith(_NPY_MAGIC):
            raise SpillFormatError(f"{path} is unreadable: not a .npy file")
        width = {1: 2, 2: 4, 3: 4}.get(prefix[-2])
        if width is None:
            raise SpillFormatError(
                f"{path} is unreadable: unknown .npy format version "
                f"{prefix[-2]}.{prefix[-1]}")
        length = int.from_bytes(handle.read(width), "little")
        header = handle.read(length)
        match = _NPY_HEADER_RE.match(header.decode("latin1"))
        if len(header) != length or match is None:
            raise SpillFormatError(f"{path} is unreadable: malformed .npy header")
        if match["descr"] != "<i8":
            raise SpillFormatError(
                f"{path} is unreadable: dtype {match['descr']!r}, expected '<i8'")
        if match["fortran"] == "True":
            raise SpillFormatError(f"{path} is unreadable: Fortran-ordered array")
        shape = match["shape"].strip().rstrip(",").strip()
        if not shape.isdigit():
            raise SpillFormatError(
                f"{path} is unreadable: shape ({match['shape']}) is not 1-D")
        n = int(shape)
        body = handle.read(8 * n + 1)
    if len(body) != 8 * n:
        raise SpillFormatError(
            f"{path} is unreadable: {len(body)} data bytes for {n} ids "
            f"({'truncated' if len(body) < 8 * n else 'trailing bytes'})")
    ids = array("q")
    ids.frombytes(body)
    if sys.byteorder == "big":  # pragma: no cover - the format is little-endian
        ids.byteswap()
    return ids


# --------------------------------------------------------------------------- #
# Manifest
# --------------------------------------------------------------------------- #
def require_manifest(spill_dir) -> Path:
    """``spill_dir`` as a ``Path``; raise if it holds no committed manifest.

    Mutations call this before they open the writer lock, so pointing one
    at a directory without a spill leaves that directory as it was.
    """
    spill_dir = Path(spill_dir)
    if not (spill_dir / MANIFEST_NAME).is_file():
        raise SpillFormatError(f"no {MANIFEST_NAME} in {spill_dir}")
    return spill_dir


class SpillManifest:
    """A committed manifest, negotiated into the fields of version 3.

    The one metadata record of an attached spill: a
    :class:`~repro.core.sharded.ShardedCollection` holds the record it
    attached (or the one its last commit published) and reads its
    generation, universe, ``r0``, family kind and file entries from it, and
    every writer builds its successor with :meth:`next_document`.

    Version 3 records generational tombstone / family file entries with
    content digests; versions 2 and 1 imply the canonical file names (when
    present) and no digests, and version 1 implies generation 0 and no
    tombstones.  ``shards`` holds one version-3 shard entry per shard
    (``dir``, ``lo``, ``hi``, ``nbytes``, ``build_backend``, ``kind``,
    ``files``), with ``files`` ``None`` until a v1/v2 shard's digests are
    computed by the first version-3 commit.  Construction validates the
    shard table's coverage and ``n_sets``; it reads no other file.
    """

    def __init__(self, spill_dir: Path, document: dict) -> None:
        self.spill_dir = spill_dir
        self.path = spill_dir / MANIFEST_NAME
        version = document.get("version")
        if version not in SUPPORTED_SPILL_VERSIONS:
            raise SpillFormatError(
                f"unsupported spill version {version!r} in {self.path} "
                f"(supported: {', '.join(map(str, SUPPORTED_SPILL_VERSIONS))})")
        self.version = version
        self.document = document
        try:
            self.shards = self._shard_table(document["shards"])
            self.universe_size = int(document["universe_size"])
            self.r0 = int(document["r0"])
            self.payload_bits = int(document.get("payload_bits", DEFAULT_PAYLOAD_BITS))
            self.generation = int(document.get("generation", 0))
            self.family_kind = document.get("family_kind")
            if version == 3:
                tombstones = document.get("tombstones")
                self.tombstones_file = tombstones["file"] if tombstones else None
                self.tombstones_digest = tombstones["digest"] if tombstones else None
                self.n_tombstones = int(tombstones["n"]) if tombstones else 0
                family = document.get("family")
                self.family_file = family["file"] if family else None
                self.family_digest = family["digest"] if family else None
            else:
                self.tombstones_file = (TOMBSTONES_NAME
                                        if (spill_dir / TOMBSTONES_NAME).exists() else None)
                self.tombstones_digest = None
                declared = document.get("n_tombstones")
                self.n_tombstones = int(declared) if declared is not None else None
                self.family_file = (FAMILY_NAME if (spill_dir / FAMILY_NAME).exists()
                                    else None)
                self.family_digest = None
        except (KeyError, TypeError, ValueError) as exc:
            raise SpillFormatError(f"{self.path} is corrupt: {exc!r}") from exc

    @classmethod
    def empty(cls, spill_dir) -> "SpillManifest":
        """The record of a directory with no spill: what a fresh build succeeds."""
        return cls(Path(spill_dir), {"version": SPILL_VERSION, "generation": -1,
                                     "universe_size": 0, "r0": 0, "shards": []})

    def _shard_table(self, table) -> list:
        entries = []
        covered = 0
        for k, entry in enumerate(table):
            lo, hi = int(entry["lo"]), int(entry["hi"])
            if lo != covered or hi < lo:
                raise SpillFormatError(
                    f"{self.path}: shard {k} covers [{lo}, {hi}) but the table "
                    f"reaches {covered} — attaching would misnumber sets; run "
                    "'repro verify'")
            covered = hi
            entries.append({
                "dir": (self.spill_dir / entry["dir"]).name,
                "lo": lo,
                "hi": hi,
                "nbytes": int(entry["nbytes"]),
                "build_backend": entry["build_backend"],
                "kind": entry.get("kind", "base"),
                "files": entry.get("files"),
            })
        declared = self.document.get("n_sets")
        if declared is not None and int(declared) != covered:
            raise SpillFormatError(
                f"{self.path}: manifest records {declared} sets but the shard "
                f"table covers {covered} — the artifact is damaged; run "
                "'repro verify'")
        return entries

    @property
    def n_sets(self) -> int:
        """Physical sets the shard table covers, tombstoned ones included."""
        return self.shards[-1]["hi"] if self.shards else 0

    def read_tombstones(self) -> array:
        """The committed tombstones, checked for presence and declared count."""
        if self.tombstones_file is None:
            ids = array("q")
        else:
            path = self.spill_dir / self.tombstones_file
            if not path.exists():
                raise SpillFormatError(
                    f"{self.spill_dir}: manifest references tombstone file "
                    f"{self.tombstones_file} which is missing — serving this "
                    "artifact would resurrect deleted sets; run "
                    "'repro verify' / rebuild")
            try:
                ids = read_tombstones(path)
            except OSError as exc:
                raise SpillFormatError(
                    f"{path} is unreadable ({type(exc).__name__}: {exc})") from exc
        if self.n_tombstones is not None and self.n_tombstones != len(ids):
            raise SpillFormatError(
                f"{self.spill_dir}: manifest records {self.n_tombstones} "
                f"tombstone(s) but {len(ids)} are on disk — the artifact is "
                "damaged; run 'repro verify'")
        return ids

    def family_entry(self) -> dict | None:
        """The carried-forward ``family`` entry (digest computed for v1/v2)."""
        if self.family_file is None:
            return None
        if self.family_digest is None:
            self.family_digest = file_digest(self.spill_dir / self.family_file)
        return {"file": self.family_file, "digest": self.family_digest}

    def _tombstones_entry(self) -> dict | None:
        """The carried-forward ``tombstones`` entry (digest computed for v1/v2)."""
        if self.tombstones_file is None:
            return None
        if self.tombstones_digest is None:
            self.tombstones_digest = file_digest(self.spill_dir / self.tombstones_file)
        n = self.n_tombstones
        return {"file": self.tombstones_file, "digest": self.tombstones_digest,
                "n": len(self.read_tombstones()) if n is None else n}

    def next_document(self, shards=None, *, generation=None, universe_size=None,
                      r0=None, payload_bits=None, family_kind=None,
                      tombstones=_CARRIED, family=_CARRIED) -> dict:
        """The version-:data:`SPILL_VERSION` document that succeeds this record.

        The single schema of finalize / append / delete / compact: each
        builds its manifest here and publishes it through
        :class:`~repro.core.integrity.AtomicCommit` (the ``os.replace`` of
        this document *is* the commit point).  Whatever is not passed is
        carried forward — the generation advances by one, and ``shards``
        defaults to this record's table.  ``tombstones`` / ``family`` take
        a new version-3 file entry (``{"file", "digest"[, "n"]}``) or
        ``None``.  A carried shard, tombstone or family file that a v1/v2
        record holds without a digest is hashed here, once: a shard entry
        whose ``files`` is ``None`` takes this record's digests for its
        directory, and the digests computed stay on this record.
        """
        shards = self.shards if shards is None else shards
        mine = {entry["dir"]: entry for entry in self.shards}
        for entry in shards:
            if entry["files"] is None:
                own = mine[entry["dir"]]
                if own["files"] is None:
                    directory = self.spill_dir / own["dir"]
                    own["files"] = {name: file_digest(directory / name)
                                    for name in SHARD_ARRAY_NAMES}
                entry["files"] = own["files"]
        if tombstones is _CARRIED:
            tombstones = self._tombstones_entry()
        if family is _CARRIED:
            family = self.family_entry()
        return {
            "version": SPILL_VERSION,
            "generation": self.generation + 1 if generation is None else int(generation),
            "universe_size": int(self.universe_size if universe_size is None
                                 else universe_size),
            "n_sets": int(shards[-1]["hi"]) if shards else 0,
            "n_tombstones": int(tombstones["n"]) if tombstones else 0,
            "r0": int(self.r0 if r0 is None else r0),
            "payload_bits": int(self.payload_bits if payload_bits is None
                                else payload_bits),
            "family_kind": family_kind or self.resolved_family_kind(),
            "checksums": DIGEST_ALGORITHM,
            "tombstones": tombstones,
            "family": family,
            "shards": list(shards),
        }

    def resolved_family_kind(self) -> str:
        """``"lazy"`` or ``"eager"``: the manifest's record, else the family file's.

        Version-1 manifests record no kind; an extensible family's archive is
        the one that stores a ``capacity`` member, so the kind is read from
        the archive's member list without loading the family.
        """
        if self.family_kind in ("eager", "lazy"):
            return self.family_kind
        if self.family_file is None:
            return "eager"
        import zipfile

        path = self.spill_dir / self.family_file
        try:
            with zipfile.ZipFile(path) as archive:
                members = archive.namelist()
        except (OSError, zipfile.BadZipFile) as exc:
            raise SpillFormatError(
                f"{path} is unreadable ({type(exc).__name__}: {exc})") from exc
        self.family_kind = "lazy" if "capacity.npy" in members else "eager"
        return self.family_kind


def read_manifest(spill_dir) -> SpillManifest:
    """Read and negotiate ``spill_dir``'s committed manifest.

    Raises :class:`~repro.core.errors.SpillFormatError` when there is no
    manifest, it is not a JSON object, its version is unsupported, or a
    required field is missing or malformed.
    """
    spill_dir = Path(spill_dir)
    path = spill_dir / MANIFEST_NAME
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise SpillFormatError(f"no {MANIFEST_NAME} in {spill_dir}") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpillFormatError(f"{path} is corrupt: not valid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise SpillFormatError(f"{path} is corrupt: not an object")
    return SpillManifest(spill_dir, document)


# --------------------------------------------------------------------------- #
# Delete
# --------------------------------------------------------------------------- #
def _tombstoned_with(tombstones: array, live_ids: list) -> array:
    """``tombstones`` merged with the physical ids of ``live_ids`` (ascending).

    Live id ``L`` is physical id ``L + i``, where ``i`` counts the tombstones
    ``t_i`` below it — exactly those with ``t_i - i <= L``, a condition
    monotone in ``i``, so one binary search per id finds it.  The untouched
    runs between the new ids are copied as array slices: linear in the
    tombstones, with Python work only per deleted id.
    """
    merged = array("q")
    start = 0
    for live in live_ids:
        lo, hi = start, len(tombstones)
        while lo < hi:
            mid = (lo + hi) // 2
            if tombstones[mid] - mid <= live:
                lo = mid + 1
            else:
                hi = mid
        merged.extend(tombstones[start:lo])
        merged.append(live + lo)
        start = lo
    merged.extend(tombstones[start:])
    return merged


def delete_sets(spill_dir, ids, generation: int | None = None) -> tuple:
    """Tombstone live sets of a spill in one atomic commit.

    ``ids`` are live indices (the dense index space every query sees).
    Deletes are metadata-only: the rows stay on disk until compaction purges
    them, but every read path consults the tombstones first.  The new
    tombstone file is staged under a generational name and published with
    the manifest in one :class:`~repro.core.integrity.AtomicCommit`; the
    live tombstone file is never overwritten, so a crash at any point leaves
    the pre- or the post-delete generation intact.  A v1/v2 spill is
    committed at version 3 (its shard and family digests computed once).

    Runs under the writer lock.  ``generation`` is the generation the
    caller attached and numbered ``ids`` against: if another writer has
    committed since, :class:`~repro.core.errors.SpillConflictError` is
    raised.  ``None`` (``repro delete``) numbers them against whatever is
    committed once the lock is held.  Returns ``(manifest, tombstones)``:
    the committed document and the new sorted tombstones as ``array('q')``.
    """
    from repro.core.integrity import (
        AtomicCommit,
        require_generation,
        sweep_stale_staging,
        writer_lock,
    )
    from repro.utils.faultpoints import faultpoint

    ids = sorted({int(i) for i in ids})
    if not ids:
        raise ValueError("delete requires at least one set id")
    spill_dir = require_manifest(spill_dir)
    with writer_lock(spill_dir, generation):
        sweep_stale_staging(spill_dir)
        spill = read_manifest(spill_dir)
        tombstones = spill.read_tombstones()
        n_live = spill.n_sets - len(tombstones)
        if ids[0] < 0 or ids[-1] >= n_live:
            raise ValueError(f"set ids must be in [0, {n_live}), got "
                             f"[{ids[0]}, {ids[-1]}]")
        merged = _tombstoned_with(tombstones, ids)
        next_generation = spill.generation + 1
        commit = AtomicCommit(spill_dir, "delete")
        try:
            faultpoint("delete.tombstones")
            name = f"tombstones_{next_generation:04d}.npy"
            staged = commit.stage(name)
            write_tombstones(staged, merged)
            if spill.tombstones_file is not None:
                commit.add_garbage(spill_dir / spill.tombstones_file)
            manifest = spill.next_document(tombstones={
                "file": name, "digest": file_digest(staged), "n": len(merged)})
            # The lock is re-entrant within a thread: publish only over the
            # generation this transaction read.
            require_generation(spill_dir, spill.generation)
            commit.commit(manifest)
        except OSError as exc:
            commit.abort()
            raise commit.io_error(exc) from exc
        except BaseException:
            commit.abort()
            raise
    return manifest, merged
