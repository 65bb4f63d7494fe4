"""Crash-safe artifact lifecycle: atomic commits, checksums, verify/repair.

Every spill mutation (finalize, append, delete, compact) used to write its
files straight into the live directory, so a crash mid-mutation could leave
an artifact that fails to attach — or attaches and serves silently wrong
counts.  This module gives the lifecycle LSM-style durability discipline:

* :class:`AtomicCommit` — the write-new-then-rename commit protocol.  A
  mutation stages every new file in a private ``.staging-<pid>-<token>/``
  directory, and ``commit()`` publishes the generation: fsync the staged
  tree, move each staged path into place under its final (always *fresh*,
  never live) name, then ``os.replace`` the manifest — the single atomic
  commit point.  A crash anywhere before the manifest replace leaves the
  previous generation fully intact (plus sweepable garbage); a crash
  anywhere after it leaves the new generation fully intact (plus sweepable
  garbage).  No file referenced by the previous manifest is ever modified
  or deleted before the commit point.

* **Checksums** — manifest version 3 records a content digest
  (:data:`DIGEST_ALGORITHM`) for every shard array, the tombstone file and
  the hash family.  Attach stays mmap-cheap (digests are *not* verified on
  the read path); :func:`verify_spill` checks them on demand.

* :func:`verify_spill` / :func:`repair_spill` — the ``repro verify`` /
  ``repro repair`` backends.  Verify cross-checks the manifest against the
  on-disk files (existence, loadability, structural invariants, digests)
  and reports damage as errors and sweepable leftovers as warnings; repair
  rolls the directory back to the last committed generation by sweeping
  staging leftovers and orphaned files, which is always safe because the
  commit protocol never lets garbage share a name with live state.

:mod:`repro.core.sharded` and :mod:`repro.core.compaction` route every
mutation through :class:`AtomicCommit`; the fault-injection suite
(``tests/test_crash_recovery.py``) kills the protocol at every registered
:func:`~repro.utils.faultpoints.faultpoint` and proves the artifact
re-attaches at exactly the pre- or post-mutation generation.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import secrets
import shutil
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.errors import IntegrityError, SpillConflictError, SpillFormatError
from repro.utils.faultpoints import faultpoint

__all__ = [
    "MANIFEST_NAME",
    "LOCK_NAME",
    "STAGING_PREFIX",
    "SHARD_ARRAY_NAMES",
    "DIGEST_ALGORITHM",
    "file_digest",
    "AtomicCommit",
    "writer_lock",
    "sweep_stale_staging",
    "Finding",
    "IntegrityReport",
    "RepairResult",
    "verify_spill",
    "repair_spill",
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

#: Directory names the lifecycle owns — anything matching that the manifest
#: does not reference is sweepable garbage from a crashed mutation.
_ARTIFACT_DIR_RE = re.compile(r"^(shard|compact|rewrite)_")
_TOMBSTONES_RE = re.compile(r"^tombstones.*\.npy$")
_FAMILY_RE = re.compile(r"^family.*\.npz$")


def file_digest(path) -> str:
    """Hex content digest (:data:`DIGEST_ALGORITHM`) of one file, chunked."""
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    """Durably record a directory's entries (POSIX; no-op where unsupported)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover — platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover — e.g. fsync unsupported on dirs
        pass
    finally:
        os.close(fd)


def _fsync_tree(root: Path) -> None:
    for directory, _dirnames, filenames in os.walk(root):
        for name in filenames:
            _fsync_file(Path(directory) / name)
        _fsync_dir(Path(directory))


class AtomicCommit:
    """One staged, atomically-published spill mutation.

    Usage::

        commit = AtomicCommit(spill_dir)
        shard_dir = commit.stage("shard_0003")   # write arrays under it
        tomb = commit.stage("tombstones_0004.npy")
        commit.add_garbage(spill_dir / "tombstones_0003.npy")
        commit.commit(manifest_dict)             # or commit.abort()

    ``stage(name)`` returns a path inside the private staging directory;
    the caller creates a file or a whole directory there.  ``commit()``
    fsyncs the staged tree, renames every staged path to
    ``spill_dir/name`` (fresh names only — a pre-existing target can only
    be garbage from a crashed earlier attempt and is removed first), then
    atomically replaces ``manifest.json``.  Only after the manifest
    replace — the commit point — are the registered garbage paths (files
    and directories the *previous* generation referenced) swept,
    best-effort.  ``abort()`` removes the staging directory and touches
    nothing else.
    """

    def __init__(self, spill_dir) -> None:
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.staging = self.spill_dir / (
            f"{STAGING_PREFIX}{os.getpid()}-{secrets.token_hex(4)}")
        self.staging.mkdir()
        self._staged: list[str] = []
        self._garbage: list[Path] = []
        self.committed = False

    def stage(self, name: str) -> Path:
        """Reserve ``name`` for this commit and return its staging path."""
        if "/" in name or name == MANIFEST_NAME or name.startswith(STAGING_PREFIX):
            raise ValueError(f"cannot stage reserved name {name!r}")
        if name in self._staged:
            raise ValueError(f"{name!r} is already staged")
        self._staged.append(name)
        return self.staging / name

    def taken(self, name: str) -> bool:
        """Whether ``name`` is in use (live in the spill dir or staged here)."""
        return name in self._staged or (self.spill_dir / name).exists()

    def add_garbage(self, path) -> None:
        """Register a path the *previous* generation owned for post-commit sweep."""
        self._garbage.append(Path(path))

    def commit(self, manifest: dict) -> None:
        """Publish the staged files plus ``manifest`` as the next generation."""
        if self.committed:
            raise RuntimeError("commit() called twice")
        manifest_tmp = self.staging / MANIFEST_NAME
        manifest_tmp.write_text(json.dumps(manifest, indent=1))
        faultpoint("commit.fsync")
        _fsync_tree(self.staging)
        for name in self._staged:
            faultpoint("commit.rename")
            target = self.spill_dir / name
            if target.is_dir():
                # Can only be leftover garbage from a crashed earlier
                # attempt: live names are never re-staged.
                shutil.rmtree(target)
            os.replace(self.staging / name, target)
        _fsync_dir(self.spill_dir)
        faultpoint("commit.manifest")
        os.replace(manifest_tmp, self.spill_dir / MANIFEST_NAME)
        _fsync_dir(self.spill_dir)
        self.committed = True
        faultpoint("commit.cleanup")
        for path in self._garbage:
            _remove_any(path)
        _remove_any(self.staging)

    def abort(self) -> None:
        """Drop the staged files; the live artifact is untouched."""
        _remove_any(self.staging)


#: per thread: lock file path -> [open descriptor, depth]
_held = threading.local()


@contextmanager
def writer_lock(spill_dir, generation: int | None = None):
    """Hold the spill's exclusive writer lock, ``<spill>/LOCK``, for the block.

    Append, delete, compact and repair run under it, so a second writer
    blocks until the first has committed.  The lock is re-entrant within a
    thread (the CLI holds it from attach to commit, the mutation takes it
    again); other threads open their own descriptor and wait.  With
    ``generation``, the committed manifest is re-read under the lock and
    :class:`~repro.core.errors.SpillConflictError` is raised if another
    writer has published since that generation was attached — committing
    on top of it would silently drop the other writer's update.
    """
    import fcntl

    path = os.path.realpath(Path(spill_dir) / LOCK_NAME)
    held = vars(_held).setdefault("locks", {})
    if path not in held:
        try:
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        except FileNotFoundError:
            raise SpillFormatError(f"no {MANIFEST_NAME} in {spill_dir}") from None
        fcntl.flock(fd, fcntl.LOCK_EX)
        held[path] = [fd, 0]
    held[path][1] += 1
    try:
        if generation is not None:
            _require_generation(Path(spill_dir), generation)
        yield
    finally:
        held[path][1] -= 1
        if held[path][1] == 0:
            os.close(held.pop(path)[0])  # releases the flock


def _require_generation(spill_dir: Path, generation: int) -> None:
    try:
        committed = json.loads((spill_dir / MANIFEST_NAME).read_text())
        committed = committed.get("generation", 0)  # version 1 implies 0
    except (OSError, ValueError, AttributeError):
        committed = None
    if committed != generation:
        raise SpillConflictError(
            f"{spill_dir}: another writer committed generation {committed} "
            f"after generation {generation} was attached; re-attach and retry")


def _remove_any(path: Path) -> None:
    try:
        if path.is_dir():
            shutil.rmtree(path, ignore_errors=True)
        else:
            path.unlink(missing_ok=True)
    except OSError:  # pragma: no cover — sweep is best-effort
        pass


def _owner_alive(staging: Path) -> bool:
    """Whether the process that owns a staging directory is still running."""
    pid_text = staging.name[len(STAGING_PREFIX):].split("-", 1)[0]
    return pid_text.isdigit() and _pid_alive(int(pid_text))


def sweep_stale_staging(spill_dir) -> list:
    """Remove staging directories whose owning process is gone.

    Called on every attach: a live mutation's staging (pid still running)
    is left alone, so an attach racing a healthy writer never destroys its
    work.  Returns the removed paths.
    """
    spill_dir = Path(spill_dir)
    removed = []
    try:
        children = list(spill_dir.iterdir())
    except OSError:
        return removed
    for child in children:
        if not (child.is_dir() and child.name.startswith(STAGING_PREFIX)):
            continue
        if _owner_alive(child):
            continue
        _remove_any(child)
        removed.append(child)
    return removed


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover — alive, other user
        return True
    except OSError:  # pragma: no cover
        return False
    return True


# --------------------------------------------------------------------------- #
# Verify / repair
# --------------------------------------------------------------------------- #
@dataclass
class Finding:
    """One verify observation: a damage error or a sweepable-garbage warning."""

    code: str
    message: str
    path: str | None = None

    def to_dict(self) -> dict:
        out = {"code": self.code, "message": self.message}
        if self.path is not None:
            out["path"] = self.path
        return out


@dataclass
class IntegrityReport:
    """Structured result of :func:`verify_spill` (``repro verify``)."""

    spill_dir: str
    version: int | None = None
    generation: int | None = None
    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    files_checked: int = 0
    bytes_hashed: int = 0

    @property
    def ok(self) -> bool:
        """True when no damage was found (warnings are allowed)."""
        return not self.errors

    def error(self, code: str, message: str, path=None) -> None:
        self.errors.append(Finding(code, message, str(path) if path else None))

    def warn(self, code: str, message: str, path=None) -> None:
        self.warnings.append(Finding(code, message, str(path) if path else None))

    def to_dict(self) -> dict:
        return {
            "spill_dir": self.spill_dir,
            "ok": self.ok,
            "version": self.version,
            "generation": self.generation,
            "files_checked": self.files_checked,
            "bytes_hashed": self.bytes_hashed,
            "errors": [f.to_dict() for f in self.errors],
            "warnings": [f.to_dict() for f in self.warnings],
        }

    def render(self) -> str:
        lines = [f"verify {self.spill_dir}: "
                 f"version {self.version}, generation {self.generation}, "
                 f"{self.files_checked} file(s) checked, "
                 f"{self.bytes_hashed} byte(s) hashed"]
        for finding in self.errors:
            where = f" [{finding.path}]" if finding.path else ""
            lines.append(f"  ERROR {finding.code}: {finding.message}{where}")
        for finding in self.warnings:
            where = f" [{finding.path}]" if finding.path else ""
            lines.append(f"  warning {finding.code}: {finding.message}{where}")
        lines.append("DAMAGED" if self.errors else "clean")
        return "\n".join(lines)


@dataclass
class RepairResult:
    """What :func:`repair_spill` did, plus the post-repair verify report."""

    actions: list
    report: IntegrityReport

    def to_dict(self) -> dict:
        return {"actions": self.actions, "report": self.report.to_dict()}


def _load_manifest(spill_dir: Path, report: IntegrityReport):
    manifest_path = spill_dir / MANIFEST_NAME
    if not manifest_path.is_file():
        report.error("manifest-missing", f"no {MANIFEST_NAME}", manifest_path)
        return None
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        report.error("manifest-corrupt", f"not valid JSON: {exc}", manifest_path)
        return None
    if not isinstance(manifest, dict):
        report.error("manifest-corrupt", "manifest is not a JSON object",
                     manifest_path)
        return None
    return manifest


def _check_digest(report: IntegrityReport, path: Path, expected: str,
                  code: str) -> bool:
    actual = file_digest(path)
    report.bytes_hashed += path.stat().st_size
    if actual != expected:
        report.error(code, f"content digest mismatch: recorded {expected}, "
                           f"found {actual}", path)
        return False
    return True


def _load_array(report: IntegrityReport, path: Path, code: str):
    try:
        array = np.load(path, mmap_mode="r", allow_pickle=False)
    except Exception as exc:  # noqa: BLE001 — any load failure is damage
        report.error(code, f"cannot load: {type(exc).__name__}: {exc}", path)
        return None
    report.files_checked += 1
    return array


def _verify_shard(spill_dir: Path, k: int, entry: dict,
                  report: IntegrityReport) -> None:
    directory = spill_dir / entry["dir"]
    if not directory.is_dir():
        report.error("shard-missing", f"shard {k} directory is missing", directory)
        return
    n_sets = int(entry["hi"]) - int(entry["lo"])
    digests = entry.get("files") or {}
    arrays = {}
    for name in SHARD_ARRAY_NAMES:
        path = directory / name
        if not path.is_file():
            report.error("shard-file-missing", f"shard {k} has no {name}", path)
            continue
        if name in digests and not _check_digest(
                report, path, digests[name], "checksum-mismatch"):
            continue
        array = _load_array(report, path, "shard-file-unreadable")
        if array is not None:
            arrays[name] = array
    if len(arrays) != len(SHARD_ARRAY_NAMES):
        return
    words, offsets = arrays["words.npy"], arrays["offsets.npy"]
    widths, order = arrays["widths.npy"], arrays["order.npy"]
    failed = arrays["failed.npy"]
    if int(entry["nbytes"]) != int(words.nbytes):
        report.error("nbytes-mismatch",
                     f"shard {k}: manifest records {entry['nbytes']} packed "
                     f"bytes, words.npy holds {words.nbytes}", directory)
    if offsets.shape != (n_sets,) or widths.shape != (n_sets,):
        report.error("layout-mismatch",
                     f"shard {k}: expected {n_sets} slots, found "
                     f"{offsets.shape} offsets / {widths.shape} widths",
                     directory)
        return
    if order.shape != (n_sets,) or not np.array_equal(
            np.sort(np.asarray(order)), np.arange(n_sets)):
        report.error("layout-mismatch",
                     f"shard {k}: order.npy is not a permutation of "
                     f"[0, {n_sets})", directory / "order.npy")
    if failed.ndim != 2 or (failed.size and failed.shape[1] != 2):
        report.error("layout-mismatch",
                     f"shard {k}: failed.npy has shape {failed.shape}, "
                     "expected (F, 2)", directory / "failed.npy")
    if n_sets and int(np.max(np.asarray(offsets) + np.asarray(widths))) > words.size:
        report.error("layout-mismatch",
                     f"shard {k}: slot extents exceed words.npy "
                     f"({words.size} words)", directory)


def _verify_tombstones(spill_dir: Path, manifest: dict,
                       report: IntegrityReport) -> None:
    from repro.core.sharded import TOMBSTONES_NAME

    n_physical = int(manifest["shards"][-1]["hi"]) if manifest.get("shards") else 0
    entry = manifest.get("tombstones")
    declared = manifest.get("n_tombstones")
    if entry is not None:
        path = spill_dir / entry["file"]
        expected_n = int(entry["n"])
    else:
        path = spill_dir / TOMBSTONES_NAME
        expected_n = int(declared) if declared is not None else None
        if not path.is_file():
            if expected_n:
                report.error("tombstones-missing",
                             f"manifest records {expected_n} tombstone(s) but "
                             f"{TOMBSTONES_NAME} is missing", path)
            return
    if not path.is_file():
        report.error("tombstones-missing",
                     f"manifest references {path.name} but it is missing", path)
        return
    if entry is not None and not _check_digest(
            report, path, entry["digest"], "checksum-mismatch"):
        return
    tombstones = _load_array(report, path, "tombstones-unreadable")
    if tombstones is None:
        return
    tombstones = np.asarray(tombstones)
    if expected_n is not None and int(tombstones.size) != expected_n:
        report.error("tombstones-mismatch",
                     f"manifest records {expected_n} tombstone(s), file holds "
                     f"{tombstones.size}", path)
    if tombstones.size and (
            np.any(np.diff(tombstones) <= 0)
            or int(tombstones[0]) < 0 or int(tombstones[-1]) >= n_physical):
        report.error("tombstones-invalid",
                     "tombstone ids are not sorted unique physical ids in "
                     f"[0, {n_physical})", path)


def _verify_family(spill_dir: Path, manifest: dict,
                   report: IntegrityReport) -> None:
    from repro.core.sharded import FAMILY_NAME

    entry = manifest.get("family")
    path = spill_dir / (entry["file"] if entry is not None else FAMILY_NAME)
    if not path.is_file():
        if entry is not None:
            report.error("family-missing",
                         f"manifest references {path.name} but it is missing",
                         path)
        else:
            report.warn("family-missing",
                        "no hash family file: membership/multiway serving "
                        "unavailable (pre-family artifact)", path)
        return
    if entry is not None and not _check_digest(
            report, path, entry["digest"], "checksum-mismatch"):
        return
    report.files_checked += 1


def _referenced_names(manifest: dict) -> set:
    from repro.core.sharded import FAMILY_NAME, TOMBSTONES_NAME

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


def _scan_garbage(spill_dir: Path, manifest: dict | None):
    """``(staging_dirs, orphans)`` — sweepable leftovers of crashed mutations."""
    staging, orphans = [], []
    referenced = _referenced_names(manifest) if manifest is not None else None
    for child in sorted(spill_dir.iterdir()):
        name = child.name
        if child.is_dir() and name.startswith(STAGING_PREFIX):
            staging.append(child)
        elif referenced is None or name in referenced:
            continue
        elif child.is_dir() and _ARTIFACT_DIR_RE.match(name):
            orphans.append(child)
        elif child.is_file() and (_TOMBSTONES_RE.match(name)
                                  or _FAMILY_RE.match(name)):
            orphans.append(child)
    return staging, orphans


def verify_spill(spill_dir) -> IntegrityReport:
    """Cross-check a spill artifact's manifest against its on-disk files.

    Damage (missing/unreadable/checksum-failing files, broken structural
    invariants, manifest/file disagreements) lands in ``errors``; sweepable
    leftovers of crashed mutations (staging directories, orphaned files no
    generation references) land in ``warnings``.  Never modifies anything.
    """
    spill_dir = Path(spill_dir)
    report = IntegrityReport(spill_dir=str(spill_dir))
    from repro.core.sharded import SUPPORTED_SPILL_VERSIONS

    manifest = _load_manifest(spill_dir, report)
    if manifest is not None:
        version = manifest.get("version")
        if version not in SUPPORTED_SPILL_VERSIONS:
            report.error("version-unsupported",
                         f"unsupported spill version {version!r} (supported: "
                         f"{', '.join(map(str, SUPPORTED_SPILL_VERSIONS))})")
            manifest = None
        else:
            report.version = int(version)
    if manifest is not None:
        report.generation = int(manifest.get("generation", 0))
        shards = manifest.get("shards")
        if not isinstance(shards, list) or not all(
                isinstance(e, dict) for e in shards):
            report.error("manifest-field", "manifest shard table is malformed")
            manifest_shards: list = []
        else:
            manifest_shards = shards
        try:
            lo = 0
            for k, entry in enumerate(manifest_shards):
                if int(entry["lo"]) != lo or int(entry["hi"]) < int(entry["lo"]):
                    report.error(
                        "manifest-field",
                        f"shard {k} covers [{entry['lo']}, {entry['hi']}), "
                        f"expected to start at {lo}")
                lo = int(entry["hi"])
            declared = int(manifest.get("n_sets", lo))
            if declared != lo:
                report.error("manifest-field",
                             f"manifest n_sets is {declared}, shard table "
                             f"covers {lo}")
            for key in ("universe_size", "r0"):
                int(manifest[key])
            for k, entry in enumerate(manifest_shards):
                _verify_shard(spill_dir, k, entry, report)
            _verify_tombstones(spill_dir, manifest, report)
            _verify_family(spill_dir, manifest, report)
        except (KeyError, TypeError, ValueError) as exc:
            report.error("manifest-field", f"manifest field damage: {exc!r}")
        if report.version in (1, 2):
            report.warn("no-checksums",
                        f"version {report.version} artifact records no file "
                        "digests; content damage in array bodies is "
                        "undetectable — any mutation re-commits at version 3")
    staging, orphans = _scan_garbage(spill_dir, manifest)
    for child in staging:
        report.warn("staging-leftover",
                    "staging directory from an interrupted mutation "
                    "(swept on attach once its process exits)", child)
    for child in orphans:
        report.warn("orphan",
                    "not referenced by the committed manifest "
                    "(`repro repair` sweeps it)", child)
    return report


def repair_spill(spill_dir) -> RepairResult:
    """Roll back to the last committed generation and sweep every orphan.

    Runs under the writer lock, and leaves alone the staging directory of
    any process still running (a fresh build stages without the lock).

    The commit protocol makes this safe: the manifest on disk *is* the last
    committed generation, every file it references was published whole
    before the manifest was, and garbage never shares a name with live
    state.  Raises :class:`~repro.core.errors.IntegrityError` when there is
    no readable manifest to roll back to.  Content damage inside referenced
    files (a failing checksum) is not repairable from the artifact alone —
    it is reported by the returned post-repair verify report instead.
    """
    spill_dir = Path(spill_dir)
    with writer_lock(spill_dir) if spill_dir.is_dir() else nullcontext():
        probe = IntegrityReport(spill_dir=str(spill_dir))
        manifest = _load_manifest(spill_dir, probe)
        if manifest is None:
            raise IntegrityError(
                f"{spill_dir}: no committed manifest to roll back to "
                f"({probe.errors[0].message}); the artifact must be rebuilt")
        actions = []
        staging, orphans = _scan_garbage(spill_dir, manifest)
        staging = [child for child in staging if not _owner_alive(child)]
        for child in staging + orphans:
            _remove_any(child)
            kind = "staging" if child in staging else "orphan"
            actions.append(f"removed {kind} {child.name}")
        return RepairResult(actions=actions, report=verify_spill(spill_dir))
