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
  ``repro repair`` backends, in :mod:`repro.core.verify` (the only spill
  code that loads NumPy to check arrays) and importable from here.  Verify
  cross-checks the manifest against the on-disk files (existence,
  loadability, structural invariants, digests) and reports damage as
  errors and sweepable leftovers as warnings; repair rolls the directory
  back to the last committed generation by sweeping staging leftovers and
  orphaned files, which is always safe because the commit protocol never
  lets garbage share a name with live state.

This module and :mod:`repro.core.manifest` import neither NumPy nor
``dataclasses``, so a ``repro delete`` loads neither.

:mod:`repro.core.sharded` and :mod:`repro.core.compaction` route every
mutation through :class:`AtomicCommit`; the fault-injection suite
(``tests/test_crash_recovery.py``) kills the protocol at every registered
:func:`~repro.utils.faultpoints.faultpoint` and proves the artifact
re-attaches at exactly the pre- or post-mutation generation.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import threading
from contextlib import contextmanager
from pathlib import Path

from repro.core.errors import SpillConflictError, SpillFormatError, SpillIOError
from repro.core.manifest import (
    DIGEST_ALGORITHM,
    LOCK_NAME,
    MANIFEST_NAME,
    SHARD_ARRAY_NAMES,
    STAGING_PREFIX,
    blake2b,
    file_digest,
    referenced_names,
)
from repro.utils.faultpoints import faultpoint

__all__ = [
    "MANIFEST_NAME",
    "LOCK_NAME",
    "STAGING_PREFIX",
    "SHARD_ARRAY_NAMES",
    "DIGEST_ALGORITHM",
    "blake2b",
    "file_digest",
    "AtomicCommit",
    "writer_lock",
    "require_generation",
    "sweep_stale_staging",
    "Finding",
    "IntegrityReport",
    "RepairResult",
    "verify_spill",
    "repair_spill",
]

#: Verify/repair names served from :mod:`repro.core.verify` on first access.
_VERIFY_NAMES = ("Finding", "IntegrityReport", "RepairResult", "verify_spill",
                 "repair_spill")


def __getattr__(name: str):
    if name in _VERIFY_NAMES:
        from repro.core import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


#: Errnos of a directory fsync the file system does not support; every
#: other failure (``EIO`` above all) means the entries may not be durable.
_DIR_FSYNC_UNSUPPORTED = frozenset({errno.EINVAL, errno.ENOTSUP, errno.EOPNOTSUPP})


def _fsync_dir(path: Path) -> None:
    """Durably record a directory's entries; raise if that failed.

    Only "not supported on a directory" errors are tolerated.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover — platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError as exc:
        if exc.errno not in _DIR_FSYNC_UNSUPPORTED:
            raise
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

    def __init__(self, spill_dir, operation: str = "commit") -> None:
        self.spill_dir = Path(spill_dir)
        #: what the mutation is, for the :class:`SpillIOError` it may raise
        self.operation = operation
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.staging = self.spill_dir / (
            f"{STAGING_PREFIX}{os.getpid()}-{os.urandom(4).hex()}")
        self.staging.mkdir()
        self._staged: list[str] = []
        self._garbage: list[Path] = []
        self.committed = False
        self.generation = None  # of the manifest being committed

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

    def replace_committed(self) -> int:
        """Make this commit replace the committed spill; return its generation.

        A fresh build into a directory that already holds a spill sweeps
        the shards, tombstones and family the committed manifest references
        and publishes the next generation, so an attachment to the old spill
        is stale.  An empty directory (or an unreadable manifest) starts at
        generation 0.
        """
        try:
            manifest = json.loads((self.spill_dir / MANIFEST_NAME).read_text())
            generation = int(manifest.get("generation", 0)) + 1
        except (OSError, ValueError, AttributeError, TypeError):
            return 0
        for name in referenced_names(manifest) - {MANIFEST_NAME}:
            self.add_garbage(self.spill_dir / name)
        return generation

    def io_error(self, exc: OSError, *, published: bool = False) -> SpillIOError:
        """``exc`` (an I/O failure of this mutation) as a :class:`SpillIOError`."""
        if isinstance(exc, SpillIOError):
            return exc
        code = errno.errorcode.get(exc.errno, str(exc.errno)) if exc.errno else "no errno"
        path = exc.filename if exc.filename is not None else self.spill_dir
        text = f"{self.operation} failed: {path}: {exc.strerror or exc} ({code}); "
        if published:
            text += (f"generation {self.generation} of {self.spill_dir} is published "
                     "but may not be durable — run 'repro verify'")
        else:
            text += f"{self.spill_dir} keeps its previous generation"
        return SpillIOError(text, exc.errno, exc.filename)

    def commit(self, manifest: dict) -> None:
        """Publish the staged files plus ``manifest`` as the next generation.

        An ``OSError`` is raised as :class:`SpillIOError`; one from the
        directory fsync after the manifest rename says the published
        generation may not be durable (it is not retried).
        """
        if self.committed:
            raise RuntimeError("commit() called twice")
        self.generation = manifest.get("generation")
        manifest_tmp = self.staging / MANIFEST_NAME
        try:
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
        except OSError as exc:
            raise self.io_error(exc) from exc
        try:
            _fsync_dir(self.spill_dir)
        except OSError as exc:
            raise self.io_error(exc, published=True) from exc
        self.committed = True
        faultpoint("commit.cleanup")
        live = referenced_names(manifest)
        for path in self._garbage:
            if path.name not in live:  # the new generation still uses it
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
            require_generation(Path(spill_dir), generation)
        yield
    finally:
        held[path][1] -= 1
        if held[path][1] == 0:
            os.close(held.pop(path)[0])  # releases the flock


def require_generation(spill_dir: Path, generation: int) -> None:
    """Raise :class:`~repro.core.errors.SpillConflictError` unless ``generation`` is committed."""
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


