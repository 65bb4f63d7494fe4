"""Exception hierarchy for the BATMAP core."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class BatmapError(ReproError):
    """Base class for errors raised by the batmap data structure."""


class InsertionFailure(BatmapError):
    """Raised when a cuckoo insertion cannot place an element within MaxLoop moves.

    The mining pipeline normally *handles* failed insertions through the
    repair path (Section III-C of the paper); this exception is only raised
    when the caller asked for strict construction (``on_failure="raise"``).
    """

    def __init__(self, element: int, message: str | None = None) -> None:
        self.element = int(element)
        super().__init__(message or f"cuckoo insertion failed for element {element}")


class CapacityError(BatmapError):
    """Raised when a batmap or device buffer would exceed its configured capacity."""


class LayoutError(BatmapError):
    """Raised when two batmaps have incompatible layouts for a packed comparison."""


class DeviceError(ReproError):
    """Base class for GPU-simulator errors (bad launch geometry, memory misuse)."""


class KernelLaunchError(DeviceError):
    """Raised when a kernel launch has inconsistent global/local sizes."""


class SharedMemoryError(DeviceError):
    """Raised when a work group over-allocates or misuses shared memory."""


class DatasetError(ReproError):
    """Base class for dataset-layer errors (readers, containers, spill files).

    Catch this to handle any malformed or unreadable input uniformly; the
    FIMI readers (:mod:`repro.datasets.fimi_io`,
    :mod:`repro.datasets.streaming`) raise subclasses carrying the source
    name and line number instead of letting a bare ``ValueError`` escape.
    """


class DataFormatError(DatasetError):
    """Raised on malformed transaction-database input (FIMI parsing, bad ids)."""


class SpillFormatError(DatasetError):
    """Raised when an on-disk shard spill directory is missing files or inconsistent."""


class SpillConflictError(DatasetError):
    """Raised when another writer committed to a spill after it was attached.

    Publishing on top of the newer generation would silently drop that
    update (:func:`repro.core.integrity.writer_lock`); re-attach and retry.
    """


class SpillIOError(DatasetError, OSError):
    """Raised when the file system fails a spill mutation's staging or commit.

    Also an :class:`OSError`.  Before the manifest rename the committed
    generation is untouched (the staging is removed); a directory fsync
    that fails after it leaves the new generation published but possibly
    not durable, and the message says so.  The CLI prints it as one
    ``error:`` line naming the operation, the path and the errno; ``errno``
    and ``filename`` are the failed call's.
    """

    def __init__(self, message: str, errno: int | None = None,
                 filename=None) -> None:
        super().__init__(message)
        self.errno = errno
        self.filename = filename

    def __str__(self) -> str:
        return self.args[0]


class IntegrityError(DatasetError):
    """Raised when an artifact's durability invariants cannot be restored.

    :func:`repro.core.integrity.repair_spill` raises this when there is no
    committed manifest to roll back to — the one situation rollback repair
    cannot handle (the artifact must be rebuilt).  Detected-but-repairable
    damage is *reported* (via :class:`repro.core.integrity.IntegrityReport`),
    not raised.
    """
