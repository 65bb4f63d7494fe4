"""Named crash/fault hooks for the artifact-lifecycle durability tests.

A *faultpoint* is a named no-op call placed at a write/rename/fsync boundary
of the spill mutation paths (:mod:`repro.core.integrity`,
:mod:`repro.core.sharded`, :mod:`repro.core.compaction`).  In production the
call costs one dict lookup; under test it can be armed to *raise*
(:class:`InjectedFault`, for in-process property tests), to fail as a full
disk does (``OSError`` with ``errno.ENOSPC``) or to *hard-exit* the
interpreter (``os._exit``, simulating ``kill -9`` for CLI smoke tests) at an
exact hit count — which is how the crash-recovery suite proves that every
kill point leaves an artifact that re-attaches at exactly the pre- or
post-mutation generation.

Two arming surfaces:

* **Test API** — :func:`arm` / :func:`disarm`, or the :class:`armed` context
  manager.  :class:`recording` captures the ordered list of faultpoints a
  mutation hits, so a property test can enumerate every kill site first and
  then replay the mutation once per site.
* **Environment** — ``REPRO_FAULTPOINT=<name>`` arms a faultpoint for a CLI
  subprocess (read once at import).  ``REPRO_FAULTPOINT_HIT=<k>`` selects
  the k-th hit (default 1) and ``REPRO_FAULTPOINT_MODE=exit|raise|oserror``
  (default ``exit``) picks the failure style; ``exit`` terminates with
  :data:`FAULT_EXIT_CODE`.

The registry :data:`KNOWN_FAULTPOINTS` is closed: calling
:func:`faultpoint` with an unregistered name is a programming error, which
keeps the crash test's "every registered faultpoint" enumeration honest.
State is module-global and not thread-safe — arm only in single-threaded
test sections.
"""

from __future__ import annotations

import errno
import os

__all__ = [
    "KNOWN_FAULTPOINTS",
    "FAULT_EXIT_CODE",
    "InjectedFault",
    "faultpoint",
    "arm",
    "disarm",
    "armed",
    "recording",
]

#: Every faultpoint name that exists in the codebase, by mutation stage.
#: ``append.*`` / ``delete.*`` / ``compact.*`` sit before the staged writes
#: of their mutation; ``commit.*`` bracket the atomic publish sequence of
#: :class:`repro.core.integrity.AtomicCommit` (fsync pass, per-path rename,
#: the manifest replace that *is* the commit point, and the post-commit
#: garbage sweep).
KNOWN_FAULTPOINTS = (
    "append.shard",         # before one delta shard's arrays are staged
    "append.reinterleave",  # before one existing shard's r0 rewrite is staged
    "delete.tombstones",    # before the new tombstone array is staged
    "compact.merge",        # before one merged shard's arrays are staged
    "commit.fsync",         # before staged files are fsynced
    "commit.rename",        # before each staged path moves into place
    "commit.manifest",      # before the manifest os.replace (the commit point)
    "commit.cleanup",       # after commit, before garbage is swept
)

#: Exit status of a hard-exit (``mode="exit"``) injection; CLI smoke tests
#: assert on it to distinguish an injected kill from a real crash.
FAULT_EXIT_CODE = 42

#: Failure styles of an armed faultpoint: raise :class:`InjectedFault`,
#: raise ``OSError(ENOSPC)``, or hard-exit with :data:`FAULT_EXIT_CODE`.
_MODES = ("raise", "oserror", "exit")

_KNOWN = frozenset(KNOWN_FAULTPOINTS)


class InjectedFault(RuntimeError):
    """Raised by an armed faultpoint (``mode="raise"``) at its trigger hit."""

    def __init__(self, name: str, hit: int) -> None:
        super().__init__(f"injected fault at {name!r} (hit {hit})")
        self.name = name
        self.hit = hit


class _Trigger:
    __slots__ = ("name", "hit", "mode", "seen")

    def __init__(self, name: str, hit: int, mode: str) -> None:
        self.name = name
        self.hit = int(hit)
        self.mode = mode
        self.seen = 0


_trigger: _Trigger | None = None
_record: list | None = None


def faultpoint(name: str) -> None:
    """Declare one crash boundary; no-op unless armed or recording."""
    if name not in _KNOWN:
        raise ValueError(f"unregistered faultpoint {name!r}; add it to "
                         "repro.utils.faultpoints.KNOWN_FAULTPOINTS")
    if _record is not None:
        _record.append(name)
    trigger = _trigger
    if trigger is None or trigger.name != name:
        return
    trigger.seen += 1
    if trigger.seen != trigger.hit:
        return
    disarm()
    if trigger.mode == "exit":
        os._exit(FAULT_EXIT_CODE)
    if trigger.mode == "oserror":
        raise OSError(errno.ENOSPC, f"{os.strerror(errno.ENOSPC)} "
                      f"(injected at {name!r}, hit {trigger.hit})")
    raise InjectedFault(name, trigger.hit)


def arm(name: str, *, hit: int = 1, mode: str = "raise") -> None:
    """Arm ``name`` to fail at its ``hit``-th call (one-shot)."""
    global _trigger
    if name not in _KNOWN:
        raise ValueError(f"unregistered faultpoint {name!r}")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if hit < 1:
        raise ValueError(f"hit must be >= 1, got {hit}")
    _trigger = _Trigger(name, hit, mode)


def disarm() -> None:
    """Remove any armed trigger (idempotent)."""
    global _trigger
    _trigger = None


class armed:
    """Context manager: arm on enter, disarm on exit (even if nothing fired)."""

    def __init__(self, name: str, *, hit: int = 1, mode: str = "raise") -> None:
        self._args = (name, hit, mode)

    def __enter__(self) -> "armed":
        name, hit, mode = self._args
        arm(name, hit=hit, mode=mode)
        return self

    def __exit__(self, *exc_info) -> None:
        disarm()


class recording:
    """Context manager capturing the ordered faultpoint hits of a block.

    ``hits`` is the raw sequence; :meth:`sites` collapses it into
    ``(name, occurrence)`` pairs — the exact arguments :func:`arm` needs to
    kill at each site one at a time.
    """

    def __init__(self) -> None:
        self.hits: list = []

    def __enter__(self) -> "recording":
        global _record
        _record = self.hits
        return self

    def __exit__(self, *exc_info) -> None:
        global _record
        _record = None

    def sites(self) -> list:
        """Every ``(name, k)`` such that the block hit ``name`` k times or more."""
        counts: dict[str, int] = {}
        out = []
        for name in self.hits:
            counts[name] = counts.get(name, 0) + 1
            out.append((name, counts[name]))
        return out


def _arm_from_env() -> None:
    """Arm from ``REPRO_FAULTPOINT`` (CLI subprocess surface); import-time."""
    name = os.environ.get("REPRO_FAULTPOINT")
    if not name:
        return
    if name not in _KNOWN:
        raise ValueError(
            f"REPRO_FAULTPOINT={name!r} is not a registered faultpoint; "
            f"known: {', '.join(KNOWN_FAULTPOINTS)}")
    hit = int(os.environ.get("REPRO_FAULTPOINT_HIT", "1"))
    mode = os.environ.get("REPRO_FAULTPOINT_MODE", "exit")
    arm(name, hit=hit, mode=mode)


_arm_from_env()
