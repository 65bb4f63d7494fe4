"""Verify and repair a spill artifact: ``repro verify`` / ``repro repair``.

:func:`verify_spill` cross-checks a spill's manifest against its on-disk
files — existence, loadability, structural invariants and the content
digests manifest version 3 records — and reports damage as errors and
sweepable leftovers of crashed mutations as warnings.  :func:`repair_spill`
rolls the directory back to the last committed generation by sweeping
staging leftovers and orphaned files, which is always safe because the
commit protocol of :mod:`repro.core.integrity` never lets garbage share a
name with live state.

This is the only spill-lifecycle module that loads NumPy (to check the
shard arrays); :mod:`repro.core.integrity` re-exports both entry points.
"""

from __future__ import annotations

import json
import re
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.errors import IntegrityError, SpillFormatError
from repro.core.integrity import _owner_alive, _remove_any, writer_lock
from repro.core.manifest import (
    FAMILY_NAME,
    MANIFEST_NAME,
    SHARD_ARRAY_NAMES,
    STAGING_PREFIX,
    SUPPORTED_SPILL_VERSIONS,
    TOMBSTONES_NAME,
    file_digest,
    read_tombstones,
    referenced_names,
)

__all__ = ["Finding", "IntegrityReport", "RepairResult", "verify_spill", "repair_spill"]

#: Directory names the lifecycle owns — anything matching that the manifest
#: does not reference is sweepable garbage from a crashed mutation.
_ARTIFACT_DIR_RE = re.compile(r"^(shard|compact|rewrite)_")
_TOMBSTONES_RE = re.compile(r"^tombstones.*\.npy$")
_FAMILY_RE = re.compile(r"^family.*\.npz$")


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
    try:
        tombstones = np.frombuffer(read_tombstones(path), dtype=np.int64)
    except (OSError, SpillFormatError) as exc:
        report.error("tombstones-unreadable",
                     f"cannot load: {type(exc).__name__}: {exc}", path)
        return
    report.files_checked += 1
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


def _scan_garbage(spill_dir: Path, manifest: dict | None):
    """``(staging_dirs, orphans)`` — sweepable leftovers of crashed mutations."""
    staging, orphans = [], []
    referenced = referenced_names(manifest) if manifest is not None else None
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
