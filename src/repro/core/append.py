"""Delta-shard append on the standard library and the compiled kernel.

``repro ingest --append`` and :meth:`repro.core.sharded.ShardedCollection.append`
build a few delta shards — Section III's construction: three permutations,
2-of-3 cuckoo placement into one-byte entries, then the Figure-4
interleave — and commit one manifest.  Every per-element loop of that runs
in the compiled kernel (:mod:`repro.core.swar_kernel`), so
:func:`append_sets` drives it with :mod:`array` buffers and loads no NumPy:

* the hash family comes from its ``.npz`` (tables or Feistel keys) through
  :mod:`zipfile` and the ``.npy`` header;
* each shard's engine is chosen as
  :meth:`~repro.core.collection.BatmapCollection.build` chooses it
  (:func:`~repro.core.plan.shard_build_compute`, then
  :func:`~repro.core.plan.plan_build`), and ``--memory-budget`` splits
  through :func:`~repro.core.plan.plan_shard_ranges`;
* the C ``hash_group`` gives slots and payloads, ``place_sets`` or the
  serial ``walk_slots`` places (the serial walk re-places every set the
  round engine failed, as :func:`~repro.core.bulk_build.bulk_place_group`
  does), :func:`~repro.core.swar_kernel.encode_group` encodes and
  ``interleave_rows`` packs the rows at the spill's ``r0`` — on the
  plan's worker threads when it names ``parallel`` (the C calls release
  the GIL);
* the five shard files are written as ``np.save`` writes them, and the
  commit goes through :meth:`~repro.core.manifest.SpillManifest.next_document`
  and :class:`~repro.core.integrity.AtomicCommit` under the writer lock.

Files and manifests are byte-identical to the NumPy builder's
(:meth:`~repro.core.sharded.ShardedCollectionBuilder.append`), which runs
instead — and loads NumPy — where it is the code that does the work:
without a compiled kernel, when the appended sets grow a lazy family's
universe (the family file is rewritten), and when they lower the spill's
``r0`` (every existing shard is re-interleaved).  The sets file is read by
:func:`repro.datasets.fimi_grammar.read_sets_file`.
"""

from __future__ import annotations

import zipfile
from array import array
from math import prod
from pathlib import Path

from repro.core.config import DEFAULT_CONFIG, BatmapConfig
from repro.core.errors import LayoutError, SpillFormatError
from repro.core.manifest import (
    _NPY_HEADER_RE,
    _NPY_MAGIC,
    FAMILY_NAME,
    SHARD_ARRAY_NAMES,
    SpillManifest,
    file_digest,
    npy_header,
    read_manifest,
    require_manifest,
)
from repro.core.plan import (
    BULK_MOVE_BUDGET,
    GROUP_SLOT_BUDGET,
    padded_row_bytes,
    plan_build,
    plan_shard_ranges,
    shard_build_compute,
    working_budget,
)
from repro.utils.validation import require

__all__ = ["append_sets"]

# --------------------------------------------------------------------------- #
# .npy files
# --------------------------------------------------------------------------- #
def _write_npy(path: Path, descr: str, shape: tuple, data) -> None:
    """Write ``data`` (little-endian native buffer) as ``np.save`` would."""
    with open(path, "wb") as handle:
        handle.write(npy_header(descr, shape))
        handle.write(data)


def _read_npy(blob: bytes, name: str):
    """``(descr, shape, data)`` of an ``.npy`` file's bytes."""
    if not blob.startswith(_NPY_MAGIC):
        raise SpillFormatError(f"{name} is unreadable: not a .npy file")
    width = {1: 2, 2: 4, 3: 4}.get(blob[6])
    if width is None:
        raise SpillFormatError(f"{name} is unreadable: unknown .npy format version")
    length = int.from_bytes(blob[8:8 + width], "little")
    start = 8 + width + length
    match = _NPY_HEADER_RE.match(blob[8 + width:start].decode("latin1"))
    if match is None or match["fortran"] == "True":
        raise SpillFormatError(f"{name} is unreadable: malformed .npy header")
    shape = tuple(int(part) for part in match["shape"].split(",") if part.strip())
    return match["descr"], shape, blob[start:]


def _int64s(blob: bytes) -> array:
    values = array("q")
    values.frombytes(blob)
    return values


# --------------------------------------------------------------------------- #
# The hash family
# --------------------------------------------------------------------------- #
class _Family:
    """What hashing needs of a saved family: per-table lookups or Feistel keys."""

    def __init__(self, path: Path) -> None:
        def member(name):
            """``(descr, data)`` of one ``.npy`` member of the archive."""
            descr, _, data = _read_npy(archive.read(f"{name}.npy"), f"{path}:{name}")
            return descr, data

        def scalar(name):
            return _int64s(member(name)[1])[0]

        try:
            with zipfile.ZipFile(path) as archive:
                names = set(archive.namelist())
                self.universe_size = scalar("universe_size")
                self.shift = scalar("shift")
                self.lazy = "capacity.npy" in names
                #: the permutations' domain, which the hash-range floors
                #: derive from (``HashFamily.range_universe``)
                self.capacity = scalar("capacity") if self.lazy else self.universe_size
                descr, data = member("kinds")
                width = int(descr[2:])  # '<U7': UTF-32 code units per string
                kinds = [data[4 * width * t:4 * width * (t + 1)].decode("utf-32-le")
                         .rstrip("\x00") for t in range(3)]
                self.tables = [None] * 3
                self.keys = [array("q") for _ in range(3)]
                self.half_bits = array("q", [0, 0, 0])
                for t, kind in enumerate(kinds):
                    if kind == "array":
                        self.tables[t] = _int64s(member(f"table_{t}")[1])
                    elif kind == "feistel":
                        self.keys[t] = _int64s(member(f"feistel_keys_{t}")[1])
                        self.half_bits[t] = scalar(f"feistel_half_bits_{t}")
                    else:
                        raise ValueError(f"unknown permutation kind {kind!r} in {path}")
        except (OSError, KeyError, zipfile.BadZipFile) as exc:
            raise SpillFormatError(
                f"{path} is unreadable ({type(exc).__name__}: {exc})") from exc
        rounds = {len(self.keys[t]) for t in range(3) if self.tables[t] is None}
        if len(rounds) > 1:
            raise SpillFormatError(f"{path}: Feistel tables disagree on their rounds")
        self.n_keys = rounds.pop() if rounds else 0
        #: the three tables' keys, ``n_keys`` each (zeros for lookup tables)
        self.flat_keys = array("q", [0]) * max(1, 3 * self.n_keys)
        for t in range(3):
            if self.tables[t] is None:
                self.flat_keys[t * self.n_keys:(t + 1) * self.n_keys] = self.keys[t]


def _load_family(spill: SpillManifest) -> _Family:
    """The spill's family, with :attr:`ShardedCollection.family`'s errors."""
    name = spill.family_file or FAMILY_NAME
    path = spill.spill_dir / name
    if not path.exists():
        if spill.family_file is not None:
            raise SpillFormatError(
                f"family file {name} referenced by the manifest of "
                f"{spill.spill_dir} is missing — the artifact is "
                "damaged; run 'repro verify', or rebuild")
        raise SpillFormatError(
            f"no {FAMILY_NAME} in {spill.spill_dir}: this spill predates "
            "hash-family persistence and cannot serve membership or "
            "multiway queries — rebuild it with 'repro build-index'"
        )
    return _Family(path)


# --------------------------------------------------------------------------- #
# One delta shard
# --------------------------------------------------------------------------- #
class _Shard:
    """One delta shard being built: packed words plus its four small arrays."""

    def __init__(self, rs: list, r0: int, n_sets: int) -> None:
        self.r0 = r0
        self.offsets = array("q")
        self.widths = array("q")
        total = 0
        for r in rs:
            self.offsets.append(total)
            self.widths.append(3 * r // 4)
            total += padded_row_bytes(r) // 4
        self.words = bytearray(4 * total)
        self.failed: list = []   # (element, local set) pairs
        self.n_sets = n_sets

    def place(self, lib, sets: list, locals_: list, first_slot: int, r: int,
              family: _Family, config: BatmapConfig, serial: bool) -> None:
        """Place, encode and interleave sets of range ``r`` at consecutive slots."""
        from repro.core.swar_kernel import buffer_address as at, encode_group

        lengths = array("q", [len(s) for s in sets])
        flat = array("q")
        for s in sets:
            flat.extend(s)
        n, n_sets, span = len(flat), len(sets), 3 * r
        slots, payloads = _zeros("i", 3 * n), _zeros("q", 3 * n)
        tables = [at(t) if t is not None else None for t in family.tables]
        if lib.hash_group(at(flat), n, at(lengths), n_sets, r, family.shift, *tables,
                          at(family.flat_keys), family.n_keys, at(family.half_bits),
                          family.capacity, at(slots), at(payloads)) < 0:
            raise ValueError("element id out of range for the hash family's universe")
        rows, failed = _zeros("i", n_sets * span), bytearray(n)
        starts = _zeros("q", n_sets)
        for k in range(1, n_sets):
            starts[k] = starts[k - 1] + lengths[k - 1]
        max_loop = config.effective_max_loop(r)
        retry = range(n_sets)
        if not serial:
            moves, transcript = _zeros("q", n_sets), _zeros("q", n_sets)
            rounds = lib.place_sets(at(slots), n, at(starts), at(lengths), n_sets, r,
                                    min(3 * max_loop, BULK_MOVE_BUDGET), at(rows),
                                    at(failed), at(moves), at(transcript))
            if rounds == -1:
                raise MemoryError("round engine scratch allocation failed")
            if rounds < 0:
                raise ValueError("a slot lies outside its set's region of the group")
            # every set the round engine failed is re-placed by the serial walk
            retry = sorted({_owner(starts, i) for i in _ones(failed)})
        walked = _zeros("q", 2 * max(lengths, default=0))
        base = at(rows)
        for s in retry:
            start, length = starts[s], lengths[s]
            failed[start:start + length] = bytes(length)
            count = lib.walk_slots(at(slots), n, start, length, span * s, r, max_loop,
                                   base + 4 * span * s, at(walked))
            for i in walked[:count]:
                failed[i] = 1
        entries = encode_group(lib, rows, slots, payloads, failed,
                               payload_mask=config.payload_mask,
                               indicator_shift=config.indicator_shift, elements=flat)
        row_bytes = padded_row_bytes(r)
        lib.interleave_rows(at(entries), n_sets, r, self.r0,
                            at(self.words) + 4 * self.offsets[first_slot], row_bytes)
        for i in _ones(failed):
            self.failed.append((flat[i], locals_[_owner(starts, i)]))

    def write(self, directory: Path, order: list) -> dict:
        """Write the five arrays into a new ``directory``; return their digests."""
        directory.mkdir()
        failed = array("q", [v for pair in sorted(self.failed) for v in pair])
        arrays = (("<u4", (len(self.words) // 4,), self.words),
                  ("<i8", (self.n_sets,), self.offsets),
                  ("<i8", (self.n_sets,), self.widths),
                  ("<i8", (self.n_sets,), array("q", order)),
                  ("<i8", (len(failed) // 2, 2), failed))
        digests = {}
        for name, (descr, shape, data) in zip(SHARD_ARRAY_NAMES, arrays):
            _write_npy(directory / name, descr, shape, data)
            digests[name] = file_digest(directory / name)
        return digests


def _zeros(typecode: str, n: int) -> array:
    """``n`` zeros of ``typecode`` (repeating one item beats copying a ``bytes``)."""
    return array(typecode, [0]) * n


def _ones(flags: bytearray):
    """Positions of the non-zero bytes of ``flags``, ascending."""
    i = flags.find(1)
    while i >= 0:
        yield i
        i = flags.find(1, i + 1)


def _owner(starts: array, i: int) -> int:
    """The set whose elements ``[starts[s], starts[s + 1])`` hold index ``i``."""
    from bisect import bisect_right

    return bisect_right(starts, i) - 1


def _build_shard(lib, sets: list, family: _Family, config: BatmapConfig, r0: int,
                 memory_budget: int | None, build_compute: str,
                 build_workers: int | None) -> tuple:
    """One delta shard as :meth:`BatmapCollection.build` would pack it at ``r0``.

    Returns ``(shard, order, build backend)``.
    """
    sizes = [len(s) for s in sets]
    range_universe = family.capacity
    requested = shard_build_compute(max(sizes), range_universe, config,
                                    memory_budget, build_compute)
    range_of = {size: max(4, config.range_for_size(size, range_universe))
                for size in set(sizes)}
    rs = [range_of[size] for size in sizes]
    order = sorted(range(len(sets)), key=sizes.__getitem__)
    build = plan_build(len(sets), sum(sizes), requested=requested, workers=build_workers)
    sorted_rs = [rs[k] for k in order]
    shard = _Shard(sorted_rs, r0, len(sets))
    if build.backend == "host":
        for slot, k in enumerate(order):
            shard.place(lib, [sets[k]], [k], slot, rs[k], family, config, serial=True)
        return shard, order, build.backend
    slot_budget = (GROUP_SLOT_BUDGET if memory_budget is None
                   else max(1, memory_budget // 192))
    if build.backend == "parallel":  # ~2 chunks per thread, as the builder cuts them
        slot_budget = min(slot_budget, -(-3 * sum(sorted_rs) // (2 * build.workers)))
    jobs = []
    lo = 0
    while lo < len(order):  # one width group: consecutive slots of one range
        r = sorted_rs[lo]
        hi = lo
        while hi < len(order) and sorted_rs[hi] == r:
            hi += 1
        per_chunk = max(1, slot_budget // (3 * r))
        for start in range(lo, hi, per_chunk):
            chunk = order[start:min(start + per_chunk, hi)]
            jobs.append(([sets[k] for k in chunk], chunk, start, r))
        lo = hi

    def place(job):
        shard.place(lib, *job, family, config, serial=False)

    if build.backend == "parallel":
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(build.workers) as pool:
            list(pool.map(place, jobs))
    else:
        for job in jobs:
            place(job)
    return shard, order, build.backend


def _check_shards(spill: SpillManifest) -> None:
    """Refuse what attaching the spill refuses: a shard whose ``order.npy``
    or ``failed.npy`` is missing or unreadable, or whose order does not hold
    one entry per set (:meth:`repro.core.sharded.ShardedCollection.from_spill`).
    """
    for k, entry in enumerate(spill.shards):
        directory = spill.spill_dir / entry["dir"]
        for name in ("order.npy", "failed.npy"):
            path = directory / name
            try:
                descr, shape, data = _read_npy(path.read_bytes(), str(path))
                items = prod(shape)
                if descr != "<i8" or len(data) != 8 * items:
                    raise SpillFormatError(f"{path} is unreadable: not {items} int64 values")
            except (OSError, SpillFormatError) as exc:
                raise SpillFormatError(
                    f"shard {k}: cannot load {path} ({type(exc).__name__}: {exc}) — "
                    "the artifact is damaged or incomplete; run 'repro verify'") from exc
            if name == "order.npy" and shape != (entry["hi"] - entry["lo"],):
                raise SpillFormatError(
                    f"{path} holds {shape} entries for a shard of "
                    f"{entry['hi'] - entry['lo']} sets — the artifact is damaged; "
                    "run 'repro verify'")


# --------------------------------------------------------------------------- #
# The append transaction
# --------------------------------------------------------------------------- #
def append_sets(spill_dir, sets: list, *, universe_size: int | None = None,
                memory_budget: int | None = None,
                config: BatmapConfig | None = None, build_compute: str = "auto",
                build_workers: int | None = None,
                generation: int | None = None) -> tuple:
    """Append ``sets`` to a spill as delta shards in one atomic commit.

    ``sets`` are sorted duplicate-free integer sequences (what
    :func:`~repro.datasets.fimi_grammar.read_sets_file` returns).  Bytes,
    manifest, errors and fault points are those of
    :meth:`repro.core.sharded.ShardedCollectionBuilder.append` with the same
    ``config`` (default: the spill's recorded ``payload_bits`` over default
    construction knobs), ``build_compute`` and ``build_workers``; that
    builder runs instead when this path cannot (see the module docstring).
    With ``generation``, a commit by another writer since that generation
    raises :class:`~repro.core.errors.SpillConflictError`.  Returns
    ``(manifest, live sets before)``: the committed
    :class:`~repro.core.manifest.SpillManifest` and the live set count it
    was appended to.
    """
    from repro.core.integrity import AtomicCommit, sweep_stale_staging, writer_lock
    from repro.core.swar_kernel import native_library
    from repro.utils.faultpoints import faultpoint

    require(len(sets) > 0, "cannot append zero sets")
    spill_dir = require_manifest(spill_dir)
    with writer_lock(spill_dir, generation):
        sweep_stale_staging(spill_dir)
        spill = read_manifest(spill_dir)
        _check_shards(spill)
        before = spill.n_sets - len(spill.read_tombstones())
        family = _load_family(spill)
        if config is None:
            config = DEFAULT_CONFIG.with_(payload_bits=spill.payload_bits)
        budget = memory_budget
        if memory_budget is not None:
            budget = working_budget(memory_budget, spill.universe_size, spill.n_sets,
                                    lazy_family=family.lazy)
        if config.entry_storage_bits != 8:
            raise LayoutError(
                "the sharded pipeline spills byte-packed device buffers; "
                f"payload_bits={config.payload_bits} stores "
                f"{config.entry_dtype} entries — use the in-memory path")
        needed = max((s[-1] + 1 for s in sets if len(s)), default=0)
        target = max(spill.universe_size, needed, universe_size or 0)
        if target > spill.universe_size and not family.lazy:
            raise ValueError(
                f"appending requires universe {target} but the spill's "
                f"eager hash family is fixed at {spill.universe_size}: "
                "eager permutations materialize O(universe) state and "
                "cannot grow — rebuild with an extensible family "
                "(build-index --family lazy)")
        smallest = min(len(s) for s in sets)
        r_new = max(4, config.range_for_size(smallest, family.capacity))
        lib = native_library()
        if lib is None or target > spill.universe_size or r_new < spill.r0:
            from repro.core.sharded import ShardedCollection, ShardedCollectionBuilder

            builder = ShardedCollectionBuilder.for_append(
                ShardedCollection.from_spill(spill_dir), config=config,
                build_compute=build_compute, build_workers=build_workers,
                memory_budget=memory_budget)
            return builder.append(sets, universe_size=universe_size), before
        if any(s[0] < 0 for s in sets if len(s)):
            raise ValueError("element id out of range for the hash family's universe")
        if budget is not None:
            packed = [padded_row_bytes(max(4, config.range_for_size(
                len(s), family.capacity))) for s in sets]
            ranges = plan_shard_ranges(packed, budget)
        else:
            ranges = [(0, len(sets))]
        commit = AtomicCommit(spill_dir, "append")
        try:
            entries = list(spill.shards)
            for lo, hi in ranges:
                faultpoint("append.shard")
                shard, order, backend = _build_shard(lib, sets[lo:hi], family, config,
                                                     spill.r0, budget, build_compute,
                                                     build_workers)
                index = len(entries)
                while commit.taken(f"shard_{index:04d}"):
                    index += 1
                name = f"shard_{index:04d}"
                digests = shard.write(commit.stage(name), order)
                first = entries[-1]["hi"] if entries else 0
                entries.append({"dir": name, "lo": first, "hi": first + hi - lo,
                                "nbytes": len(shard.words), "build_backend": backend,
                                "kind": "delta", "files": digests})
            document = spill.next_document(
                entries, universe_size=spill.universe_size, r0=spill.r0,
                payload_bits=config.payload_bits,
                family_kind="lazy" if family.lazy else "eager",
                family=spill.family_entry())
            commit.commit(document)
        except OSError as exc:
            commit.abort()
            raise commit.io_error(exc) from exc
        except BaseException:
            commit.abort()
            raise
    return SpillManifest(spill_dir, document), before
