"""The compiled kernel library: the SWAR primitives and the construction loops.

:class:`repro.core.batch.WidthClassIndex` reduces every counting query to two
calls:

* :func:`fold_counts` ``(large, small) -> (n_a, n_b) int64`` — every row of
  ``large`` against every row of ``small``;
* :func:`fold_counts_rows` ``(large, small) -> (k,) int64`` — row ``k``
  against row ``k``.

Both compare packed byte lanes (a lane matches when the payloads are equal
and either indicator bit is set, the condition of
:func:`repro.core.swar.match_bits`) and fold the wider operand onto the
narrower one: word ``p`` of a ``large`` row meets word ``p mod w_small`` of a
``small`` row.

The primitives run as compiled C (``swar_kernel.c``, next to this file), the
way the paper's CPU comparison (Figure 11) runs its SWAR loop.  On first use
the source is compiled with the system C compiler (sysconfig's ``CC``, else
``cc`` on ``PATH``) at ``-O3 -march=native`` and loaded through stdlib
:mod:`ctypes`.  The library is cached per user under
``$XDG_CACHE_HOME/repro-batmap`` (default ``~/.cache/repro-batmap``), named by
a hash of the source, flags, compiler and CPU.  It is compiled to a temporary
name and ``os.replace``'d into place, so concurrent processes and pool
workers are safe, and it is never loaded from a directory, or as a file,
that other users can write.

The same library holds the three loops of cuckoo construction: the bulk
round engine (:func:`place_sets`), the serial INSERT walk
(:func:`walk_set`) and the 8-bit group encoder (:func:`encode_group`).
:mod:`repro.core.bulk_build` and :mod:`repro.core.builder` call them with
:func:`native_library`.

When no compiler is found, the compile fails, the cache is unsafe or the
loaded library fails its self-check, the NumPy implementations run instead:
:func:`numpy_fold_counts` and :func:`numpy_fold_counts_rows` below, and the
construction loops' NumPy and Python originals in their own modules.  The
choice is made by observation only.  The same implementations are the
reference the tests compare the compiled kernel against.
:func:`kernel_status` names the one in use; ``repro mine``,
``repro build-index`` and ``repro ingest`` print it as their
``swar kernel:`` line.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

import numpy as np

from repro.core.errors import LayoutError

__all__ = [
    "DEFAULT_BLOCK_WORDS",
    "fold_counts",
    "fold_counts_rows",
    "numpy_fold_counts",
    "numpy_fold_counts_rows",
    "kernel_status",
    "native_library",
    "place_sets",
    "walk_set",
    "encode_group",
]

SOURCE = Path(__file__).with_name("swar_kernel.c")

#: Compiler flags; part of the cache key.
CFLAGS = ("-O3", "-march=native", "-std=c99", "-shared", "-fPIC")

#: Upper bound on the packed words one broadcast comparison of the NumPy
#: fallback materialises (it chunks the rows of ``large`` to stay below it).
#: 2**17 words keep each temporary around 1 MB — cache-resident, which on the
#: E12 instance counted ~10x faster than a 2**23 budget.  The compiled kernel
#: makes no broadcast temporaries.
DEFAULT_BLOCK_WORDS = 1 << 17


# --------------------------------------------------------------------------- #
# NumPy implementation (fallback and test reference)
# --------------------------------------------------------------------------- #

# SWAR constants for both lane widths: two packed 32-bit words are processed
# per operation (uint64 lanes) whenever the row width is even; byte order is
# preserved by the little-endian view.
_MSB = {np.dtype(np.uint32): np.uint32(0x80808080),
        np.dtype(np.uint64): np.uint64(0x8080808080808080)}
_LSB = {np.dtype(np.uint32): np.uint32(0x01010101),
        np.dtype(np.uint64): np.uint64(0x0101010101010101)}
_ONES = {np.dtype(np.uint32): np.uint32(0xFFFFFFFF),
         np.dtype(np.uint64): np.uint64(0xFFFFFFFFFFFFFFFF)}
_SEVEN = {np.dtype(np.uint32): np.uint32(7), np.dtype(np.uint64): np.uint64(7)}

#: Words per width chunk: each byte lane accumulates at most one match per
#: word, so chunks of <= 255 words cannot overflow a uint8 lane counter.
_LANE_CHUNK = 252


def _view_widest(a: np.ndarray) -> np.ndarray:
    """Reinterpret a ``(n, w)`` uint32 matrix as uint64 lanes when ``w`` is even."""
    if a.shape[1] % 2 == 0:
        if a.strides[1] != a.itemsize:
            a = np.ascontiguousarray(a)
        return a.view(np.uint64)
    return a


def _match_count_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs match counts between the rows of ``a`` (n_a, w) and ``b`` (n_b, w).

    One fused SWAR pass per width chunk: compute the per-byte match mask,
    turn the masked MSBs into per-byte 0/1 lanes, sum the lanes along the
    width axis (safe from overflow within a chunk) and fold the byte lanes
    into the int64 result.
    """
    dt = a.dtype
    msb, lsb, ones, seven = _MSB[dt], _LSB[dt], _ONES[dt], _SEVEN[dt]
    n_a, w = a.shape
    n_b = b.shape[0]
    out = np.zeros((n_a, n_b), dtype=np.int64)
    for start in range(0, w, _LANE_CHUNK):
        stop = min(w, start + _LANE_CHUNK)
        x = a[:, None, start:stop]
        y = b[None, :, start:stop]
        p = ((x ^ y) | msb) - lsb
        matched = (p ^ ones) & ((x | y) & msb)
        # per-byte 0/1 lanes; lane sums stay < 256 within a chunk, so the
        # reduction cannot carry across byte lanes (dtype pinned: NumPy would
        # otherwise promote uint32 to uint64)
        lanes = np.add.reduce((matched >> seven) & lsb, axis=2, dtype=dt)
        out += lanes.view(np.uint8).reshape(n_a, n_b, dt.itemsize).sum(axis=2, dtype=np.int64)
    return out


def _match_count_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-aligned match counts: row ``k`` of ``a`` against row ``k`` of ``b``."""
    dt = a.dtype
    msb, lsb, ones, seven = _MSB[dt], _LSB[dt], _ONES[dt], _SEVEN[dt]
    n, w = a.shape
    out = np.zeros(n, dtype=np.int64)
    for start in range(0, w, _LANE_CHUNK):
        stop = min(w, start + _LANE_CHUNK)
        x = a[:, start:stop]
        y = b[:, start:stop]
        p = ((x ^ y) | msb) - lsb
        matched = (p ^ ones) & ((x | y) & msb)
        lanes = np.add.reduce((matched >> seven) & lsb, axis=1, dtype=dt)
        out += lanes.view(np.uint8).reshape(n, dt.itemsize).sum(axis=1, dtype=np.int64)
    return out


def _fold_reps(large: np.ndarray, small: np.ndarray) -> int:
    """How many narrow rows one wide row spans; validates the two shapes."""
    if large.ndim != 2 or small.ndim != 2:
        raise ValueError("fold operands must be 2-D word matrices")
    width_small = small.shape[1]
    if width_small == 0 or large.shape[1] % width_small != 0:
        raise ValueError(f"wide width {large.shape[1]} is not a multiple of "
                         f"narrow width {width_small}")
    return large.shape[1] // width_small


def numpy_fold_counts(large: np.ndarray, small: np.ndarray, *,
                      block_words: int = DEFAULT_BLOCK_WORDS) -> np.ndarray:
    """NumPy :func:`fold_counts`: the wide rows as ``reps`` narrow blocks.

    Rows of ``large`` are processed in chunks so no broadcast temporary
    exceeds ``block_words`` words.
    """
    reps = _fold_reps(large, small)
    width_small = small.shape[1]
    n_a, n_b = large.shape[0], small.shape[0]
    out = np.zeros((n_a, n_b), dtype=np.int64)
    small_w = _view_widest(small)
    rows = max(1, block_words // max(1, n_b * small_w.shape[1]))
    for start in range(0, n_a, rows):
        stop = min(n_a, start + rows)
        for block in range(reps):
            cols = slice(block * width_small, (block + 1) * width_small)
            out[start:stop] += _match_count_matrix(
                _view_widest(large[start:stop, cols]), small_w)
    return out


def numpy_fold_counts_rows(large: np.ndarray, small: np.ndarray) -> np.ndarray:
    """NumPy :func:`fold_counts_rows`."""
    reps = _fold_reps(large, small)
    if large.shape[0] != small.shape[0]:
        raise ValueError("row-aligned fold operands must have the same row count")
    width_small = small.shape[1]
    out = np.zeros(large.shape[0], dtype=np.int64)
    small_w = _view_widest(small)
    for block in range(reps):
        cols = slice(block * width_small, (block + 1) * width_small)
        out += _match_count_rows(_view_widest(large[:, cols]), small_w)
    return out


# --------------------------------------------------------------------------- #
# Compiled kernel: build, cache, load
# --------------------------------------------------------------------------- #

_lock = threading.Lock()
#: ``(library or None, status)`` once resolved; see :func:`_kernel`.
_state = None


def _cache_dir() -> Path:
    """Per-user cache directory of the compiled library."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
    return root / "repro-batmap"


def _find_compiler() -> list | None:
    """sysconfig's ``CC`` when it resolves on ``PATH``, else ``cc``."""
    import shlex
    import shutil
    import sysconfig

    configured = shlex.split(sysconfig.get_config_var("CC") or "")
    if configured and shutil.which(configured[0]):
        return [shutil.which(configured[0]), *configured[1:]]
    cc = shutil.which("cc")
    return [cc] if cc else None


def _cpu_id() -> str:
    """The CPU model and feature flags (``-march=native`` depends on both)."""
    import platform

    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            head = fh.read(1 << 16).split("\n\n")[0]
    except OSError:
        head = ""
    keep = [line for line in head.splitlines()
            if line.split(":")[0].strip() in ("vendor_id", "model name", "flags",
                                              "Features", "CPU part")]
    return "\n".join([platform.machine(), *keep])


def _private(path: Path) -> bool:
    """Owned by this user and writable by no one else."""
    st = path.stat()
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _compile(cc: list, target: Path) -> str | None:
    """Build the library into ``target`` atomically; an error string on failure."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run([*cc, *CFLAGS, "-o", tmp, str(SOURCE)],
                              capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            lines = (proc.stderr or proc.stdout).strip().splitlines()
            return "compile failed: " + (lines[0] if lines else f"exit {proc.returncode}")
        os.chmod(tmp, 0o755)  # the linker applies the umask, which may allow group writes
        os.replace(tmp, target)
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        return f"compile failed: {exc}"
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _bind(path: Path):
    """Load the library and declare its five entry points."""
    import ctypes

    lib = ctypes.CDLL(str(path))
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.fold_counts.argtypes = [ptr, i64, i64, i64, ptr, i64, i64, i64, ptr]
    lib.fold_counts.restype = None
    lib.fold_counts_rows.argtypes = [ptr, i64, i64, i64, ptr, i64, i64, ptr]
    lib.fold_counts_rows.restype = None
    lib.place_sets.argtypes = [ptr, i64, ptr, ptr, i64, i64, i64, ptr, ptr, ptr, ptr]
    lib.place_sets.restype = i64
    lib.walk_set.argtypes = [ptr, ptr, i64, i64, i64, i64, ptr, ptr, ptr]
    lib.walk_set.restype = i64
    lib.encode_group.argtypes = [ptr, ptr, ptr, ptr, i64, i64, i64, ptr, ptr]
    lib.encode_group.restype = i64
    return lib


def _load_native():
    """Compile (once per cache key) and load the kernel: ``(library, "")``.

    Returns ``(None, reason)`` whenever the compiled kernel cannot be used.
    """
    import hashlib

    if os.name != "posix":
        return None, "compiled kernel needs a POSIX host"
    cc = _find_compiler()
    if cc is None:
        return None, "no C compiler found"
    try:
        st = os.stat(cc[0])
        key = hashlib.sha256(b"\0".join([
            SOURCE.read_bytes(), " ".join(CFLAGS).encode(), " ".join(cc).encode(),
            f"{st.st_size}:{st.st_mtime_ns}".encode(), _cpu_id().encode(),
        ])).hexdigest()[:20]
        directory = _cache_dir()
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not _private(directory):
            return None, f"cache directory {directory} is writable by other users"
        target = directory / f"swar_kernel-{key}.so"
        if not target.exists():
            error = _compile(cc, target)
            if error is not None:
                return None, error
        if not _private(target):
            return None, f"cached library {target} is writable by other users"
        lib = _bind(target)
    except OSError as exc:
        return None, f"kernel unavailable: {exc}"
    if not _self_check(lib):
        return None, "compiled kernel failed its self-check"
    return lib, ""


def _self_check_case():
    """A tiny fold with odd widths, masked indicators and a two-row remainder."""
    # multiplicative hashing spreads bits without loading numpy.random
    words = np.arange(24, dtype=np.uint32).reshape(4, 6) * np.uint32(2654435761)
    small = words[:, :3].copy()
    small[:, 1] &= np.uint32(0x7F7F7F7F)
    large = np.concatenate([np.tile(small, (1, 2)), words[:2] ^ np.uint32(0x00FF0000)])
    large[1, 2] = small[0, 2] & np.uint32(0x7F7F7F7F)
    return large, small


#: :func:`numpy_fold_counts` of :func:`_self_check_case` (a test pins this),
#: stored so the load-time check runs no NumPy fold code.
_SELF_CHECK_COUNTS = [[2, 0, 0, 0], [1, 8, 0, 0], [0, 0, 10, 0],
                      [0, 0, 0, 8], [3, 0, 0, 0], [0, 6, 0, 0]]


def _self_check_group():
    """A tiny group at ``r = 4``: ``(slots, starts, lengths, payloads)``.

    Set 0 crowds five elements into few slots, so the round engine (under a
    budget of 6 moves) and the serial walk (``max_loop = 2``) must both fail
    some; set 1 holds two elements; set 2 is empty.
    """
    r = 4
    lengths = np.array([5, 2, 0], dtype=np.int64)
    starts = np.array([0, 5, 7], dtype=np.int64)
    positions = np.array([[0, 0, 0, 1, 1, 2, 2],
                          [3, 3, 0, 0, 0, 1, 3],
                          [2, 2, 2, 2, 1, 0, 0]], dtype=np.int64)
    set_of = np.repeat(np.arange(3, dtype=np.int64), lengths)
    slots = (set_of * 3 * r + np.arange(3)[:, None] * r + positions).astype(np.int32)
    payloads = np.arange(1, 22, dtype=np.int64).reshape(3, 7) * 5 % 127
    return slots, starts, lengths, payloads


_E = -1  # an empty slot

#: ``[rows, failed elements, set_moves, set_transcript, rounds]`` of the
#: NumPy round engine on :func:`_self_check_group` with a 6-move budget.
_SELF_CHECK_PLACEMENT = [
    [_E, _E, _E, _E, 4, _E, _E, _E, _E, 4, _E, _E,
     _E, _E, 6, _E, _E, 5, _E, 6, 5, _E, _E, _E,
     _E, _E, _E, _E, _E, _E, _E, _E, _E, _E, _E, _E],
    [0, 1, 2, 3], [33, 6, 0], [6, 3, 0], 6]
#: The NumPy group encoder on that placement (8-bit entries).
_SELF_CHECK_ENTRIES = [0, 0, 0, 0, 60, 0, 0, 0, 0, 223, 0, 0,
                       0, 0, 35, 0, 0, 65, 0, 198, 228, 0, 0, 0,
                       0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
#: ``[rows, failed, stats]`` of the Python serial walk of set 0 (element ids
#: 10..14, ``max_loop = 2``).
_SELF_CHECK_WALK = [[[10, 14, _E, _E], [12, _E, _E, 10], [_E, 14, 12, _E]],
                    [11, 13], [5, 2, 36, 6]]


def _self_check(lib) -> bool:
    """Compare the loaded kernel with the pinned reference outputs."""
    large, small = _self_check_case()
    if (_native_counts(lib, large, small).tolist() != _SELF_CHECK_COUNTS
            or _native_rows(lib, large[:4], small).tolist()
            != [_SELF_CHECK_COUNTS[k][k] for k in range(4)]):
        return False
    slots, starts, lengths, payloads = _self_check_group()
    try:
        rows, failed, moves, transcript, rounds = place_sets(lib, slots, starts, lengths, 4, 6)
        entries = encode_group(lib, rows, slots, payloads, failed,
                               payload_mask=127, indicator_shift=7)
    except (LayoutError, ValueError):  # a faulty loop can trip the wrappers' checks
        return False
    placement = [rows.tolist(), np.nonzero(failed)[0].tolist(), moves.tolist(),
                 transcript.tolist(), rounds]
    walk_rows, walk_failed, stats = walk_set(
        lib, np.arange(10, 15, dtype=np.int64), slots[:, :5] % 4, 4, 2, False)
    return (placement == _SELF_CHECK_PLACEMENT
            and entries.tolist() == _SELF_CHECK_ENTRIES
            and [walk_rows.tolist(), walk_failed, stats] == _SELF_CHECK_WALK)


def _kernel():
    """``(library or None, status)``, resolved once per process."""
    global _state
    if _state is None:
        with _lock:
            if _state is None:
                lib, reason = _load_native()
                _state = (lib, "native" if lib is not None else f"numpy ({reason})")
    return _state


def native_library():
    """The loaded compiled library, or ``None`` when the NumPy fallback runs.

    Construction code (:mod:`repro.core.bulk_build`, :mod:`repro.core.builder`)
    branches on it and passes it to :func:`place_sets`, :func:`walk_set` and
    :func:`encode_group`.
    """
    return _kernel()[0]


def kernel_status() -> str:
    """``"native"`` or ``"numpy (<reason>)"`` — which implementation runs.

    Resolving the status loads (and on first use compiles) the kernel.
    """
    return _kernel()[1]


# --------------------------------------------------------------------------- #
# The two primitives
# --------------------------------------------------------------------------- #

def _operand(a: np.ndarray) -> np.ndarray:
    """uint32 rows with contiguous words; row strides may be anything."""
    a = np.asarray(a)
    if a.dtype != np.uint32 or (a.shape[1] > 1 and a.strides[1] != 4) or a.strides[0] % 4:
        a = np.ascontiguousarray(a, dtype=np.uint32)
    return a


#: Narrow rows shorter than this many words are repeated before a fold, so
#: the kernel's inner loop runs long enough to vectorise.
_MIN_FOLD_WORDS = 64


def _widen(small: np.ndarray, reps: int) -> np.ndarray:
    """``small`` repeated ``k`` times along its width, ``k`` dividing ``reps``.

    Folding onto the repeated row gives the same counts: word ``p`` of a wide
    row still meets word ``p mod w_small`` of the narrow one.
    """
    k = 1
    while small.shape[1] * k < _MIN_FOLD_WORDS and reps % (2 * k) == 0:
        k *= 2
    return np.tile(small, (1, k)) if k > 1 else small


def _native_counts(lib, large, small) -> np.ndarray:
    small = _widen(small, _fold_reps(large, small))
    large, small = _operand(large), _operand(small)
    out = np.empty((large.shape[0], small.shape[0]), dtype=np.int64)
    if out.size:
        lib.fold_counts(large.ctypes.data, large.shape[0], large.strides[0] // 4,
                        large.shape[1], small.ctypes.data, small.shape[0],
                        small.strides[0] // 4, small.shape[1], out.ctypes.data)
    return out


def _native_rows(lib, large, small) -> np.ndarray:
    reps = _fold_reps(large, small)
    if large.shape[0] != small.shape[0]:
        raise ValueError("row-aligned fold operands must have the same row count")
    small = _widen(small, reps)
    large, small = _operand(large), _operand(small)
    out = np.empty(large.shape[0], dtype=np.int64)
    if out.size:
        lib.fold_counts_rows(large.ctypes.data, large.shape[0], large.strides[0] // 4,
                             large.shape[1], small.ctypes.data,
                             small.strides[0] // 4, small.shape[1], out.ctypes.data)
    return out


def fold_counts(large: np.ndarray, small: np.ndarray, *,
                block_words: int = DEFAULT_BLOCK_WORDS) -> np.ndarray:
    """Match counts of every ``large`` row folded onto every ``small`` row.

    ``large`` is ``(n_a, w_large)`` and ``small`` ``(n_b, w_small)`` packed
    uint32 words with ``w_large`` a multiple of ``w_small``; returns the
    ``(n_a, n_b)`` int64 count matrix.  ``block_words`` bounds the NumPy
    fallback's broadcast temporaries; the compiled kernel makes none.
    """
    lib = _kernel()[0]
    if lib is None:
        return numpy_fold_counts(large, small, block_words=block_words)
    return _native_counts(lib, large, small)


def fold_counts_rows(large: np.ndarray, small: np.ndarray) -> np.ndarray:
    """Row-aligned :func:`fold_counts`: ``large[k]`` folded onto ``small[k]``."""
    lib = _kernel()[0]
    if lib is None:
        return numpy_fold_counts_rows(large, small)
    return _native_rows(lib, large, small)


# --------------------------------------------------------------------------- #
# Cuckoo construction
# --------------------------------------------------------------------------- #

def _c(a: np.ndarray, dtype) -> np.ndarray:
    """``a`` as a C-contiguous array of ``dtype`` (no copy when it already is)."""
    return np.ascontiguousarray(a, dtype=dtype)


def place_sets(lib, slots: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
               r: int, max_moves: int):
    """The compiled round engine: ``(rows, failed_mask, set_moves, set_transcript, rounds)``.

    Same inputs and outputs as :func:`repro.core.bulk_build._run_rounds`
    (``slots`` is the ``(3, n)`` flat slot of every element; set ``s`` owns
    elements ``starts[s]:starts[s] + lengths[s]`` and slots
    ``3 r s:3 r (s + 1)``), but placed set by set with one ``3 r`` claim
    scratch instead of group-wide claim and frontier arrays.
    """
    slots = _c(slots, np.int32)
    starts, lengths = _c(starts, np.int64), _c(lengths, np.int64)
    n, n_sets = slots.shape[1], lengths.size
    if (slots.shape[0] != 3 or starts.shape != lengths.shape or lengths.min(initial=0) < 0
            or not np.array_equal(starts, np.cumsum(lengths) - lengths)
            or int(lengths.sum()) != n):
        raise ValueError("slots, starts and lengths do not describe one group")
    rows = np.empty(n_sets * 3 * r, dtype=np.int32)  # the C loop fills each set's region
    failed = np.zeros(n, dtype=bool)
    set_moves = np.zeros(n_sets, dtype=np.int64)
    set_transcript = np.zeros(n_sets, dtype=np.int64)
    rounds = lib.place_sets(slots.ctypes.data, n, starts.ctypes.data, lengths.ctypes.data,
                            n_sets, r, max_moves, rows.ctypes.data, failed.ctypes.data,
                            set_moves.ctypes.data, set_transcript.ctypes.data)
    if rounds == -1:
        raise MemoryError("round engine scratch allocation failed")
    if rounds < 0:
        raise ValueError("a slot lies outside its set's region of the group")
    return rows, failed, set_moves, set_transcript, int(rounds)


def walk_set(lib, elements: np.ndarray, positions: np.ndarray, r: int, max_loop: int,
             stop_on_failure: bool):
    """The compiled serial INSERT walk: ``(rows, failed, stats)``.

    ``elements`` are sorted unique ids and ``positions`` their ``(3, n)``
    slots.  ``rows`` is the ``(3, r)`` element-id placement, ``failed`` the
    failed ids in the order they were recorded and ``stats`` the four
    :class:`~repro.core.builder.PlacementStats` fields in order.  With
    ``stop_on_failure`` the walk ends after the first element that fails.
    """
    elements, positions = _c(elements, np.int64), _c(positions, np.int64)
    n = elements.size
    if positions.shape != (3, n) or n and (int(positions.min()) < 0
                                           or int(positions.max()) >= r):
        raise ValueError("positions must be (3, n) slots in [0, r)")
    rows = np.empty((3, r), dtype=np.int64)
    failed = np.empty(2 * n, dtype=np.int64)
    stats = np.empty(4, dtype=np.int64)
    n_failed = lib.walk_set(elements.ctypes.data, positions.ctypes.data, n, r, max_loop,
                            int(stop_on_failure), rows.ctypes.data, failed.ctypes.data,
                            stats.ctypes.data)
    return rows, failed[:n_failed].tolist(), stats.tolist()


#: Return codes of the C ``encode_group``.
_ENCODE_COPIES, _ENCODE_OVERFLOW = 1, 2


def encode_group(lib, rows_flat: np.ndarray, slots: np.ndarray, payloads: np.ndarray,
                 failed_mask: np.ndarray, *, payload_mask: int, indicator_shift: int,
                 elements: np.ndarray | None = None) -> np.ndarray:
    """The compiled 8-bit group encoder: uint8 entries shaped like ``rows_flat``.

    Inputs are those of :meth:`repro.core.bulk_build.GroupPlacement.encode`;
    raises the same :class:`~repro.core.errors.LayoutError` for an element
    stored in other than two tables (or a failed one in any) and for a
    payload above ``payload_mask``.  ``elements`` names the offender.
    """
    rows_flat, slots = _c(rows_flat, np.int32), _c(slots, np.int32)
    payloads, failed_mask = _c(payloads, np.int64), _c(failed_mask, np.bool_)
    n = failed_mask.size
    if (slots.shape != (3, n) or payloads.shape != (3, n)
            or n and (int(slots.min()) < 0 or int(slots.max()) >= rows_flat.size)):
        raise ValueError("rows, slots, payloads and failed mask do not describe one group")
    entries = np.zeros(rows_flat.size, dtype=np.uint8)
    info = np.zeros(2, dtype=np.int64)
    code = lib.encode_group(rows_flat.ctypes.data, slots.ctypes.data, payloads.ctypes.data,
                            failed_mask.ctypes.data, n, payload_mask, indicator_shift,
                            entries.ctypes.data, info.ctypes.data)
    if code == _ENCODE_COPIES:
        index, copies = info.tolist()
        offender = index if elements is None else int(elements[index])
        raise LayoutError(f"element {offender} stored in {copies} tables after bulk placement")
    if code == _ENCODE_OVERFLOW:
        raise LayoutError("payload overflow: increase payload_bits or the hash-family shift")
    return entries
