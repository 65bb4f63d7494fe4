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

The same library holds the loops of cuckoo construction: the group hash
(:func:`hash_group`, the table lookup or Feistel cycle walk to slots and
payloads), the bulk round engine (:func:`place_sets`), the serial INSERT
walk (:func:`walk_set`) and the 8-bit group encoder (:func:`encode_group`).
:mod:`repro.core.bulk_build` and :mod:`repro.core.builder` call them with
:func:`native_library`.

The standard-library append (:mod:`repro.core.append`) drives the same
library with :mod:`array` buffers: the C ``hash_group`` and
:func:`encode_group`, plus ``walk_slots`` (the serial walk over group
slots) and ``interleave_rows`` (the Figure-4 row interleave); its sets-file
reader (:mod:`repro.datasets.fimi_grammar`) runs ``parse_sets``.  Loading
the library, its self-check (every entry point against pinned outputs on
tiny inputs) and :func:`kernel_status` import no NumPy; the NumPy wrappers
below import it when they run.

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
from array import array
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.errors import LayoutError

if TYPE_CHECKING:
    import numpy as np

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
    "hash_group",
    "buffer_address",
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

def _swar_constants(dt):
    """``(msb, lsb, ones, seven)`` SWAR constants of a uint32 or uint64 lane.

    Two packed 32-bit words are processed per operation (uint64 lanes)
    whenever the row width is even; byte order is preserved by the
    little-endian view.
    """
    width = dt.itemsize
    return (dt.type(int.from_bytes(b"\x80" * width, "little")),
            dt.type(int.from_bytes(b"\x01" * width, "little")),
            dt.type((1 << 8 * width) - 1), dt.type(7))

#: Words per width chunk: each byte lane accumulates at most one match per
#: word, so chunks of <= 255 words cannot overflow a uint8 lane counter.
_LANE_CHUNK = 252


def _view_widest(a: np.ndarray) -> np.ndarray:
    """Reinterpret a ``(n, w)`` uint32 matrix as uint64 lanes when ``w`` is even."""
    import numpy as np

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
    import numpy as np

    dt = a.dtype
    msb, lsb, ones, seven = _swar_constants(dt)
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
    import numpy as np

    dt = a.dtype
    msb, lsb, ones, seven = _swar_constants(dt)
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
    import numpy as np

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
    import numpy as np

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
    """Load the library and declare its entry points."""
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
    lib.encode_group.argtypes = [ptr, ptr, ptr, ptr, i64, i64, i64, ptr, ptr, i64]
    lib.encode_group.restype = i64
    lib.hash_group.argtypes = [ptr, i64, ptr, i64, i64, i64, ptr, ptr, ptr, ptr, i64,
                               ptr, i64, ptr, ptr]
    lib.hash_group.restype = i64
    lib.walk_slots.argtypes = [ptr, i64, i64, i64, i64, i64, i64, ptr, ptr]
    lib.walk_slots.restype = i64
    lib.interleave_rows.argtypes = [ptr, i64, i64, i64, ptr, i64]
    lib.interleave_rows.restype = None
    lib.parse_sets.argtypes = [ptr, i64, i64, ptr, ptr]
    lib.parse_sets.restype = i64
    return lib


def _load_native():
    """Compile (once per cache key) and load the kernel: ``(library, "")``.

    Returns ``(None, reason)`` whenever the compiled kernel cannot be used.
    """
    from repro.core.integrity import blake2b  # hashlib would load OpenSSL

    if os.name != "posix":
        return None, "compiled kernel needs a POSIX host"
    cc = _find_compiler()
    if cc is None:
        return None, "no C compiler found"
    try:
        st = os.stat(cc[0])
        key = blake2b(b"\0".join([
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


def _self_check_rows():
    """A tiny fold with odd widths, masked indicators and a two-row remainder.

    ``(large, small)`` as lists of uint32 rows; multiplicative hashing
    spreads the bits.
    """
    words = [[(6 * i + j) * 2654435761 % (1 << 32) for j in range(6)] for i in range(4)]
    small = [[w & 0x7F7F7F7F if j == 1 else w for j, w in enumerate(row[:3])]
             for row in words]
    large = [row * 2 for row in small] + [[w ^ 0x00FF0000 for w in row]
                                          for row in words[:2]]
    large[1][2] = small[0][2] & 0x7F7F7F7F
    return large, small


def _self_check_case():
    """:func:`_self_check_rows` as uint32 matrices (for the NumPy reference)."""
    import numpy as np

    large, small = _self_check_rows()
    return np.array(large, dtype=np.uint32), np.array(small, dtype=np.uint32)


#: :func:`numpy_fold_counts` of :func:`_self_check_case` (a test pins this),
#: stored so the load-time check runs no NumPy fold code.
_SELF_CHECK_COUNTS = [[2, 0, 0, 0], [1, 8, 0, 0], [0, 0, 10, 0],
                      [0, 0, 0, 8], [3, 0, 0, 0], [0, 6, 0, 0]]

#: A tiny group at ``r = 4`` (see :func:`_self_check_group`).
_GROUP_LENGTHS = [5, 2, 0]
_GROUP_POSITIONS = [[0, 0, 0, 1, 1, 2, 2],
                    [3, 3, 0, 0, 0, 1, 3],
                    [2, 2, 2, 2, 1, 0, 0]]


def _self_check_lists():
    """:func:`_self_check_group` as flat lists: ``(slots, starts, lengths, payloads)``."""
    r = 4
    set_of = [s for s, n in enumerate(_GROUP_LENGTHS) for _ in range(n)]
    slots = [set_of[i] * 3 * r + t * r + _GROUP_POSITIONS[t][i]
             for t in range(3) for i in range(len(set_of))]
    starts = [sum(_GROUP_LENGTHS[:s]) for s in range(len(_GROUP_LENGTHS))]
    payloads = [(k + 1) * 5 % 127 for k in range(3 * len(set_of))]
    return slots, starts, list(_GROUP_LENGTHS), payloads


def _self_check_group():
    """A tiny group at ``r = 4``: ``(slots, starts, lengths, payloads)`` arrays.

    Set 0 crowds five elements into few slots, so the round engine (under a
    budget of 6 moves) and the serial walk (``max_loop = 2``) must both fail
    some; set 1 holds two elements; set 2 is empty.
    """
    import numpy as np

    slots, starts, lengths, payloads = _self_check_lists()
    return (np.array(slots, dtype=np.int32).reshape(3, -1),
            np.array(starts, dtype=np.int64), np.array(lengths, dtype=np.int64),
            np.array(payloads, dtype=np.int64).reshape(3, -1))


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

#: The standard-library append's loops on tiny inputs.  ``hash_group``: two
#: sets (``r = 4``, ``shift = 1``) over a domain of 13 with a lookup table
#: for table 0 and Feistel networks (four keys, two half bits, so values
#: past the domain are cycle-walked) for tables 1 and 2; ``[slots, payloads]``.
_HASH_CASE = {"elements": [0, 3, 7, 12, 1, 9], "lengths": [4, 2], "r": 4, "shift": 1,
              "table": [(5 * x + 2) % 13 for x in range(13)],
              "keys": [[11, 22, 33, 44], [5, 6, 7, 8]], "half_bits": 2, "domain": 13}
_SELF_CHECK_HASH = [[2, 0, 3, 2, 15, 12, 6, 6, 7, 5, 18, 16, 10, 11, 11, 8, 20, 21],
                    [2, 3, 6, 6, 4, 5, 6, 4, 6, 3, 2, 7, 4, 4, 2, 1, 5, 1]]
#: ``walk_slots`` over each set of :func:`_self_check_lists` (``max_loop =
#: 2``): the 36 rows, then each set's failed flat indices.
_SELF_CHECK_SLOT_WALK = [
    [0, 4, _E, _E, 2, _E, _E, 0, _E, 4, 2, _E,
     _E, _E, 6, _E, _E, 5, _E, 6, 5, _E, _E, _E,
     _E, _E, _E, _E, _E, _E, _E, _E, _E, _E, _E, _E],
    [1, 3], [], []]
#: ``interleave_rows`` of entry bytes 1..24 (two sets, ``r = 4``) at ``r0 = 2``
#: into rows of 16 bytes (the padding stays zero).
_SELF_CHECK_INTERLEAVE = [1, 2, 5, 6, 9, 10, 3, 4, 7, 8, 11, 12, 0, 0, 0, 0,
                          13, 14, 17, 18, 21, 22, 15, 16, 19, 20, 23, 24, 0, 0, 0, 0]
#: ``parse_sets`` of a valid and of a malformed sets file: ``[sets, values,
#: lengths, the result on the malformed one]`` (``-1 -`` its bad line's offset).
_PARSE_CASE = (b" 7 3 7\t1\r\n# c x\n\n0042 5\n", b"1 2\n3 -4\n")
_SELF_CHECK_PARSE = [2, [1, 3, 7, 5, 42], [3, 2], -5]


def buffer_address(buf) -> int | None:
    """Address of a C-contiguous ``array``, ``bytearray`` or NumPy buffer."""
    if isinstance(buf, array):
        return buf.buffer_info()[0] if len(buf) else None
    data = getattr(buf, "ctypes", None)
    if data is not None:
        return data.data
    import ctypes

    view = memoryview(buf)
    return ctypes.addressof(ctypes.c_char.from_buffer(view)) if view.nbytes else None


def _buffer_items(buf) -> int:
    view = memoryview(buf)
    return view.nbytes // view.itemsize


def _self_check(lib) -> bool:
    """Compare the loaded kernel with the pinned reference outputs (no NumPy)."""
    large, small = _self_check_rows()
    a, b = array("I", sum(large, [])), array("I", sum(small, []))
    counts, rows = array("q", bytes(8 * 6 * 4)), array("q", bytes(8 * 4))
    lib.fold_counts(buffer_address(a), 6, 6, 6, buffer_address(b), 4, 3, 3,
                    buffer_address(counts))
    lib.fold_counts_rows(buffer_address(a), 4, 6, 6, buffer_address(b), 3, 3,
                         buffer_address(rows))
    if (counts.tolist() != sum(_SELF_CHECK_COUNTS, [])
            or rows.tolist() != [_SELF_CHECK_COUNTS[k][k] for k in range(4)]):
        return False
    slots, starts, lengths, payloads = _self_check_lists()
    slots, payloads = array("i", slots), array("q", payloads)
    starts, lengths = array("q", starts), array("q", lengths)
    placed, failed = array("i", bytes(4 * 36)), bytearray(7)
    moves, transcript = array("q", bytes(24)), array("q", bytes(24))
    rounds = lib.place_sets(buffer_address(slots), 7, buffer_address(starts),
                            buffer_address(lengths), 3, 4, 6, buffer_address(placed),
                            buffer_address(failed), buffer_address(moves),
                            buffer_address(transcript))
    try:
        entries = encode_group(lib, placed, slots, payloads, failed,
                               payload_mask=127, indicator_shift=7)
    except (LayoutError, ValueError):  # a faulty loop can trip the wrappers' checks
        return False
    placement = [placed.tolist(), [i for i in range(7) if failed[i]], moves.tolist(),
                 transcript.tolist(), rounds]
    elements = array("q", range(10, 15))
    positions = array("q", [slots[t * 7 + i] % 4 for t in range(3) for i in range(5)])
    walk_rows, walk_failed = array("q", bytes(8 * 12)), array("q", bytes(8 * 10))
    stats = array("q", bytes(32))
    n_failed = lib.walk_set(buffer_address(elements), buffer_address(positions), 5, 4,
                            2, 0, buffer_address(walk_rows), buffer_address(walk_failed),
                            buffer_address(stats))
    walk = [[walk_rows[4 * t:4 * t + 4].tolist() for t in range(3)],
            walk_failed[:n_failed].tolist(), stats.tolist()]
    return (placement == _SELF_CHECK_PLACEMENT
            and list(entries) == _SELF_CHECK_ENTRIES
            and walk == _SELF_CHECK_WALK
            and _self_check_append(lib, slots))


def _self_check_append(lib, group_slots: array) -> bool:
    """The append's loops against their pinned outputs (no NumPy)."""
    at, case = buffer_address, _HASH_CASE
    elements, lengths = array("q", case["elements"]), array("q", case["lengths"])
    n = len(elements)
    table, keys = array("q", case["table"]), array("q", [0] * 4 + sum(case["keys"], []))
    half_bits = array("q", [0, case["half_bits"], case["half_bits"]])
    slots, payloads = array("i", bytes(4 * 3 * n)), array("q", bytes(8 * 3 * n))
    hashed = lib.hash_group(at(elements), n, at(lengths), len(lengths), case["r"],
                            case["shift"], at(table), None, None,
                            at(keys), 4, at(half_bits), case["domain"], at(slots),
                            at(payloads))
    rows, failed = array("i", bytes(4 * 36)), array("q", bytes(8 * 14))
    failures = []
    for first, n_set, base in ((0, 5, 0), (5, 2, 12), (7, 0, 24)):
        count = lib.walk_slots(at(group_slots), 7, first, n_set, base, 4, 2,
                               at(rows) + 4 * base, at(failed))
        failures.append(failed[:count].tolist())
    walk = [rows.tolist(), *failures]
    packed = bytearray(32)
    lib.interleave_rows(bytes(range(1, 25)), 2, 4, 2, at(packed), 16)
    values, set_lengths = array("q", bytes(8 * 16)), array("q", bytes(8 * 4))
    good, bad = _PARSE_CASE
    parsed = [lib.parse_sets(good, len(good), 18, at(values), at(set_lengths))]
    parsed += [values[:5].tolist(), set_lengths[:2].tolist(),
               lib.parse_sets(bad, len(bad), 18, at(values), at(set_lengths))]
    return (hashed == 0 and [slots.tolist(), payloads.tolist()] == _SELF_CHECK_HASH
            and walk == _SELF_CHECK_SLOT_WALK
            and list(packed) == _SELF_CHECK_INTERLEAVE
            and parsed == _SELF_CHECK_PARSE)


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
    import numpy as np

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
    import numpy as np

    k = 1
    while small.shape[1] * k < _MIN_FOLD_WORDS and reps % (2 * k) == 0:
        k *= 2
    return np.tile(small, (1, k)) if k > 1 else small


def _native_counts(lib, large, small) -> np.ndarray:
    import numpy as np

    small = _widen(small, _fold_reps(large, small))
    large, small = _operand(large), _operand(small)
    out = np.empty((large.shape[0], small.shape[0]), dtype=np.int64)
    if out.size:
        lib.fold_counts(large.ctypes.data, large.shape[0], large.strides[0] // 4,
                        large.shape[1], small.ctypes.data, small.shape[0],
                        small.strides[0] // 4, small.shape[1], out.ctypes.data)
    return out


def _native_rows(lib, large, small) -> np.ndarray:
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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


def hash_group(lib, elements: np.ndarray, lengths: np.ndarray, r: int, family):
    """The compiled slot and payload derivation of a group: ``(slots, payloads)``.

    ``elements`` are the concatenated sets of a group at range ``r`` (set
    ``s`` holds ``lengths[s]`` of them); the ``(3, n)`` int32 slots and
    int64 payloads are those :func:`repro.core.bulk_build.bulk_place_group`
    derives with NumPy.  ``None`` when a permutation of ``family`` is
    neither a lookup table nor a Feistel network with the others' round
    count: the caller hashes with NumPy then.
    """
    import numpy as np

    from repro.core.hashing import ArrayPermutation, FeistelPermutation

    tables, keys, half_bits = [], [], np.zeros(3, dtype=np.int64)
    for t, perm in enumerate(family.permutations):
        if type(perm) is ArrayPermutation:
            tables.append(_c(perm.table, np.int64))
        elif type(perm) is FeistelPermutation:
            tables.append(None)
            keys.append(perm.keys)
            half_bits[t] = perm.half_bits
        else:
            return None
    rounds = {len(k) for k in keys}
    if len(rounds) > 1:
        return None
    n_keys = rounds.pop() if rounds else 0
    flat_keys = np.zeros(max(1, 3 * n_keys), dtype=np.int64)
    for t, k in zip([t for t in range(3) if tables[t] is None], keys):
        flat_keys[t * n_keys:(t + 1) * n_keys] = k
    elements, lengths = _c(elements, np.int64), _c(lengths, np.int64)
    n = elements.size
    slots = np.empty((3, n), dtype=np.int32)
    payloads = np.empty((3, n), dtype=np.int64)
    if lib.hash_group(elements.ctypes.data, n, lengths.ctypes.data, lengths.size, r,
                      family.shift, *[None if t is None else t.ctypes.data for t in tables],
                      flat_keys.ctypes.data, n_keys, half_bits.ctypes.data,
                      family.permutations[0].domain_size,
                      slots.ctypes.data, payloads.ctypes.data) < 0:
        raise ValueError("element id out of range for the hash family's universe")
    return slots, payloads


#: Return codes of the C ``encode_group``.
_ENCODE_COPIES, _ENCODE_OVERFLOW, _ENCODE_SLOTS = 1, 2, 3


def encode_group(lib, rows_flat, slots, payloads, failed_mask, *, payload_mask: int,
                 indicator_shift: int, elements=None) -> bytearray:
    """The compiled 8-bit group encoder: one entry byte per cell of ``rows_flat``.

    Inputs are those of :meth:`repro.core.bulk_build.GroupPlacement.encode`,
    as C-contiguous buffers (NumPy arrays or :mod:`array` objects): ``int32``
    rows and ``(3, n)`` slots, ``(3, n)`` ``int64`` payloads and a one-byte
    failed mask.  Raises the same :class:`~repro.core.errors.LayoutError`
    for an element stored in other than two tables (or a failed one in any)
    and for a payload above ``payload_mask``.  ``elements`` names the
    offender.
    """
    n = _buffer_items(failed_mask)
    if (memoryview(rows_flat).itemsize != 4 or memoryview(slots).itemsize != 4
            or memoryview(payloads).itemsize != 8 or memoryview(failed_mask).itemsize != 1
            or _buffer_items(slots) != 3 * n or _buffer_items(payloads) != 3 * n):
        raise ValueError("rows, slots, payloads and failed mask do not describe one group")
    n_rows = _buffer_items(rows_flat)
    entries = bytearray(n_rows)
    info = array("q", [0, 0])
    code = lib.encode_group(buffer_address(rows_flat), buffer_address(slots),
                            buffer_address(payloads), buffer_address(failed_mask), n,
                            payload_mask, indicator_shift, buffer_address(entries),
                            buffer_address(info), n_rows)
    if code == _ENCODE_SLOTS:
        raise ValueError("rows, slots, payloads and failed mask do not describe one group")
    if code == _ENCODE_COPIES:
        index, copies = info.tolist()
        offender = index if elements is None else int(elements[index])
        raise LayoutError(f"element {offender} stored in {copies} tables after bulk placement")
    if code == _ENCODE_OVERFLOW:
        raise LayoutError("payload overflow: increase payload_bits or the hash-family shift")
    return entries
