"""The FIMI grammar's id limit, and the sets-file reader of ``repro ingest``.

A FIMI file holds one set per line: item ids are runs of at most
:data:`MAX_ID_DIGITS` ASCII digits separated by spaces, tabs, CR, VT or FF;
blank lines and lines starting with ``#`` are skipped
(:mod:`repro.datasets.fimi_io`).  :func:`read_sets_file` reads such a file
without NumPy through the compiled kernel's ``parse_sets``; the vectorised
NumPy reader runs instead without a kernel and on a file the kernel refuses,
where it raises the error of the first malformed line.
"""

from __future__ import annotations

from array import array
from pathlib import Path

from repro.core.errors import DataFormatError

__all__ = ["MAX_ID_DIGITS", "read_sets_file"]

#: Longest accepted item id in decimal digits: every such id fits ``int64``.
MAX_ID_DIGITS = 18


def _parse_native(lib, data: bytes) -> list | None:
    """The sets of ``data`` as ``array('q')``; ``None`` if it breaks the grammar."""
    from repro.core.swar_kernel import buffer_address as at

    values = array("q", [0]) * (len(data) // 2 + 1)
    lengths = array("q", [0]) * (data.count(b"\n") + 1)
    n_sets = lib.parse_sets(data, len(data), MAX_ID_DIGITS, at(values), at(lengths))
    if n_sets < 0:
        return None
    sets, start = [], 0
    for length in lengths[:n_sets]:
        sets.append(values[start:start + length])
        start += length
    return sets


def read_sets_file(path) -> list:
    """A raw sets file as sorted duplicate-free ``int64`` sequences.

    The sets :func:`repro.datasets.fimi_io.read_sets_arrays` reads, as
    ``array('q')`` when the compiled kernel parses them; a malformed line or
    a file without sets raises the
    :class:`~repro.core.errors.DataFormatError` that reader raises.
    """
    from repro.core.swar_kernel import native_library

    lib = native_library()
    sets = None if lib is None else _parse_native(lib, Path(path).read_bytes())
    if sets is None:
        from repro.datasets.fimi_io import read_sets_arrays

        return read_sets_arrays(path)
    if not sets:
        raise DataFormatError(f"{path}: no sets found in input")
    return sets
