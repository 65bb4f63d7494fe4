"""Memory-size accounting helpers used by the space model and Fig. 5 harness."""

from __future__ import annotations


def sizeof_array(arr) -> int:
    """Return the payload size of a NumPy array in bytes (ignores object overhead)."""
    return int(arr.nbytes)


def human_bytes(n: float) -> str:
    """Format a byte count for logs, e.g. ``human_bytes(3 * 2**20) == '3.00 MiB'``."""
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024.0 or unit == "TiB":
            return f"{n:.2f} {unit}"
        n /= 1024.0
    raise AssertionError("unreachable")


#: Suffix multipliers accepted by :func:`parse_memory_size` (binary units —
#: a memory *budget* bounds resident pages, which come in powers of two).
_SIZE_SUFFIXES = {
    "": 1,
    "B": 1,
    "K": 1 << 10,
    "KB": 1 << 10,
    "KIB": 1 << 10,
    "M": 1 << 20,
    "MB": 1 << 20,
    "MIB": 1 << 20,
    "G": 1 << 30,
    "GB": 1 << 30,
    "GIB": 1 << 30,
    "T": 1 << 40,
    "TB": 1 << 40,
    "TIB": 1 << 40,
}


def parse_memory_size(text) -> int:
    """Parse a human memory size (``"64M"``, ``"1.5GiB"``, ``4096``) into bytes.

    Accepts an ``int`` (returned as-is), or a string of a number followed by
    an optional unit suffix (case-insensitive; ``K/M/G/T`` with optional
    ``B``/``iB``).  Raises ``ValueError`` with the offending text on
    anything else, and on non-positive sizes — a zero memory budget can
    never hold a shard.
    """
    if isinstance(text, int):
        size = text
    else:
        s = str(text).strip().upper().replace(" ", "")
        idx = len(s)
        while idx > 0 and not (s[idx - 1].isdigit() or s[idx - 1] == "."):
            idx -= 1
        number, suffix = s[:idx], s[idx:]
        if not number or suffix not in _SIZE_SUFFIXES:
            raise ValueError(f"cannot parse memory size {text!r}")
        try:
            size = int(float(number) * _SIZE_SUFFIXES[suffix])
        except ValueError as exc:
            raise ValueError(f"cannot parse memory size {text!r}") from exc
    if size <= 0:
        raise ValueError(f"memory size must be positive, got {text!r}")
    return size
