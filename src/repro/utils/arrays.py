"""Sort-based set helpers for the counting and build paths.

``np.unique``, ``np.isin`` and ``np.setdiff1d`` import ``numpy.ma`` on their
first call in a process (``np.unique`` asks ``np.ma.is_masked``), which costs
9-14 ms — a visible share of a short ``repro mine``.  The paths that run on
every mine use this helper instead.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_unique"]


def sorted_unique(values) -> np.ndarray:
    """The distinct values of ``values``, ascending (``np.unique`` on 1-D input)."""
    out = np.sort(np.asarray(values).ravel())
    if out.size > 1:
        keep = np.empty(out.size, dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out
