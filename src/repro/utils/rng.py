"""Deterministic random-number-generator plumbing.

All stochastic components (hash permutations, data generators, failure
injection) accept either an integer seed or a ``numpy.random.Generator`` and
derive independent child streams, so experiments are reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import Union

import numpy as np

#: A seed, a generator or ``None``.  The generator is a forward reference,
#: so importing this module does not import ``numpy.random``.
RngLike = Union[int, "np.random.Generator", None]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` from an int seed, an existing generator or ``None``."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(rng: np.random.Generator, *, bits: int = 63) -> int:
    """Draw an independent child seed from ``rng``."""
    if bits <= 0 or bits > 63:
        raise ValueError(f"bits must be in (0, 63], got {bits}")
    return int(rng.integers(0, 1 << bits))
