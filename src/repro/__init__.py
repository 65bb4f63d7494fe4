"""repro — a reproduction of "A New Data Layout for Set Intersection on GPUs".

The package implements the BATMAP set layout of Amossen & Pagh (IPDPS 2011)
together with everything needed to regenerate the paper's evaluation on a
machine without a GPU: a deterministic OpenCL-style GPU simulator, the CPU
baselines (Apriori, FP-growth, Eclat, merge intersection, vertical bitmaps),
synthetic dataset generators, and the frequent-pair-mining pipeline.

Quickstart::

    import numpy as np
    from repro import BatmapCollection, count_common

    sets = [np.array([1, 5, 9, 12]), np.array([5, 9, 42])]
    coll = BatmapCollection.build(sets, universe_size=64, rng=0)
    assert coll.count_pair(0, 1) == 2
"""

import sys
from importlib import import_module

from repro._version import __version__


def _lazy(package: str, modules: dict):
    """PEP 562 exports for ``package``: ``(__all__, __getattr__, __dir__)``.

    ``modules`` maps each submodule to the space-separated names it exports;
    a name imports its submodule on first access.
    """
    home = {name: module for module, names in modules.items() for name in names.split()}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(f"{package}.{home[name]}"), name)

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(home))

    return list(home), __getattr__, __dir__


_names, __getattr__, __dir__ = _lazy(__name__, {
    "core.batmap": "Batmap build_batmap",
    "core.collection": "BatmapCollection",
    "core.config": "BatmapConfig DEFAULT_CONFIG",
    "core.hashing": "HashFamily",
    "core.intersection": "count_common exact_intersection_size",
})
__all__ = ["__version__", *_names]
