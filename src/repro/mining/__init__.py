"""The frequent pair / itemset mining pipeline built on batmaps.

* :func:`~repro.mining.preprocess.preprocess` — host-side batmap construction.
* :class:`~repro.mining.pair_mining.BatmapPairMiner` — the end-to-end pipeline
  (preprocess → pair counting → repair/threshold).
* :class:`~repro.mining.itemsets.BatmapItemsetMiner` — levelwise extension to
  itemsets of arbitrary size.
* :mod:`~repro.mining.levelwise` — vectorised candidate-support counting over
  a packed transaction bitmap (the level >= 3 engine, serial or parallel).
* :mod:`~repro.mining.postprocess` — count reordering and failed-insertion repair.
* :mod:`~repro.mining.support` — result containers with phase timing.
"""

from importlib import import_module

#: exported name -> submodule defining it.  Names load on first access
#: (PEP 562), so the pair pipeline never imports the levelwise modules.
_EXPORTS = {
    "BatmapPairMiner": "pair_mining",
    "BatmapItemsetMiner": "itemsets",
    "ItemsetMiningResult": "itemsets",
    "TransactionBitmap": "levelwise",
    "count_candidate_supports": "levelwise",
    "scan_supports": "levelwise",
    "PreprocessedData": "preprocess",
    "preprocess": "preprocess",
    "StreamedPreprocessedData": "preprocess",
    "preprocess_streaming": "preprocess",
    "reorder_counts": "postprocess",
    "repair_pair_counts": "postprocess",
    "repair_pair_counts_from_failures": "postprocess",
    "upper_triangle_pairs": "postprocess",
    "MiningReport": "support",
    "PairSupports": "support",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
