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

from repro.mining.itemsets import BatmapItemsetMiner, ItemsetMiningResult
from repro.mining.levelwise import (
    TransactionBitmap,
    count_candidate_supports,
    scan_supports,
)
from repro.mining.pair_mining import BatmapPairMiner
from repro.mining.postprocess import (
    reorder_counts,
    repair_pair_counts,
    repair_pair_counts_from_failures,
    upper_triangle_pairs,
)
from repro.mining.preprocess import (
    PreprocessedData,
    StreamedPreprocessedData,
    preprocess,
    preprocess_streaming,
)
from repro.mining.support import MiningReport, PairSupports

__all__ = [
    "BatmapPairMiner",
    "BatmapItemsetMiner",
    "ItemsetMiningResult",
    "TransactionBitmap",
    "count_candidate_supports",
    "scan_supports",
    "PreprocessedData",
    "preprocess",
    "StreamedPreprocessedData",
    "preprocess_streaming",
    "reorder_counts",
    "repair_pair_counts",
    "repair_pair_counts_from_failures",
    "upper_triangle_pairs",
    "MiningReport",
    "PairSupports",
]
