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

from repro import _lazy

#: submodule -> the names it exports; each loads on first access (PEP 562),
#: so a command imports only the modules it runs.
__all__, __getattr__, __dir__ = _lazy(__name__, {
    "pair_mining": "BatmapPairMiner",
    "itemsets": "BatmapItemsetMiner ItemsetMiningResult",
    "levelwise": "TransactionBitmap count_candidate_supports scan_supports",
    "preprocess": "PreprocessedData preprocess StreamedPreprocessedData "
                  "preprocess_streaming",
    "postprocess": "reorder_counts repair_pair_counts "
                   "repair_pair_counts_from_failures upper_triangle_pairs",
    "support": "MiningReport PairSupports",
})
