"""Dataset containers and generators used by the experiments.

* :class:`~repro.datasets.transactions.TransactionDatabase` — horizontal
  transaction container with vertical conversion and statistics.
* :func:`~repro.datasets.synthetic.generate_density_instance` — the paper's
  Bernoulli(p) generator (fixed total instance size).
* :func:`~repro.datasets.ibm_quest.generate_quest_dataset` — IBM Quest-style
  market baskets (T40I10D100K surrogate).
* :func:`~repro.datasets.webdocs.generate_webdocs_like` — WebDocs surrogate
  with Zipfian vocabulary growth.
* :mod:`~repro.datasets.fimi_io` — FIMI text format I/O.
* :mod:`~repro.datasets.streaming` — bounded-memory chunked readers for the
  out-of-core pipeline.
"""

from repro import _lazy

#: submodule -> the names it exports; each loads on first access (PEP 562),
#: so a command imports only the modules it runs.
__all__, __getattr__, __dir__ = _lazy(__name__, {
    "transactions": "TransactionDatabase",
    "synthetic": "generate_density_instance generate_fixed_transactions",
    "ibm_quest": "QuestParameters generate_quest_dataset generate_t40i10",
    "webdocs": "generate_webdocs_like vocabulary_growth",
    "fimi_io": "read_fimi write_fimi parse_fimi_line parse_fimi_lines",
    "streaming": "FimiChunk FimiStats iter_fimi_chunks scan_fimi_stats "
                 "collect_transactions",
})
