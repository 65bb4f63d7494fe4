"""A WebDocs-like synthetic dataset (surrogate for the FIMI WebDocs instance).

Figure 10 of the paper runs the miners on growing prefixes of WebDocs, a
document/word incidence dataset from the FIMI repository whose defining
difficulty is that "the number of distinct items in this instance increases
rapidly" with the prefix length.  The real dataset (~1.4 GB) is not
redistributable here, so this module generates a surrogate with the same
structural properties:

* word frequencies follow a Zipf law (a small core of extremely common words
  plus a long tail of rare ones);
* each document draws its words from the Zipf distribution, so longer
  prefixes keep discovering new vocabulary — the distinct-item count grows
  roughly like a power law of the prefix size;
* document lengths are log-normal, as in real text collections.

The substitution is documented in DESIGN.md; the Figure 10 harness only
relies on the vocabulary-growth property, which the surrogate reproduces.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.transactions import TransactionDatabase
from repro.utils.rng import RngLike, make_rng
from repro.utils.validation import require_positive

__all__ = ["generate_webdocs_like", "vocabulary_growth"]


def generate_webdocs_like(
    n_documents: int,
    *,
    vocabulary_size: int = 50_000,
    zipf_exponent: float = 1.05,
    mean_length: float = 120.0,
    sigma_length: float = 0.8,
    rng: RngLike = None,
    name: str | None = None,
) -> TransactionDatabase:
    """Generate ``n_documents`` word-set transactions with Zipfian vocabulary.

    Parameters default to values that give WebDocs-like behaviour at small
    scale: a few hundred documents already touch thousands of distinct words,
    and the vocabulary keeps growing with every additional prefix block.
    """
    require_positive(n_documents, "n_documents")
    require_positive(vocabulary_size, "vocabulary_size")
    require_positive(mean_length, "mean_length")
    rng = make_rng(rng)

    ranks = np.arange(1, vocabulary_size + 1, dtype=np.float64)
    weights = ranks ** (-zipf_exponent)
    weights /= weights.sum()

    lengths = np.maximum(
        1, rng.lognormal(mean=np.log(mean_length), sigma=sigma_length, size=n_documents)
    ).astype(np.int64)
    lengths = np.minimum(lengths, vocabulary_size)

    transactions: list[np.ndarray] = []
    for length in lengths.tolist():
        # Sampling with replacement then deduplicating mimics word repetition
        # inside a document collapsing into a set of distinct words.
        words = rng.choice(vocabulary_size, size=length, replace=True, p=weights)
        transactions.append(np.unique(words.astype(np.int64)))
    return TransactionDatabase(
        transactions=transactions,
        n_items=vocabulary_size,
        name=name or f"webdocs_like(D={n_documents},V={vocabulary_size})",
    )


def vocabulary_growth(db: TransactionDatabase, prefix_sizes) -> list[tuple[int, int]]:
    """Distinct-item counts of growing prefixes — the quantity that drives Figure 10.

    Returns ``[(prefix_size, distinct_items), ...]`` for each requested prefix.
    """
    out: list[tuple[int, int]] = []
    for size in sorted(int(s) for s in prefix_sizes):
        size = min(size, db.n_transactions)
        out.append((size, int(np.unique(db.indices[:db.indptr[size]]).size)))
    return out
