"""Seeded workload inputs and the independent pair-support oracle.

The generators are the benchmark's own (plain NumPy), so the program under
test receives only generated files and a change to its own dataset
generators cannot move the inputs.  The oracle is a ``scipy.sparse``
``X^T X`` support product over the transaction-by-item incidence matrix: it
shares no code with the miner.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def density_transactions(rng: np.random.Generator, n_items: int, density: float,
                         total_items: int) -> list:
    """Bernoulli transactions: each item joins each transaction with ``density``.

    Transactions are drawn until ``total_items`` occurrences are reached (the
    paper's density instances, Figs. 6-8).
    """
    out = []
    running = 0
    block = max(1, int(total_items / (n_items * density) / 8))
    while running < total_items:
        mask = rng.random((block, n_items)) < density
        rows, cols = np.nonzero(mask)
        cuts = np.searchsorted(rows, np.arange(1, block))
        for items in np.split(cols.astype(np.int64), cuts):
            out.append(items)
            running += items.size
            if running >= total_items:
                break
    return out


def zipf_documents(rng: np.random.Generator, n_docs: int, vocabulary: int, *,
                   exponent: float = 1.05, mean_length: float = 120.0,
                   sigma: float = 0.8) -> list:
    """WebDocs-like word sets: lognormal lengths, Zipfian word choice, deduplicated."""
    weights = np.arange(1, vocabulary + 1, dtype=np.float64) ** -exponent
    weights /= weights.sum()
    lengths = np.maximum(1, rng.lognormal(np.log(mean_length), sigma, n_docs))
    lengths = np.minimum(lengths.astype(np.int64), vocabulary)
    words = rng.choice(vocabulary, size=int(lengths.sum()), p=weights)
    doc = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
    keys = np.unique(doc * vocabulary + words)
    doc_of, word_of = np.divmod(keys, vocabulary)
    cuts = np.searchsorted(doc_of, np.arange(1, n_docs))
    return np.split(word_of.astype(np.int64), cuts)


def write_sets(path: Path, sets) -> int:
    """Write one whitespace-separated set per line (FIMI or raw set file)."""
    text = "\n".join(" ".join(map(str, s.tolist())) for s in sets) + "\n"
    path.write_text(text)
    return len(text)


def incidence(transactions, n_items: int):
    """Sparse 0/1 transaction-by-item matrix (CSR, int64)."""
    from scipy import sparse

    lengths = np.fromiter((t.size for t in transactions), dtype=np.int64,
                          count=len(transactions))
    rows = np.repeat(np.arange(len(transactions), dtype=np.int64), lengths)
    cols = np.concatenate(transactions) if len(transactions) else np.zeros(0, np.int64)
    data = np.ones(cols.size, dtype=np.int64)
    return sparse.csr_matrix((data, (rows, cols)),
                             shape=(len(transactions), n_items))


def frequent_pairs_text(transactions, n_items: int, min_support: int) -> bytes:
    """Expected ``--pairs-out`` file: sorted ``i j support`` lines, i < j."""
    from scipy import sparse

    x = incidence(transactions, n_items)
    co = sparse.triu(x.T @ x, k=1).tocoo()
    keep = co.data >= min_support
    i, j, s = co.row[keep], co.col[keep], co.data[keep]
    order = np.lexsort((j, i))
    lines = [f"{a} {b} {c}" for a, b, c in zip(i[order].tolist(), j[order].tolist(),
                                                s[order].tolist())]
    return ("\n".join(lines) + ("\n" if lines else "")).encode()
