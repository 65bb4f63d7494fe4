#!/usr/bin/env python
"""WebDocs-style prefix scaling (the paper's Figure 10 scenario).

The WebDocs dataset's defining difficulty is that its vocabulary (number of
distinct items) keeps growing as more documents are read.  This example uses
the library's WebDocs surrogate to show how each miner copes as the prefix —
and with it the number of distinct items — grows.

Run with:  python examples/webdocs_prefix_scaling.py
"""

import time

from repro.baselines import AprioriMiner, FPGrowthMiner
from repro.datasets import generate_webdocs_like, vocabulary_growth
from repro.mining import BatmapPairMiner

PREFIXES = [30, 60, 120]
MIN_SUPPORT = 2


def main() -> None:
    base = generate_webdocs_like(max(PREFIXES), vocabulary_size=10_000,
                                 mean_length=40.0, rng=0)
    growth = dict(vocabulary_growth(base, PREFIXES))
    print("prefix  distinct-items")
    for size in PREFIXES:
        print(f"{size:6d}  {growth[size]:8d}")

    print("\nprefix |  apriori_s | fpgrowth_s | batmap_total_s | batmap_device_s | pairs")
    for size in PREFIXES:
        db, _ = base.prefix(size).filter_by_support(MIN_SUPPORT)

        start = time.perf_counter()
        apriori_pairs = AprioriMiner().mine_pairs(db.transactions, db.n_items, MIN_SUPPORT)
        t_apriori = time.perf_counter() - start

        start = time.perf_counter()
        fp_pairs = FPGrowthMiner().mine_pairs(db.transactions, db.n_items, MIN_SUPPORT)
        t_fp = time.perf_counter() - start

        miner = BatmapPairMiner(compute="device", tile_size=1024)
        report = miner.mine(db, min_support=MIN_SUPPORT, rng=0)
        batmap_pairs = report.supports.frequent_pairs(MIN_SUPPORT)

        assert apriori_pairs == fp_pairs == batmap_pairs
        print(f"{size:6d} | {t_apriori:10.3f} | {t_fp:10.3f} | "
              f"{report.total_seconds:14.3f} | {report.counting_seconds:15.5f} | "
              f"{len(batmap_pairs):5d}")

    print("\n(all miners agree on every prefix ✓; batmap_device_s is the modelled GPU time)")


if __name__ == "__main__":
    main()
