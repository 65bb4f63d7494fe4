#!/usr/bin/env python
"""Frequent pair mining: the paper's case study, end to end.

Generates a synthetic market-basket instance (the paper's generator: each of
``n`` items appears in a transaction with probability ``p`` until the target
instance size is reached), mines all frequent pairs with

* the batmap pipeline on the simulated GPU,
* FP-growth and Apriori (the paper's CPU competitors),

verifies that all three agree, and prints the phase breakdown and device
statistics the paper reports for its Figures 6 and 7.

Run with:  python examples/frequent_pair_mining.py
"""

import time

from repro.baselines import AprioriMiner, FPGrowthMiner
from repro.datasets import generate_density_instance
from repro.mining import BatmapPairMiner

N_ITEMS = 250
DENSITY = 0.05
TOTAL_ITEMS = 50_000
MIN_SUPPORT = 3


def main() -> None:
    db = generate_density_instance(N_ITEMS, DENSITY, TOTAL_ITEMS, rng=42)
    print(f"instance: {db.n_transactions} transactions, {db.n_items} items, "
          f"{db.total_items} occurrences, density {db.density:.3f}")

    # --- batmap pipeline on the simulated GTX 285 ----------------------------
    miner = BatmapPairMiner(compute="device", tile_size=1024)
    report = miner.mine(db, min_support=MIN_SUPPORT, rng=0)
    pairs_batmap = report.supports.frequent_pairs(MIN_SUPPORT)
    print("\n[batmap/GPU-sim]")
    print(f"  preprocessing (host)   : {report.preprocess_seconds:8.3f} s")
    print(f"  pair counting (device) : {report.counting_seconds:8.5f} s (modelled)")
    print(f"  transfers (PCIe model) : {report.transfer_seconds:8.5f} s")
    print(f"  postprocessing (host)  : {report.postprocess_seconds:8.3f} s")
    print(f"  batmap buffer          : {report.batmap_bytes / 1024:8.1f} KiB")
    print(f"  device traffic         : {report.device_bytes / 1e6:8.2f} MB, "
          f"coalescing {report.coalescing_efficiency:.2f}")
    print(f"  failed insertions      : {report.failed_insertions}")
    print(f"  frequent pairs found   : {len(pairs_batmap)}")

    # --- CPU baselines --------------------------------------------------------
    start = time.perf_counter()
    pairs_fp = FPGrowthMiner().mine_pairs(db.transactions, db.n_items, MIN_SUPPORT)
    t_fp = time.perf_counter() - start
    start = time.perf_counter()
    pairs_apriori = AprioriMiner().mine_pairs(db.transactions, db.n_items, MIN_SUPPORT)
    t_apriori = time.perf_counter() - start
    print("\n[CPU baselines]")
    print(f"  FP-growth : {t_fp:6.3f} s, {len(pairs_fp)} pairs")
    print(f"  Apriori   : {t_apriori:6.3f} s, {len(pairs_apriori)} pairs")

    assert pairs_batmap == pairs_fp == pairs_apriori, "miners disagree!"
    print("\nall three miners report identical frequent pairs ✓")

    top = report.supports.top_k(5)
    print("\nmost frequent pairs:")
    for (i, j), support in top:
        print(f"  items ({i:4d}, {j:4d})  support {support}")


if __name__ == "__main__":
    main()
