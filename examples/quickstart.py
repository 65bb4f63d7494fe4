#!/usr/bin/env python
"""Quickstart: build batmaps for a few sets and count their intersections.

This touches the three layers of the library in ~40 lines:

1. the core data structure (``build_batmap`` / ``count_common``),
2. a shared-family collection of many sets (``BatmapCollection``),
3. the simulated-GPU pair-count kernel (``run_batmap_pair_counts``).

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import BatmapCollection, build_batmap, count_common, exact_intersection_size
from repro.core.hashing import HashFamily
from repro.core.config import BatmapConfig
from repro.kernels.driver import run_batmap_pair_counts


def main() -> None:
    rng = np.random.default_rng(7)
    universe = 10_000  # element ids are transaction ids in {0, ..., m-1}

    # --- 1. two sets, one shared hash family, one intersection count --------
    config = BatmapConfig()
    family = HashFamily.create(universe, shift=config.shift_for_universe(universe), rng=0)
    set_a = np.sort(rng.choice(universe, size=1200, replace=False))
    set_b = np.sort(rng.choice(universe, size=800, replace=False))
    bm_a = build_batmap(set_a, universe, family=family)
    bm_b = build_batmap(set_b, universe, family=family)
    print(f"batmap A: {bm_a!r}")
    print(f"batmap B: {bm_b!r}")
    print(f"|A ∩ B| via batmaps : {count_common(bm_a, bm_b)}")
    print(f"|A ∩ B| exact       : {exact_intersection_size(set_a, set_b)}")

    # --- 2. many sets at once ------------------------------------------------
    sets = [np.sort(rng.choice(universe, size=int(s), replace=False))
            for s in rng.integers(100, 2000, size=12)]
    collection = BatmapCollection.build(sets, universe, rng=1)
    print(f"\ncollection of {len(collection)} sets, "
          f"{collection.memory_bytes / 1024:.1f} KiB of batmaps")
    print(f"|S_3 ∩ S_7| = {collection.count_pair(3, 7)}")

    # --- 3. every pairwise count through the simulated GPU kernel ------------
    result = run_batmap_pair_counts(collection, tile_size=512)
    print(f"\ndevice pass: {result.tiles} tile(s), "
          f"{result.total_device_bytes / 1e6:.2f} MB of global traffic, "
          f"modelled device time {result.device_seconds * 1e3:.3f} ms, "
          f"coalescing efficiency {result.coalescing_efficiency:.2f}")
    # result.counts is in width-sorted order; map one entry back:
    sorted_i, sorted_j = int(collection.rank[3]), int(collection.rank[7])
    print(f"device count for (3, 7): {result.counts[sorted_i, sorted_j]}")


if __name__ == "__main__":
    main()
