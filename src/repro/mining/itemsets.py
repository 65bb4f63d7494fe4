"""General frequent itemset mining driven by the batmap pair engine.

The paper focuses on frequent *pair* mining and notes that "frequent itemset
mining in general ... reduces to efficient set intersection": once the
frequent pairs are known, larger itemsets can be found levelwise with far
smaller candidate sets.  This module provides that driver:

* level 1 and 2 come from the batmap pipeline (device-side pair counting);
* levels >= 3 use Apriori-style candidate generation *restricted to the
  pair-graph* (a candidate is only generated if all of its pairs are
  frequent), with supports counted by the vectorised bitmap engine of
  :mod:`repro.mining.levelwise` — one AND + popcount pass per level over the
  packed transaction bitmap, optionally on a pool of threads —
  instead of the per-transaction Python scan the seed shipped (kept there as
  :func:`~repro.mining.levelwise.scan_supports`, the correctness oracle).

Section V of the paper sketches two deeper generalisations of the batmap
itself (d-of-(d+1) layouts and per-item multi-way counting); those are
implemented in :mod:`repro.extensions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from repro.datasets.transactions import TransactionDatabase
from repro.mining.levelwise import (
    TransactionBitmap,
    count_candidate_supports,
    scan_supports,
)
from repro.mining.pair_mining import BatmapPairMiner
from repro.mining.support import MiningReport
from repro.utils.rng import RngLike
from repro.utils.validation import require

__all__ = ["ItemsetMiningResult", "BatmapItemsetMiner"]


@dataclass
class ItemsetMiningResult:
    """Frequent itemsets of every size, plus where their supports came from."""

    itemsets: dict[tuple[int, ...], int] = field(default_factory=dict)
    pair_phase_seconds: float = 0.0
    extension_levels: int = 0
    #: The pair phase's full report (count/build backends, phase timings);
    #: ``None`` only for hand-assembled results.
    pair_report: MiningReport | None = None

    def of_size(self, k: int) -> dict[tuple[int, ...], int]:
        return {key: value for key, value in self.itemsets.items() if len(key) == k}

    def max_size(self) -> int:
        return max((len(k) for k in self.itemsets), default=0)


class BatmapItemsetMiner:
    """Levelwise itemset miner seeded by device-side pair counts.

    Parameters
    ----------
    pair_miner:
        The pair pipeline producing levels 1 and 2 (its ``compute`` knob
        selects the pair-counting backend).
    max_size:
        Largest itemset size to mine; ``None`` mines until no candidates
        survive.
    level_compute:
        Support counter for levels >= 3: ``"auto"`` (the planner picks
        between the serial bitmap pass and the candidate fan-out),
        ``"batch"``, ``"parallel"``, or ``"scan"`` (the legacy
        per-transaction scan, kept as the correctness oracle).
    workers:
        Worker threads for the parallel levelwise path; ``None``
        auto-selects from the core count.
    """

    def __init__(self, pair_miner: BatmapPairMiner | None = None,
                 *, max_size: int | None = None,
                 level_compute: str = "auto",
                 workers: int | None = None) -> None:
        if max_size is not None:
            require(max_size >= 1, f"max_size must be >= 1, got {max_size}")
        require(level_compute in ("auto", "batch", "parallel", "scan"),
                f"level_compute must be 'auto', 'batch', 'parallel' or 'scan', "
                f"got {level_compute!r}")
        self.pair_miner = pair_miner or BatmapPairMiner()
        self.max_size = max_size
        self.level_compute = level_compute
        self.workers = workers

    def mine(
        self,
        database: TransactionDatabase,
        *,
        min_support: int,
        rng: RngLike = None,
    ) -> ItemsetMiningResult:
        require(min_support >= 1, f"min_support must be >= 1, got {min_support}")
        result = ItemsetMiningResult()

        report = self.pair_miner.mine(database, min_support=min_support, rng=rng)
        result.pair_phase_seconds = report.total_seconds
        result.pair_report = report

        # Level 1: item supports live on the diagonal of the repaired matrix.
        supports = report.supports
        for local in range(supports.n_items):
            support = int(supports.counts[local, local])
            if support >= min_support:
                result.itemsets[(int(supports.item_ids[local]),)] = support
        if self.max_size == 1:
            return result

        # Level 2: device-side pair counts.
        pairs = supports.frequent_pairs(min_support)
        result.itemsets.update({k: v for k, v in pairs.items()})
        if self.max_size == 2 or not pairs:
            return result

        # Levels >= 3: candidate join restricted to the frequent-pair graph,
        # supports from the packed transaction bitmap (built once, lazily).
        pair_set = set(pairs)
        current = sorted(pairs)
        k = 3
        bitmap: TransactionBitmap | None = None
        scan_sets: list[set] | None = None
        while current and (self.max_size is None or k <= self.max_size):
            candidates = self._generate_candidates(current, pair_set, k)
            if not candidates:
                break
            candidate_array = np.asarray(candidates, dtype=np.int64)
            if self.level_compute == "scan":
                if scan_sets is None:  # built once, shared by every level
                    scan_sets = [set(t.tolist()) for t in database.transactions]
                counts = scan_supports(scan_sets, candidate_array)
            else:
                if bitmap is None:
                    bitmap = TransactionBitmap.from_database(database)
                counts = count_candidate_supports(
                    bitmap, candidate_array,
                    compute=self.level_compute, workers=self.workers,
                )
            survivors = {c: int(s) for c, s in zip(candidates, counts.tolist())
                         if s >= min_support}
            result.itemsets.update(survivors)
            result.extension_levels += 1
            current = sorted(survivors)
            k += 1
        return result

    @staticmethod
    def _generate_candidates(
        frequent_prev: list[tuple[int, ...]],
        frequent_pairs: set[tuple[int, int]],
        k: int,
    ) -> list[tuple[int, ...]]:
        """Join (k-1)-itemsets sharing a prefix; require every contained pair frequent."""
        prev_set = set(frequent_prev)
        out: list[tuple[int, ...]] = []
        n = len(frequent_prev)
        for a_idx in range(n):
            a = frequent_prev[a_idx]
            for b_idx in range(a_idx + 1, n):
                b = frequent_prev[b_idx]
                if a[:-1] != b[:-1]:
                    break
                candidate = a + (b[-1],)
                if any(candidate[:i] + candidate[i + 1:] not in prev_set for i in range(k)):
                    continue
                if all(tuple(sorted(p)) in frequent_pairs
                       for p in combinations(candidate, 2)):
                    out.append(candidate)
        return out
