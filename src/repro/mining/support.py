"""Result containers for frequent pair mining."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.timer import PhaseTimer

__all__ = ["PairSupports", "MiningReport"]


@dataclass
class PairSupports:
    """Supports of item pairs, indexed by original item ids.

    ``counts`` is either the legacy dense matrix — ``counts[i, j]`` is the
    support of the pair ``{i, j}`` (symmetric), the diagonal holds
    single-item supports — or any square symmetric
    :class:`~repro.core.results.CountResult` (the sparse/pruned shapes the
    engines now produce).  Convenience accessors expose the thresholded
    pair dictionary, top-k queries and comparisons with reference results;
    all of them work off the triplet interface, so a sparse result never
    materialises its dense matrix here.
    """

    counts: object            #: dense ndarray or a square CountResult
    item_ids: np.ndarray      #: original item id of each row/column

    def __post_init__(self) -> None:
        from repro.core.results import CountResult

        if isinstance(self.counts, CountResult):
            if not self.counts.symmetric:
                raise ValueError("pair supports need a symmetric result")
        elif self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError("counts must be a square matrix")
        if self.item_ids.shape != (self.n_items,):
            raise ValueError("item_ids length must match the count matrix")

    @property
    def result(self):
        """The counts as a :class:`~repro.core.results.CountResult` view."""
        from repro.core.results import as_count_result

        return as_count_result(self.counts)

    @property
    def pruned_floor(self) -> int:
        """The ``min_support`` the counts were pruned under (0 = exact)."""
        from repro.core.results import CountResult

        if isinstance(self.counts, CountResult):
            return self.counts.min_support
        return 0

    @property
    def n_items(self) -> int:
        from repro.core.results import CountResult

        if isinstance(self.counts, CountResult):
            return self.counts.n_sets
        return int(self.counts.shape[0])

    def support(self, i: int, j: int) -> int:
        """Support of the pair of *original* item ids ``{i, j}`` (or of item ``i`` if i == j).

        For a pruned sparse result, pairs whose tiles were skipped report
        their partial (possibly zero) stored value — exact answers below
        the pruning floor require a dense or unpruned result.
        """
        from repro.core.results import CountResult, SparseCountResult

        a = self._local(i)
        b = self._local(j)
        if isinstance(self.counts, SparseCountResult):
            return self._sparse_lookup(min(a, b), max(a, b))
        if isinstance(self.counts, CountResult):
            return int(self.counts.matrix()[a, b])
        return int(self.counts[a, b])

    def _sparse_lookup(self, a: int, b: int) -> int:
        rows, cols = self.counts.rows, self.counts.cols
        lo = int(np.searchsorted(rows, a, side="left"))
        hi = int(np.searchsorted(rows, a, side="right"))
        pos = lo + int(np.searchsorted(cols[lo:hi], b, side="left"))
        if pos < hi and cols[pos] == b:
            return int(self.counts.values[pos])
        return 0

    def _local(self, original_id: int) -> int:
        hits = np.nonzero(self.item_ids == original_id)[0]
        if hits.size == 0:
            raise KeyError(f"item {original_id} is not present in the result")
        return int(hits[0])

    def pair_arrays(self, min_support: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All pairs (original ids, i < j) with support >= min_support.

        Returned as ``(i, j, support)`` ``int64`` arrays sorted by
        ``(i, j)``.  Exact for any threshold at or above the counts'
        pruning floor; a sparse result pruned at a higher floor refuses the
        filter (the skipped tiles would make the answer silently wrong).
        """
        from repro.core.results import CountResult

        if isinstance(self.counts, CountResult):
            a, b, values = self.counts.frequent_pairs(max(1, min_support))
        else:
            a, b = np.nonzero(np.triu(self.counts >= min_support, k=1))
            values = self.counts[a, b]
        i, j = self.item_ids[a], self.item_ids[b]
        i, j = np.minimum(i, j), np.maximum(i, j)
        order = np.lexsort((j, i))
        return (i[order].astype(np.int64), j[order].astype(np.int64),
                np.asarray(values, dtype=np.int64)[order])

    def frequent_pairs(self, min_support: int) -> dict[tuple[int, int], int]:
        """:meth:`pair_arrays` as a ``{(i, j): support}`` dictionary."""
        i, j, values = self.pair_arrays(min_support)
        return dict(zip(zip(i.tolist(), j.tolist()), values.tolist()))

    def top_k(self, k: int) -> list[tuple[tuple[int, int], int]]:
        """The ``k`` most supported pairs, descending by support (ties by item ids).

        A pruned result ranks only pairs at or above its floor — identical
        to the dense ranking truncated to that support range.
        """
        i, j, values = self.pair_arrays(max(1, self.pruned_floor))
        ranked = np.lexsort((j, i, -values))[:k].tolist()
        return [((int(i[r]), int(j[r])), int(values[r])) for r in ranked]

    def total_pairs_with_support(self, min_support: int) -> int:
        return int(self.pair_arrays(min_support)[0].size)


@dataclass
class MiningReport:
    """Full output of a batmap pair-mining run: results, timing, device statistics."""

    supports: PairSupports
    timers: PhaseTimer = field(default_factory=PhaseTimer)
    device_seconds: float = 0.0
    transfer_seconds: float = 0.0
    device_bytes: int = 0
    achieved_bandwidth_gbps: float = 0.0
    coalescing_efficiency: float = 1.0
    batmap_bytes: int = 0
    failed_insertions: int = 0
    tiles: int = 0
    #: Which engine produced the counts: "kernel" (the simulated device of
    #: compute="device"), "batch" (serial host engine — also the
    #: small-input fallback of compute="parallel"), "parallel"
    #: (multiprocess executor), "host" (per-pair reference — also the
    #: fallback for layouts the packed engines cannot represent), or
    #: "sharded(<inner>)" for the
    #: out-of-core pipeline (mine_stream), naming the engine its
    #: shard-pair rectangles ran on.
    count_backend: str = "kernel"
    #: Which engine built the batmap collection: "host" (serial per-element
    #: inserter), "bulk" (vectorized round-based engine) or "parallel"
    #: (multiprocess bulk builder).
    build_backend: str = "host"

    @property
    def preprocess_seconds(self) -> float:
        return self.timers.get("preprocess")

    @property
    def counting_seconds(self) -> float:
        """Pure pair-generation time (Figure 6's quantity).

        The modelled device phase for ``compute="device"`` runs; the
        wall-clock counting phase for every host backend (which records no
        device time).
        """
        return self.device_seconds if self.device_seconds > 0 else self.timers.get("count")

    @property
    def postprocess_seconds(self) -> float:
        return self.timers.get("postprocess")

    @property
    def total_seconds(self) -> float:
        """Total including pre- and postprocessing (Figure 7's quantity)."""
        return self.timers.total + self.device_seconds + self.transfer_seconds
