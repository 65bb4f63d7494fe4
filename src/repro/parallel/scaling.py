"""Simulated multi-core scaling of the CPU miners (Figure 9).

The paper simulates parallel execution of Apriori and FP-growth on ``i``
cores by splitting the instance into ``i`` equal parts, running the miner on
each part independently and taking the *maximum* part time as the parallel
execution time.  Neither algorithm benefits noticeably from more than four
cores: per-part fixed costs (Apriori's quadratic candidate structure, tree
construction overheads) do not shrink with the split, and the final merge of
per-part counts is serial.

The simulated makespan therefore has **two** terms::

    seconds = max(part_seconds) + merge_seconds

The parts run concurrently (max), but combining the per-part support counts
into one result is a serial reduction that every parallel run must pay, and
it *grows* with the number of parts.  Modelling only the max — as a naive
reading of the methodology suggests — lets per-part superlinearities (small
FP-trees, cache effects) produce impossible super-linear "speed-ups"; the
measured merge term is what caps the curve below linear, matching the
paper's observation that the serial fraction limits multi-core benefit.

:func:`measure_split_scaling` reproduces that methodology for any miner
callable; :func:`relative_speedups` turns the times into the speedup curve
plotted in the figure.  See EXPERIMENTS.md E5 for the methodology record.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.datasets.transactions import TransactionDatabase
from repro.utils.validation import require, require_positive

__all__ = [
    "ScalingPoint",
    "measure_split_scaling",
    "merge_part_counts",
    "relative_speedups",
]

#: A miner callable: (transactions, n_items, min_support) -> anything.
MinerFn = Callable[[list, int, int], object]

#: A merge callable: sequence of per-part miner results -> combined result.
MergeFn = Callable[[Sequence[object]], object]


@dataclass(frozen=True)
class ScalingPoint:
    """Timing of one simulated core count."""

    cores: int
    seconds: float          #: simulated makespan: max part time + serial merge
    part_seconds: tuple[float, ...]
    merge_seconds: float = 0.0

    @property
    def parallel_seconds(self) -> float:
        """The concurrent phase alone: the maximum per-part time."""
        return max(self.part_seconds)

    @property
    def imbalance(self) -> float:
        """Max/mean part time — 1.0 means perfectly balanced parts."""
        mean = sum(self.part_seconds) / len(self.part_seconds)
        return self.parallel_seconds / mean if mean > 0 else 1.0


def _count_items(result: object) -> Iterable[tuple[object, int]]:
    """Extract ``(key, count)`` pairs from one per-part miner result.

    Handles the two shapes the miners produce: plain count dicts
    (``mine_pairs``) and result objects exposing an ``itemsets`` dict
    (:class:`~repro.baselines.apriori.AprioriResult` and friends).  Any other
    type raises: silently merging nothing would zero the serial-merge term
    and quietly reinstate the super-linear-speedup artifact this model
    exists to prevent — callers with exotic result shapes must pass their
    own ``merge`` callable to :func:`measure_split_scaling`.
    """
    if isinstance(result, dict):
        return result.items()
    itemsets = getattr(result, "itemsets", None)
    if isinstance(itemsets, dict):
        return itemsets.items()
    raise TypeError(
        f"cannot extract counts from a miner result of type {type(result).__name__}; "
        "return a count dict / itemsets object or pass merge= explicitly"
    )


def merge_part_counts(results: Sequence[object]) -> dict:
    """Serially reduce per-part support counts into one combined dict.

    This is the work the final (serial) phase of a real split-parallel run
    performs: every key of every part is folded into the global table, so the
    cost grows with the number of parts times the per-part result size.
    """
    merged: dict = {}
    for result in results:
        for key, value in _count_items(result):
            merged[key] = merged.get(key, 0) + value
    return merged


def measure_split_scaling(
    miner: MinerFn,
    database: TransactionDatabase,
    min_support: int,
    core_counts: Sequence[int] = (1, 2, 4, 8),
    *,
    repeats: int = 1,
    merge: MergeFn | None = None,
) -> list[ScalingPoint]:
    """Run ``miner`` on instance splits and report the simulated parallel times.

    Each simulated core count runs the miner once per part (best of
    ``repeats``), then *measures* the serial merge of the per-part results
    (best of ``repeats``); the point's :attr:`~ScalingPoint.seconds` is
    ``max(part_seconds) + merge_seconds``.  Pass ``merge`` to override the
    default count-dict reduction (:func:`merge_part_counts`).

    With ``repeats > 1`` the repeats are the *outer* loop — every core count
    is sampled in every time window — so slow background-load drift hits all
    configurations alike instead of biasing whichever point happened to run
    during a busy stretch (which can fabricate super-linear speed-ups).
    The caller's heap is frozen out of the cyclic garbage collector while
    measuring: a full collection walks every tracked object, so one landing
    in a part's window would otherwise charge that part for whatever else
    the process holds.
    """
    require_positive(min_support, "min_support")
    require_positive(repeats, "repeats")
    require(len(core_counts) > 0, "core_counts must not be empty")
    for cores in core_counts:
        require_positive(cores, "cores")
    merge_fn = merge_part_counts if merge is None else merge

    splits = {cores: database.split(cores) for cores in core_counts}
    best_times: dict[int, list[float]] = {c: [float("inf")] * c for c in core_counts}
    best_results: dict[int, list[object]] = {c: [None] * c for c in core_counts}
    points: list[ScalingPoint] = []
    gc.freeze()
    try:
        for _ in range(repeats):
            for cores in core_counts:
                for k, part in enumerate(splits[cores]):
                    start = time.perf_counter()
                    result = miner(part.transactions, part.n_items, min_support)
                    elapsed = time.perf_counter() - start
                    if elapsed < best_times[cores][k]:
                        best_times[cores][k] = elapsed
                        best_results[cores][k] = result

        for cores in core_counts:
            merge_best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                merge_fn(best_results[cores])
                merge_best = min(merge_best, time.perf_counter() - start)
            points.append(ScalingPoint(
                cores=cores,
                seconds=max(best_times[cores]) + merge_best,
                part_seconds=tuple(best_times[cores]),
                merge_seconds=merge_best,
            ))
    finally:
        gc.unfreeze()
    return points


def relative_speedups(points: Sequence[ScalingPoint]) -> dict[int, float]:
    """Speedup of every point relative to the single-core (or smallest) run."""
    require(len(points) > 0, "points must not be empty")
    baseline = min(points, key=lambda p: p.cores)
    return {p.cores: baseline.seconds / p.seconds if p.seconds > 0 else float("inf")
            for p in points}
