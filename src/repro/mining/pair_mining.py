"""End-to-end frequent pair mining with batmaps.

This is the pipeline of Section III of the paper:

* **preprocess** (host): support filtering, vertical conversion, batmap
  construction, width sorting, device-buffer packing;
* **counting phase**: every pair count, through the planner-chosen engine
  (:meth:`~repro.core.collection.BatmapCollection.count_result`) — or, for
  modelling, the tiled pair-count kernel on the GPU simulator over the
  upper triangle of tiles;
* **postprocess** (host): add the repair contributions of failed
  insertions (:func:`~repro.mining.postprocess.repair_count_result`), and
  threshold.

The report separates the three phases the way the paper's figures do
(Figure 6 plots the counting phase alone, Figure 7 the total).
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import BatmapConfig, DEFAULT_CONFIG
from repro.core.plan import resolve_result_format
from repro.core.results import DenseCountResult
from repro.datasets.streaming import collect_transactions
from repro.datasets.transactions import TransactionDatabase
from repro.mining.postprocess import reorder_counts, repair_count_result
from repro.mining.preprocess import preprocess, preprocess_streaming
from repro.mining.support import MiningReport, PairSupports
from repro.utils.memory import parse_memory_size
from repro.utils.rng import RngLike
from repro.utils.timer import PhaseTimer
from repro.utils.validation import require

if TYPE_CHECKING:  # the simulator loads only on the compute="device" path
    from repro.gpu.device import DeviceSpec

__all__ = ["BatmapPairMiner", "DEFAULT_STREAM_BUDGET"]

#: Resident-set ceiling ``mine_stream`` uses when the caller names none —
#: generous enough that modest instances land in one shard, small enough
#: that a laptop never swaps.
DEFAULT_STREAM_BUDGET = 256 << 20


def _plain_counts(result):
    """``PairSupports.counts`` form of a result: dense runs keep the plain ndarray."""
    return result.matrix() if isinstance(result, DenseCountResult) else result


@dataclass
class BatmapPairMiner:
    """Frequent pair miner built on batmaps.

    Parameters
    ----------
    device:
        Device specification used by the simulator; ``None`` (default) is
        the paper's GTX 285.
    tile_size:
        Side length ``k`` of the device sub-problems (the paper uses 2048;
        smaller values keep individual simulated launches short).
    config:
        Batmap construction parameters.
    compute:
        Counting backend: ``"auto"`` (default) lets the workload planner
        (:func:`repro.core.plan.plan_counts`) pick; ``"host"`` is the
        per-pair reference (exact for every payload width); ``"batch"`` the
        serial vectorised engine (:mod:`repro.core.batch`); ``"parallel"``
        counts the same tiles on a pool of threads, falling back to the
        batch engine for small inputs.  All four are bit-identical and routed
        through :meth:`~repro.core.collection.BatmapCollection.count_result`.
        ``"device"`` is the modelling entry point: it runs the tiled
        pair-count kernel on the GPU simulator and reports its modelled
        timing and traffic statistics.  The simulator models the dense
        kernel only, so it refuses ``result_format="sparse"``.
    workers:
        Worker threads for the parallel backend; ``None`` auto-selects
        from the machine's core count.
    build_compute:
        Construction engine for the preprocessing phase (``"auto"``,
        ``"host"``, ``"bulk"`` or ``"parallel"``), routed through
        :func:`~repro.core.plan.plan_build`.  All engines produce
        collections with identical pair counts; the bulk engines make the
        preprocessing phase — the dominant cost once counting is fast —
        run vectorized instead of one element at a time.
    build_workers:
        Worker threads for ``build_compute="parallel"``; ``None``
        auto-selects (and falls back to ``workers``).
    result_format:
        Shape of the count results: ``"dense"`` (default — the legacy
        ``(n, n)`` matrix, byte-identical to every previous release),
        ``"sparse"`` (COO upper triangle; with the mining ``min_support``
        pushed into the engines as a tile-pruning floor), or ``"auto"``
        (sparse only when the dense matrix would not fit the run's memory
        budget — in-memory :meth:`mine` has no budget, so auto stays
        dense there).
    """

    device: DeviceSpec | None = None
    tile_size: int = 2048
    config: BatmapConfig = DEFAULT_CONFIG
    work_group: tuple[int, int] = (16, 16)
    compute: str = "auto"
    workers: int | None = None
    build_compute: str = "auto"
    build_workers: int | None = None
    result_format: str = "dense"

    def mine(
        self,
        database: TransactionDatabase,
        *,
        min_support: int = 1,
        rng: RngLike = None,
        filter_items: bool = True,
        result_format: str | None = None,
    ) -> MiningReport:
        """Compute the support of every item pair; return results plus phase timings.

        ``result_format`` overrides the miner-level default for this call.
        The sparse path threads ``min_support`` into the counting engines as
        a tile-pruning floor; ``frequent_pairs(min_support)`` on the result
        is exact (bit-identical to the dense pipeline filtered afterwards).
        """
        require(min_support >= 1, f"min_support must be >= 1, got {min_support}")
        require(self.compute in ("auto", "host", "batch", "parallel", "device"),
                f"compute must be 'auto', 'host', 'batch', 'parallel' or "
                f"'device', got {self.compute!r}")
        require(self.build_compute in ("auto", "host", "bulk", "parallel"),
                f"build_compute must be 'auto', 'host', 'bulk' or 'parallel', "
                f"got {self.build_compute!r}")
        requested_format = (result_format if result_format is not None
                            else self.result_format)
        # "auto" resolves dense below (no budget), so only an explicit
        # "sparse" can meet the simulator; refuse it before preprocessing.
        require(self.compute != "device" or requested_format != "sparse",
                "compute='device' models the dense kernel only; request "
                "result_format='sparse' from a host compute mode")
        timers = PhaseTimer()

        with timers.time("preprocess"):
            pre = preprocess(
                database,
                min_support=min_support,
                config=self.config,
                rng=rng,
                filter_items=filter_items,
                build_compute=self.build_compute,
                build_workers=(self.build_workers if self.build_workers is not None
                               else self.workers),
            )

        # In-memory mining has no spill budget, so "auto" resolves dense —
        # the byte-identical legacy pipeline.
        fmt = resolve_result_format(requested_format, len(pre.collection), None)

        # Sparse results take the mining min_support into the engines as a
        # tile-pruning floor (dense results compute every count).
        run = None
        if self.compute == "device":
            # Modelling only: the simulator's analytic device time stands in
            # for the counting phase (see MiningReport.counting_seconds).
            from repro.gpu.device import GTX_285
            from repro.kernels.driver import run_batmap_pair_counts

            backend = "kernel"
            run = run_batmap_pair_counts(
                pre.collection,
                device=self.device if self.device is not None else GTX_285,
                tile_size=self.tile_size,
                work_group=self.work_group,
            )
            with timers.time("postprocess"):
                result = DenseCountResult(reorder_counts(run.counts, pre.collection))
        else:
            with timers.time("count"):
                result = pre.collection.count_result(
                    compute=self.compute, workers=self.workers,
                    result_format=fmt, min_support=min_support)
            backend = result.stats["count_backend"]

        with timers.time("postprocess"):
            # The database's row views are built only when repair needs them.
            failures = pre.failed_insertions()
            if failures:
                result = repair_count_result(result, failures,
                                             pre.database.transactions)
            supports = PairSupports(counts=_plain_counts(result),
                                    item_ids=pre.item_map)

        return MiningReport(
            supports=supports,
            timers=timers,
            device_seconds=run.device_seconds if run else 0.0,
            transfer_seconds=run.transfer_seconds if run else 0.0,
            device_bytes=run.total_device_bytes if run else 0,
            achieved_bandwidth_gbps=run.achieved_bandwidth_gbps if run else 0.0,
            coalescing_efficiency=run.coalescing_efficiency if run else 1.0,
            batmap_bytes=pre.batmap_bytes,
            failed_insertions=sum(len(v) for v in failures.values()),
            tiles=run.tiles if run else 0,
            count_backend=backend,
            build_backend=(pre.collection.build_plan.backend
                           if pre.collection.build_plan else "host"),
        )

    def mine_stream(
        self,
        source,
        *,
        min_support: int = 1,
        rng: RngLike = None,
        filter_items: bool = True,
        memory_budget=None,
        spill_dir=None,
        max_transactions: int | None = None,
        result_format: str | None = None,
    ) -> MiningReport:
        """Mine frequent pairs out-of-core from a FIMI stream on disk.

        The database is never fully resident: preprocessing streams the file
        (:func:`~repro.mining.preprocess.preprocess_streaming`), construction
        spills packed shards sized to ``memory_budget`` (a byte count or a
        string like ``"64M"``; default :data:`DEFAULT_STREAM_BUDGET`), and
        counting streams shard-pair rectangles through the batch/parallel
        engines.  Results are **bit-identical** to :meth:`mine` on the
        in-memory database read from the same file.

        ``spill_dir`` keeps the shard spill at a caller-chosen path (and
        leaves it behind for re-attach); by default a temporary directory
        is used and removed when mining finishes.  ``compute="device"`` is
        rejected — the simulated device models an in-memory buffer — and
        ``"host"`` runs on the batch engine, the sharded counter's exact
        serial path.

        ``result_format`` (default: the miner field) controls the count
        result shape.  ``"auto"`` compares the dense matrix footprint
        (``n**2 * 8`` bytes) against ``memory_budget`` once the kept item
        count is known and demotes to sparse when it would not fit — the
        path that lets workloads whose *result* outgrows the budget finish.
        The sparse path prunes shard-pair tiles against the exact item
        supports gathered during preprocessing.
        """
        require(min_support >= 1, f"min_support must be >= 1, got {min_support}")
        require(self.compute in ("auto", "host", "batch", "parallel"),
                "streaming mining supports compute 'auto', 'host', 'batch' or "
                f"'parallel'; got {self.compute!r} (the simulated device needs "
                "the whole buffer resident)")
        budget = parse_memory_size(
            memory_budget if memory_budget is not None else DEFAULT_STREAM_BUDGET)
        timers = PhaseTimer()
        cleanup = spill_dir is None
        spill = Path(spill_dir) if spill_dir is not None else Path(
            tempfile.mkdtemp(prefix="repro-shards-"))
        try:
            with timers.time("preprocess"):
                pre = preprocess_streaming(
                    source,
                    spill,
                    memory_budget=budget,
                    min_support=min_support,
                    config=self.config,
                    rng=rng,
                    filter_items=filter_items,
                    build_compute=self.build_compute,
                    build_workers=(self.build_workers
                                   if self.build_workers is not None
                                   else self.workers),
                    max_transactions=max_transactions,
                    result_format=(result_format if result_format is not None
                                   else self.result_format),
                )
            from repro.parallel.sharded import ShardedPairCounter

            counter = ShardedPairCounter(
                pre.collection,
                compute=self.compute,
                workers=self.workers,
                memory_budget=budget,
                result_format=pre.result_format,
                min_support=min_support if pre.result_format == "sparse" else 0,
            )
            with timers.time("count"):
                # Exact per-item supports (known from the streaming pass)
                # bound every pair's post-repair support — the tightest
                # sound tile-pruning input (dense results ignore it).
                counts = counter.count_result(bounds=pre.item_support_bounds)

            with timers.time("postprocess"):
                failures = pre.failed_insertions()
                if failures:
                    remap = -np.ones(max(1, pre.stats.n_items), dtype=np.int64)
                    remap[pre.item_map] = np.arange(pre.item_map.size)
                    raw = collect_transactions(pre.source, failures.keys(),
                                               max_transactions=max_transactions)
                    transactions = {}
                    for tid, items in raw.items():
                        mapped = remap[items]
                        transactions[tid] = np.sort(mapped[mapped >= 0])
                    counts = repair_count_result(counts, failures, transactions)
                supports = PairSupports(counts=_plain_counts(counts),
                                        item_ids=pre.item_map)

            n_failed = sum(len(v) for v in failures.values())
            shards = pre.collection.shards
            return MiningReport(
                supports=supports,
                timers=timers,
                batmap_bytes=pre.batmap_bytes,
                failed_insertions=n_failed,
                count_backend=f"sharded({counter.plan.backend})",
                build_backend=f"sharded({shards[0].build_backend})",
            )
        finally:
            if cleanup:
                shutil.rmtree(spill, ignore_errors=True)

    def mine_pairs(
        self,
        transactions,
        n_items: int,
        min_support: int,
        *,
        rng: RngLike = None,
    ) -> dict[tuple[int, int], int]:
        """Drop-in counterpart of the baselines' ``mine_pairs`` API."""
        db = transactions if isinstance(transactions, TransactionDatabase) else (
            TransactionDatabase(transactions=list(transactions), n_items=n_items)
        )
        report = self.mine(db, min_support=min_support, rng=rng)
        return report.supports.frequent_pairs(min_support)
