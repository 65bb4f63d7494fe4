"""Host-side drivers that run the pair-count kernels over a tiled schedule.

These functions are the "GPU phase" of the mining pipeline: transfer the
packed data to the device once, loop over the upper-triangle tiles, launch
one kernel per tile, download each tile's result matrix ``Z_{p,q}`` and
assemble the full symmetric count matrix on the host.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.bitmap import BitmapIndex
from repro.core.collection import BatmapCollection
from repro.gpu.device import DeviceSpec, GTX_285
from repro.gpu.executor import GpuSimulator
from repro.kernels.bitmap_kernel import BitmapAndPopcountKernel
from repro.kernels.pair_count import PairCountKernel
from repro.kernels.tiling import TileScheduler, pad_to_multiple
from repro.utils.validation import require_positive

__all__ = ["DeviceRunResult", "run_batmap_pair_counts", "run_bitmap_pair_counts"]


@dataclass
class DeviceRunResult:
    """Counts plus the simulator that produced them (for stats and timing)."""

    counts: np.ndarray        #: (n, n) symmetric matrix of pair intersection counts
    simulator: GpuSimulator
    tiles: int

    @property
    def device_seconds(self) -> float:
        """Modelled kernel execution time on the device."""
        return self.simulator.totals.device_seconds

    @property
    def transfer_seconds(self) -> float:
        """Modelled host<->device transfer time."""
        return self.simulator.totals.transfer_seconds

    @property
    def total_device_bytes(self) -> int:
        return self.simulator.combined_stats().global_bytes_total

    @property
    def achieved_bandwidth_gbps(self) -> float:
        return self.simulator.achieved_bandwidth_bytes_per_second() / 1e9

    @property
    def coalescing_efficiency(self) -> float:
        return self.simulator.combined_stats().coalescing_efficiency


def run_batmap_pair_counts(
    collection: BatmapCollection,
    *,
    device: DeviceSpec = GTX_285,
    tile_size: int = 2048,
    work_group: tuple[int, int] = (16, 16),
    simulator: GpuSimulator | None = None,
) -> DeviceRunResult:
    """Compute every pairwise intersection count of a batmap collection on the simulator.

    Every tiled kernel launch is simulated work-group by work-group,
    recording the full traffic/coalescing statistics and the modelled
    device time — the modelling API behind the paper's figures.  Counts
    are bit-identical to the host engines
    (:meth:`~repro.core.collection.BatmapCollection.count_result`), which
    are the path to take when only the counts matter.

    The returned matrix is indexed by *sorted* batmap order (the device
    scheduling order); callers that need original indices should remap with
    ``collection.order`` — the mining pipeline does this in postprocessing.
    The simulator models the dense kernel only: every tile is launched, so
    pruned sparse results come from the host engines.
    """
    require_positive(tile_size, "tile_size")
    n = len(collection)
    sim = simulator or GpuSimulator(device)
    buffer = collection.device_buffer()
    sim.upload("batmaps", buffer.words)

    counts = np.zeros((n, n), dtype=np.int64)
    scheduler = TileScheduler(n, tile_size)
    for tile in scheduler:
        kernel = PairCountKernel(
            offsets=buffer.offsets,
            widths=buffer.widths,
            n_batmaps=n,
            row_base=tile.row_start,
            col_base=tile.col_start,
            tile_shape=(tile.rows, tile.cols),
        )
        kernel.local_size = tuple(work_group)
        sim.allocate("results", (tile.rows * tile.cols,), np.int64)
        global_size = (
            pad_to_multiple(tile.rows, work_group[0]),
            pad_to_multiple(tile.cols, work_group[1]),
        )
        sim.launch(kernel, global_size)
        z = sim.download("results").reshape(tile.rows, tile.cols)
        sim.free("results")
        counts[tile.row_start:tile.row_end, tile.col_start:tile.col_end] = z
        if not tile.is_diagonal:
            counts[tile.col_start:tile.col_end, tile.row_start:tile.row_end] = z.T
    return DeviceRunResult(counts=counts, simulator=sim, tiles=len(scheduler))


def run_bitmap_pair_counts(
    index: BitmapIndex,
    *,
    device: DeviceSpec = GTX_285,
    tile_size: int = 2048,
    work_group: tuple[int, int] = (16, 16),
    simulator: GpuSimulator | None = None,
) -> DeviceRunResult:
    """Same driver for the uncompressed-bitmap layout (the PBI baseline)."""
    require_positive(tile_size, "tile_size")
    n = index.n_sets
    sim = simulator or GpuSimulator(device)
    sim.upload("bitmaps", index.words.ravel())

    counts = np.zeros((n, n), dtype=np.int64)
    scheduler = TileScheduler(n, tile_size)
    for tile in scheduler:
        kernel = BitmapAndPopcountKernel(
            words_per_set=index.words_per_set,
            n_sets=n,
            row_base=tile.row_start,
            col_base=tile.col_start,
            tile_shape=(tile.rows, tile.cols),
        )
        kernel.local_size = tuple(work_group)
        sim.allocate("results", (tile.rows * tile.cols,), np.int64)
        global_size = (
            pad_to_multiple(tile.rows, work_group[0]),
            pad_to_multiple(tile.cols, work_group[1]),
        )
        sim.launch(kernel, global_size)
        z = sim.download("results").reshape(tile.rows, tile.cols)
        sim.free("results")
        counts[tile.row_start:tile.row_end, tile.col_start:tile.col_end] = z
        if not tile.is_diagonal:
            counts[tile.col_start:tile.col_end, tile.row_start:tile.row_end] = z.T
    return DeviceRunResult(counts=counts, simulator=sim, tiles=len(scheduler))
