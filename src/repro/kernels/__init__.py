"""Device kernels for the GPU simulator.

* :class:`~repro.kernels.pair_count.PairCountKernel` — the paper's batmap
  comparison kernel (16x16 work groups, shared-memory staging, SWAR counting).
* :class:`~repro.kernels.bitmap_kernel.BitmapAndPopcountKernel` — the
  uncompressed-bitmap baseline (PBI layout) on the same execution model.
* :class:`~repro.kernels.tiling.TileScheduler` — k x k tiling with
  upper-triangle symmetry pruning (also used by the host executor).
* :mod:`~repro.kernels.driver` — host-side drivers assembling full pair-count
  matrices from tiled launches (the modelling API).

Import from the submodules; the package itself loads nothing, so the host
engines can use the tiling without importing the simulator.
"""
