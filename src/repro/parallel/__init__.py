"""CPU parallelism: throughput / scaling models and the real threaded executor.

Two simulated models reproduce the paper's figures — multi-core SWAR
throughput (Fig. 11, :mod:`repro.parallel.cpu`) and split scaling (Fig. 9,
:mod:`repro.parallel.scaling`) — while :mod:`repro.parallel.executor` runs
tiled pair counting for real on a pool of threads over one packed buffer,
and :mod:`repro.parallel.sharded` counts spilled shard pairs.
Import from the submodules; the package itself loads nothing, so counting
never pulls in the device models.
"""
