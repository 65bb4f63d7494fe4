"""A deterministic OpenCL-style GPU simulator.

The paper evaluates batmaps on a GeForce GTX 285 through PyOpenCL.  This
environment has no GPU, so the package provides the substrate described in
DESIGN.md: device specifications (:mod:`repro.gpu.device`), global/shared
memory models with coalescing analysis (:mod:`repro.gpu.memory`,
:mod:`repro.gpu.coalescing`), a kernel/work-group execution model
(:mod:`repro.gpu.kernel`, :mod:`repro.gpu.executor`) and an analytic timing
model (:mod:`repro.gpu.timing`).  Kernels run vectorised over work groups, so
results are exact while byte counts, transaction counts and modelled device
times quantify the regularity properties the paper's argument rests on.

Import from the submodules; the package itself loads nothing.
"""
