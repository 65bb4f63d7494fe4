"""The BATMAP core: data layout, construction and intersection counting.

Public entry points:

* :class:`~repro.core.config.BatmapConfig` — layout / construction knobs.
* :func:`~repro.core.batmap.build_batmap` — build one batmap.
* :class:`~repro.core.collection.BatmapCollection` — build and compare many
  sets sharing one hash family (the normal way to use the library).
* :func:`~repro.core.intersection.count_common` — intersection size of two
  batmaps.
* :class:`~repro.core.batch.BatchPairCounter` — vectorised all-pairs /
  pairs-list / top-k counting over a whole collection (the host hot path).
* :func:`~repro.core.plan.plan_counts` — the workload planner that picks a
  counting backend (host / batch / parallel / sharded) per request.
* :class:`~repro.core.sharded.ShardedCollection` — out-of-core collections:
  build shard by shard, spill packed buffers to disk, re-attach memory-mapped.
"""

from repro import _lazy

#: submodule -> the names it exports; each loads on first access (PEP 562),
#: so a command imports only the modules it runs.
__all__, __getattr__, __dir__ = _lazy(__name__, {
    "batmap": "Batmap build_batmap",
    "batch": "BatchPairCounter WidthClassIndex",
    "builder": "EMPTY Placement PlacementStats place_set",
    "collection": "BatmapCollection DeviceBuffer",
    "config": "BatmapConfig DEFAULT_CONFIG",
    "hashing": "HashFamily ArrayPermutation FeistelPermutation make_permutations",
    "intersection": "count_common count_common_bytes count_common_packed "
                    "exact_intersection_size",
    "plan": "CountPlan PlanFeatures plan_counts plan_levelwise",
    "swar": "count_matches count_matches_folded count_matches_per_word match_bits",
    "errors": "ReproError BatmapError InsertionFailure CapacityError LayoutError "
              "DeviceError KernelLaunchError SharedMemoryError DatasetError "
              "DataFormatError SpillFormatError",
    "sharded": "ShardedCollection ShardedCollectionBuilder",
})
