"""Workload planner: pick a counting backend per request, not per call site.

Three interchangeable pair-counting engines exist — the per-pair host
reference (:func:`repro.core.intersection.count_common`), the serial
vectorised batch engine (:class:`repro.core.batch.BatchPairCounter`) and the
same engine on a pool of threads
(:class:`repro.parallel.executor.ParallelPairCounter`).
:func:`plan_counts` inspects the request — collection size, packed width
mix, available cores, and (when known) how many pairs the query touches —
and returns a :class:`CountPlan` naming the backend to run;
:meth:`repro.core.collection.BatmapCollection.count_result` is the one place
that maps the plan to an engine.  The policy, in order:

1. **Layout gates** — sub-word ranges (``r0 < 4``) or entries wider than one
   byte (``payload_bits > 7``) cannot use the packed SWAR engines; only the
   per-pair ``host`` reference is exact there.  Explicit ``batch`` and
   ``parallel`` requests are demoted to ``host`` by the same gate.
2. **Point queries** stay on ``host``: a handful of pairs never amortises
   gathering the packed buffer into width-class matrices.
3. **Small collections** (below :data:`PARALLEL_MIN_SETS`) or single-core
   hosts run the serial ``batch`` engine — too few tiles to keep two
   threads busy.
4. **No compiled kernel**: when :func:`repro.core.swar_kernel.kernel_status`
   is not ``"native"`` the NumPy fallback holds the GIL for much of its
   work, so threads cannot pay and ``parallel`` is never chosen.
5. Everything else runs on ``parallel`` threads.

The GPU simulator is not a planner backend: it models a device, it does not
serve requests, and it is reached only through the explicit modelling API
(:func:`repro.kernels.driver.run_batmap_pair_counts`,
``BatmapPairMiner(compute="device")``).

The executor's pay-off floor and worker cap remain defined in
:mod:`repro.parallel.executor` (tests monkeypatch them there); this module
reads them lazily at plan time, because ``repro.parallel`` sits above the
core layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import require

__all__ = [
    "BACKENDS",
    "RESULT_FORMATS",
    "BUILD_BACKENDS",
    "SHARD_FANOUT_MIN",
    "HOST_MAX_PAIRS",
    "PlanFeatures",
    "CountPlan",
    "BuildPlan",
    "plan_counts",
    "plan_levelwise",
    "plan_build",
    "resolve_result_format",
    "BULK_BUILD_MIN_ELEMENTS",
    "PARALLEL_BUILD_MIN_SETS",
    "PARALLEL_BUILD_MIN_ELEMENTS",
]

#: Backends a plan can name, slowest-setup-last.  ``"sharded"`` is the
#: out-of-core pipeline (:mod:`repro.core.sharded`): never auto-selected
#: unless a resident-set ``memory_budget`` is given and the packed buffer
#: would not fit under it.
BACKENDS = ("host", "batch", "parallel", "sharded")

#: Shard count at which shard-pair amplification dominates the counting
#: shape: ``k`` shards mean ``k*(k+1)/2`` rectangles, each attaching its own
#: mmaps.  Delta-shard ingest grows ``k`` between compactions, so a build
#: that appends past it recommends compaction (:func:`plan_build`).
SHARD_FANOUT_MIN = 8

#: Explicit pair lists at or below this size stay on the per-pair host
#: reference unless a batch engine has already been built for the collection.
HOST_MAX_PAIRS = 16

#: Result formats the planner can resolve.  ``"dense"`` is the historical
#: ``n x n`` int64 matrix (kept as the oracle); ``"sparse"`` is the COO
#: :class:`~repro.core.results.SparseCountResult`; ``"auto"`` picks sparse
#: exactly when the dense result matrix itself would not fit under the
#: resident-set ``memory_budget``.
RESULT_FORMATS = ("auto", "dense", "sparse")

#: Bytes per dense result entry (int64) — the auto-demotion gate's constant.
RESULT_ENTRY_BYTES = 8


def resolve_result_format(
    requested: str,
    n_sets: int,
    memory_budget: int | None = None,
) -> str:
    """Resolve a requested result format to a concrete one.

    ``"auto"`` demotes dense to sparse when the dense result matrix alone
    (``n_sets**2 * 8`` bytes) exceeds the resident-set budget — the
    output-side analogue of the packed-buffer gate that demotes counting to
    the sharded pipeline.  Without a budget, ``"auto"`` means ``"dense"``
    (full back-compatibility for existing callers).
    """
    require(requested in RESULT_FORMATS,
            f"result_format must be one of {RESULT_FORMATS}, got {requested!r}")
    if requested != "auto":
        return requested
    if (memory_budget is not None
            and RESULT_ENTRY_BYTES * n_sets * n_sets > memory_budget):
        return "sparse"
    return "dense"


def _executor_policy():
    """Pay-off floor and worker resolution, read lazily from the executor.

    Deferred import for two reasons: ``repro.parallel`` sits above the core
    layer, and the regression tests monkeypatch
    ``repro.parallel.executor.PARALLEL_MIN_SETS`` — reading the attribute at
    plan time keeps those patches effective.
    """
    from repro.parallel import executor

    return executor.PARALLEL_MIN_SETS, executor.resolve_worker_count


def _threads_blocked() -> str | None:
    """Why threads cannot pay on this process's kernel, or ``None`` when they can.

    Only the compiled kernel releases the GIL for a whole tile; the NumPy
    fallback holds it for much of its work.  Resolving the status loads the
    kernel, so this is asked only once a plan would otherwise use threads.
    """
    from repro.core.swar_kernel import kernel_status

    status = kernel_status()
    return None if status == "native" else f"the SWAR kernel is {status}"


@dataclass(frozen=True)
class PlanFeatures:
    """The problem-shape summary the planner decides from.

    Built from a collection with :meth:`from_collection`; constructed
    directly in tests (and by callers that know the shape without building
    batmaps, e.g. capacity planning).
    """

    n_sets: int            #: number of sets in the collection
    total_words: int       #: sum of packed row widths over all sets
    r0: int                #: smallest hash range present
    byte_entries: bool     #: True when entries occupy one byte (SWAR-packable)
    cached_engine: bool = False  #: a BatchPairCounter already exists
    n_shards: int = 1      #: spilled shards backing the collection (1 = in-memory)
    result_format: str = "auto"  #: requested result format (one of RESULT_FORMATS)
    min_support: int = 0   #: pruning floor known at plan time (0 = no pruning)

    @classmethod
    def from_collection(cls, collection, *, result_format: str = "auto",
                        min_support: int = 0) -> "PlanFeatures":
        """Summarise a built :class:`~repro.core.collection.BatmapCollection`."""
        # Widths come from the batmap ranges directly (3*r entries / 4 per
        # word) — building the packed device buffer is not needed to plan.
        total_words = sum(3 * bm.r // 4 for bm in collection.batmaps_sorted)
        return cls(
            n_sets=len(collection),
            total_words=int(total_words),
            r0=collection.r0,
            byte_entries=collection.config.entry_storage_bits == 8,
            cached_engine=collection.has_batch_counter(),
            result_format=result_format,
            min_support=min_support,
        )

    @property
    def packed_bytes(self) -> int:
        """Bytes of the packed device buffer — the in-memory engines' resident floor."""
        return 4 * self.total_words


@dataclass(frozen=True)
class CountPlan:
    """The planner's verdict: which engine to run and with how many workers."""

    backend: str   #: one of :data:`BACKENDS`
    workers: int   #: resolved worker count (1 for the serial backends)
    reason: str    #: one-line explanation, surfaced by the CLI
    result_format: str = "dense"  #: resolved concrete format ("dense" | "sparse")
    min_support: int = 0          #: pruning floor the engines should apply

    def __post_init__(self) -> None:
        require(self.backend in BACKENDS,
                f"backend must be one of {BACKENDS}, got {self.backend!r}")
        require(self.result_format in ("dense", "sparse"),
                f"resolved result_format must be 'dense' or 'sparse', "
                f"got {self.result_format!r}")


def plan_counts(
    features,
    *,
    requested: str = "auto",
    workers: int | None = None,
    n_pairs: int | None = None,
    memory_budget: int | None = None,
) -> CountPlan:
    """Choose the counting backend for one request.

    Parameters
    ----------
    features:
        A :class:`PlanFeatures` or a :class:`~repro.core.collection.BatmapCollection`.
    requested:
        ``"auto"`` applies the full policy.  An explicit backend name is
        honoured, with two demotions: ``"batch"`` and ``"parallel"`` drop
        to ``"host"`` on layouts the packed engines cannot represent, and
        ``"parallel"`` drops to ``"batch"`` when threads cannot pay off
        (single worker, below the executor's set floor, or no compiled
        kernel).
    workers:
        Worker count for the parallel backend; ``None`` auto-selects from
        the core count (capped by the executor policy).
    n_pairs:
        Number of pairs the query touches, when the caller knows it (point
        queries and explicit pair lists); ``None`` means an all-pairs-sized
        workload.
    memory_budget:
        Resident-set ceiling in bytes.  When set, any workload whose packed
        buffer exceeds it demotes to the ``"sharded"`` out-of-core pipeline
        (byte-packable layouts only — sub-word and wide-entry layouts stay
        on the per-pair reference, which never materialises the buffer).
        It also feeds the *result-format* gate: a ``features.result_format``
        of ``"auto"`` resolves to ``"sparse"`` when the dense result matrix
        (``n_sets**2 * 8`` bytes) would not fit under the budget.
        ``None`` (the default) disables both gates entirely.
    """
    if not isinstance(features, PlanFeatures):
        features = PlanFeatures.from_collection(features)
    require(requested == "auto" or requested in BACKENDS,
            f"requested must be 'auto' or one of {BACKENDS}, got {requested!r}")
    require(features.min_support >= 0,
            f"min_support must be >= 0, got {features.min_support}")
    min_sets, resolve_workers = _executor_policy()
    n_workers = resolve_workers(workers)
    fmt = resolve_result_format(features.result_format, features.n_sets,
                                memory_budget)

    def plan(backend: str, plan_workers: int, reason: str) -> CountPlan:
        return CountPlan(backend, plan_workers, reason, result_format=fmt,
                         min_support=features.min_support)

    packable = features.byte_entries and features.r0 >= 4
    if requested == "host":
        return plan("host", 1, "per-pair host reference requested")
    if requested in ("batch", "parallel") and not packable:
        return plan(
            "host", 1,
            f"{requested} requested but entries are not byte-packable or "
            "ranges are sub-word; only the per-pair reference is exact",
        )
    if requested == "batch":
        return plan("batch", 1, "serial batch engine requested")
    if requested == "sharded":
        return plan("sharded", n_workers, "out-of-core sharded pipeline requested")
    if requested == "parallel":
        if n_workers < 2:
            return plan("batch", 1, "parallel requested but only one worker available")
        if features.n_sets < min_sets:
            return plan(
                "batch", 1,
                f"parallel requested but {features.n_sets} sets is below the "
                f"thread pay-off floor ({min_sets})",
            )
        blocked = _threads_blocked()
        if blocked:
            return plan("batch", 1, f"parallel requested but {blocked}")
        return plan("parallel", n_workers, "parallel requested")

    # --- auto policy ---------------------------------------------------- #
    if not packable:
        return plan(
            "host", 1,
            "entries are not byte-packable or ranges are sub-word; only the "
            "per-pair reference is exact",
        )
    if memory_budget is not None and features.packed_bytes > memory_budget:
        return plan(
            "sharded", n_workers,
            f"packed buffer ({features.packed_bytes} B) exceeds the "
            f"resident-set budget ({memory_budget} B)",
        )
    if n_pairs is not None and n_pairs <= HOST_MAX_PAIRS:
        if features.cached_engine:
            return plan("batch", 1,
                        "point query on an already-built batch engine")
        return plan(
            "host", 1,
            f"{n_pairs} pair(s) never amortise gathering the packed buffer",
        )
    if n_workers < 2:
        return plan("batch", 1, "single worker available")
    if features.n_sets < min_sets:
        return plan(
            "batch", 1,
            f"{features.n_sets} sets is below the thread pay-off floor ({min_sets})",
        )
    blocked = _threads_blocked()
    if blocked:
        return plan("batch", 1, f"{blocked}; threads cannot overlap its tiles")
    reason = f"{features.n_sets} sets across {n_workers} threads"
    if features.n_shards > 1:
        rectangles = features.n_shards * (features.n_shards + 1) // 2
        reason += f" ({features.n_shards} shards, {rectangles} shard-pair rectangles)"
    return plan("parallel", n_workers, reason)


# --------------------------------------------------------------------------- #
# Construction (bulk-build) planning
# --------------------------------------------------------------------------- #

#: Backends for collection construction: the per-element serial inserter
#: (the oracle), the round-based vectorized bulk engine
#: (:mod:`repro.core.bulk_build`), the same engine with its chunks on a
#: pool of threads, and the out-of-core sharded builder
#: (:mod:`repro.core.sharded`) that spills each shard to disk.
BUILD_BACKENDS = ("host", "bulk", "parallel", "sharded")

#: Total deduplicated elements below which construction stays on the serial
#: per-element inserter.  Not a speed floor: even at this size the bulk
#: engine builds 3-10x faster (E22), because the serial path encodes every
#: set on its own.  The floor keeps small builds on the oracle, so their
#: placements stay bit-identical to the seed's (pair counts are identical
#: on either engine).
BULK_BUILD_MIN_ELEMENTS = 2048

#: Set-count floor for the threaded bulk builder: enough sets to cut into
#: two chunks per thread.  In the E23 grid (two threads) 100 sets already
#: built 10% faster on threads; the element floor below binds first.
PARALLEL_BUILD_MIN_SETS = 64

#: Element floor for the threaded bulk builder.  Threads share the sets
#: and write their own chunks, so nothing is shipped.  In the E23 grid
#: they tied the in-process engine between 0.05M and 0.2M elements
#: (0.84-1.09x) and won from 0.3M elements on (0.57-0.75x).
PARALLEL_BUILD_MIN_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class BuildPlan:
    """The construction planner's verdict: which build engine to run."""

    backend: str   #: one of :data:`BUILD_BACKENDS`
    workers: int   #: resolved worker count (1 for the serial backends)
    reason: str    #: one-line explanation, surfaced by the CLI

    def __post_init__(self) -> None:
        require(self.backend in BUILD_BACKENDS,
                f"backend must be one of {BUILD_BACKENDS}, got {self.backend!r}")


def plan_build(
    n_sets: int,
    total_elements: int,
    *,
    requested: str = "auto",
    workers: int | None = None,
    memory_budget: int | None = None,
    packed_bytes: int | None = None,
    n_existing_shards: int = 0,
) -> BuildPlan:
    """Choose the construction backend for one collection build.

    Parameters
    ----------
    n_sets / total_elements:
        The collection shape: number of sets and the sum of their
        deduplicated sizes (known before any batmap exists).
    requested:
        ``"auto"`` applies the policy below.  Explicit names are honoured,
        with the same demotion rule the counting planner uses:
        ``"parallel"`` drops to ``"bulk"`` when threads cannot pay off
        (single worker, below the build floors, or no compiled kernel).
    memory_budget / packed_bytes:
        Resident-set ceiling and the projected packed-buffer size
        (:func:`~repro.core.sharded.set_packed_bytes` totals).  When both
        are given and the buffer would not fit, the build demotes to the
        out-of-core ``"sharded"`` builder before any in-memory engine is
        considered.
    n_existing_shards:
        Shards already backing the target spill when this build appends
        delta shards.  Past :data:`SHARD_FANOUT_MIN` the plan's reason
        flags the shard-pair amplification (``k*(k+1)/2`` rectangles per
        count) so callers can surface a compaction recommendation.

    Policy, in order: over-budget builds demote to ``sharded``; tiny builds
    (below :data:`BULK_BUILD_MIN_ELEMENTS` total elements) stay on the
    serial ``host`` inserter; large multi-core builds (at least
    :data:`PARALLEL_BUILD_MIN_SETS` sets *and*
    :data:`PARALLEL_BUILD_MIN_ELEMENTS` elements, two or more workers) fan
    out to ``parallel``; everything else runs the in-process ``bulk``
    engine.  All engines produce collections whose pair counts are
    identical on every counting path.
    """
    require(n_sets >= 0, f"n_sets must be >= 0, got {n_sets}")
    require(total_elements >= 0,
            f"total_elements must be >= 0, got {total_elements}")
    require(requested == "auto" or requested in BUILD_BACKENDS,
            f"requested must be 'auto' or one of {BUILD_BACKENDS}, "
            f"got {requested!r}")
    _, resolve_workers = _executor_policy()
    n_workers = resolve_workers(workers)

    if requested == "host":
        return BuildPlan("host", 1, "serial per-element inserter requested")
    if requested == "bulk":
        return BuildPlan("bulk", 1, "vectorized bulk engine requested")
    if requested == "sharded":
        return BuildPlan("sharded", 1, "out-of-core sharded build requested")
    if requested == "parallel":
        if n_workers < 2:
            return BuildPlan("bulk", 1,
                             "parallel requested but only one worker available")
        if n_sets < PARALLEL_BUILD_MIN_SETS or total_elements < PARALLEL_BUILD_MIN_ELEMENTS:
            return BuildPlan(
                "bulk", 1,
                f"parallel requested but {n_sets} sets / {total_elements} "
                "elements is below the build thread pay-off floor",
            )
        blocked = _threads_blocked()
        if blocked:
            return BuildPlan("bulk", 1, f"parallel requested but {blocked}")
        return BuildPlan("parallel", n_workers, "parallel bulk build requested")

    # --- auto policy ---------------------------------------------------- #
    if (memory_budget is not None and packed_bytes is not None
            and packed_bytes > memory_budget):
        return BuildPlan(
            "sharded", 1,
            f"projected packed buffer ({packed_bytes} B) exceeds the "
            f"resident-set budget ({memory_budget} B)",
        )
    if total_elements < BULK_BUILD_MIN_ELEMENTS:
        return BuildPlan(
            "host", 1,
            f"{total_elements} elements is below the bulk pay-off floor "
            f"({BULK_BUILD_MIN_ELEMENTS})",
        )
    amplified = ""
    if n_existing_shards >= SHARD_FANOUT_MIN:
        rectangles = (n_existing_shards + 1) * (n_existing_shards + 2) // 2
        amplified = (f"; appending a delta to {n_existing_shards} existing "
                     f"shards amplifies counting to {rectangles} rectangles "
                     "— compaction recommended")
    if (n_workers >= 2 and n_sets >= PARALLEL_BUILD_MIN_SETS
            and total_elements >= PARALLEL_BUILD_MIN_ELEMENTS
            and not _threads_blocked()):
        return BuildPlan("parallel", n_workers,
                         f"{n_sets} sets across {n_workers} threads" + amplified)
    return BuildPlan("bulk", 1,
                     f"{n_sets} sets / {total_elements} elements on the "
                     "vectorized bulk engine" + amplified)


#: Candidate-words product (n_candidates * bitmap words) below which the
#: levelwise support counter stays serial; one AND+popcount pass this small
#: finishes in a few milliseconds, and on threads it tied or lost (E23).
LEVELWISE_MIN_WORK = 1 << 22


def plan_levelwise(
    n_candidates: int,
    n_words: int,
    *,
    workers: int | None = None,
) -> CountPlan:
    """Backend choice for the levelwise candidate-support counter.

    Same shape of policy as :func:`plan_counts`, adapted to the bitmap
    workload: the work is ``n_candidates x n_words`` AND+popcount lanes, so
    the pay-off test is on that product rather than on a set count.
    """
    require(n_candidates >= 0, f"n_candidates must be >= 0, got {n_candidates}")
    require(n_words >= 0, f"n_words must be >= 0, got {n_words}")
    _, resolve_workers = _executor_policy()
    n_workers = resolve_workers(workers)
    if n_workers < 2:
        return CountPlan("batch", 1, "single worker available")
    if n_candidates * n_words < LEVELWISE_MIN_WORK:
        return CountPlan(
            "batch", 1,
            f"{n_candidates} candidates x {n_words} words is below the "
            "levelwise pool pay-off floor",
        )
    return CountPlan("parallel", n_workers,
                     f"{n_candidates} candidates across {n_workers} workers")
