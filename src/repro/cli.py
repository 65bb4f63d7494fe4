"""Command-line interface for the library.

Installed as the ``repro`` console script (``pip install -e .``); three
subcommands cover the workflows a downstream user actually runs:

``repro mine``
    Mine frequent pairs from a FIMI-format transaction file (or from a
    generated synthetic instance) with a chosen engine, print the top pairs
    and the phase/throughput summary.  ``--compute`` names the counting
    backend: ``auto`` (default) defers the choice to the workload planner
    (:mod:`repro.core.plan`), ``host`` is the per-pair reference, ``batch``
    the serial vectorised engine, and ``parallel --workers N`` runs the
    batch engine on ``N`` threads (small inputs fall back to the batch
    engine).  All four print identical pairs; the GPU
    simulator is a modelling API (``BatmapPairMiner(compute="device")``),
    not a CLI backend.
    ``--max-size k`` with ``k > 2`` extends the batmap engine levelwise to
    itemsets of up to ``k`` items (supports counted by the vectorised
    bitmap engine of :mod:`repro.mining.levelwise`).
    ``--stream --memory-budget B`` mines out-of-core: the file is streamed
    in bounded chunks, batmap shards sized to the budget are spilled to
    disk and counted over memory-mapped shards — bit-identical pairs to
    the in-memory run (``--memory-budget`` alone lets the workload planner
    demote to this pipeline only when the packed buffers would not fit).
    ``--pairs-out FILE`` writes every frequent pair in a sorted,
    engine-independent text format for output comparisons.

``repro generate``
    Generate a synthetic dataset (the paper's Bernoulli generator, the Quest
    market-basket generator or the WebDocs surrogate) and write it in FIMI
    format.

``repro intersect``
    Compute the intersection size of two or more sets given as
    whitespace-separated integer files, via batmaps and via sorted-list
    merge, printing both results and the batmap statistics.  ``--compute``
    takes the same backend names as ``repro mine`` (default ``host``).
    More than two sets (or ``--multiway``) route through the batched
    multi-way probe path of :mod:`repro.extensions.multiway`.

``repro build-index``
    Run the out-of-core preprocessing pipeline alone: stream a FIMI file,
    build the batmap shards and leave the spill artifact (packed buffers,
    manifest, persisted hash family, item map) at a caller-chosen
    directory — no mining.  The artifact is what ``repro serve`` attaches.
    ``--family lazy`` persists an extensible hash family so later appends
    can grow the universe without rehashing; ``--sets-file`` builds from a
    raw integer-set file (one whitespace-separated set per line) instead of
    FIMI transactions.

``repro ingest``
    Append new sets to an existing spill artifact as delta shards
    (``--append`` is required; it is the only mode).  Placement of the
    existing sets is never recomputed, so counts over the grown collection
    are bit-identical to a from-scratch build of the same final dataset.

``repro delete``
    Tombstone sets by live index.  Deletes are metadata-only until a
    compaction purges the rows; every query path skips tombstoned sets
    immediately.

``repro compact``
    Merge small shards (LSM-style size tiers, or everything with
    ``--full``) and purge tombstoned rows, under an optional
    ``--memory-budget``.  A live server picks up the new generation via the
    ``reload`` operation without restarting.

``repro verify``
    Cross-check a spill artifact's manifest against its on-disk files:
    content checksums (manifest version 3), structural invariants and
    leftover garbage from interrupted mutations.  Damage is reported as
    errors and exits 1; sweepable leftovers are warnings.  ``--json``
    prints the structured report.

``repro repair``
    Roll a spill artifact back to its last committed generation: sweep
    staging directories and orphaned files no generation references.
    Always safe — the atomic-commit protocol never lets garbage share a
    name with live state.  Exits 1 if damage remains after the sweep
    (content damage needs a rebuild).

``repro serve``
    Serve membership, pairwise/multiway intersection and top-k-similarity
    queries over a spill artifact on a long-lived TCP socket
    (line-delimited JSON; see :mod:`repro.serve` and ``docs/serving.md``).

``repro query``
    One-shot client: send a single JSON request to a running server and
    print the response line.

All subcommands are also exposed through ``python -m repro.cli <subcommand> ...``.
Each subcommand imports the modules only it needs inside its ``_cmd_*``
function, so no command pays for another's imports (``repro mine`` with
the batmap engine never loads the server, asyncio, the baseline miners,
the GPU simulator or the kernel driver).  This module itself imports no
NumPy, so :func:`run` can cap NumPy's thread pools before it loads.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.errors import DatasetError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["main", "run", "cap_native_pools", "build_parser", "subcommand_parsers"]


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def _mine_arguments(mine: argparse.ArgumentParser) -> None:
    mine.add_argument("input", type=Path, help="FIMI-format transaction file")
    mine.add_argument("--min-support", type=int, default=2)
    mine.add_argument("--engine", choices=["batmap", "apriori", "fpgrowth", "eclat"],
                      default="batmap")
    mine.add_argument("--top", type=int, default=10, help="number of pairs to print")
    mine.add_argument("--max-transactions", type=int, default=None)
    mine.add_argument("--seed", type=int, default=0)
    mine.add_argument("--compute", choices=["auto", "host", "batch", "parallel"],
                      default="auto",
                      help="batmap counting backend: auto (the workload "
                           "planner picks), the per-pair host reference, the "
                           "serial batch engine, or the batch engine on "
                           "threads (small inputs fall back to the batch engine)")
    mine.add_argument("--workers", type=int, default=None,
                      help="worker threads for --compute parallel "
                           "(default: auto from the core count)")
    mine.add_argument("--build-compute",
                      choices=["auto", "host", "bulk", "parallel"],
                      default="auto",
                      help="batmap construction backend: serial per-element "
                           "inserter, vectorized round-based bulk engine, "
                           "the bulk engine on threads, or auto "
                           "(the workload planner picks)")
    mine.add_argument("--build-workers", type=int, default=None,
                      help="worker threads for --build-compute parallel "
                           "(default: auto from the core count)")
    mine.add_argument("--max-size", type=int, default=2,
                      help="largest itemset size to mine (batmap engine only); "
                           "sizes > 2 run the levelwise bitmap extension")
    mine.add_argument("--stream", action="store_true",
                      help="mine out-of-core: stream the file, build batmap "
                           "shards sized to --memory-budget, spill them to "
                           "disk and count shard pairs with bounded resident "
                           "memory (batmap pairs only; --compute host runs "
                           "the batch engine there)")
    mine.add_argument("--result-format",
                      choices=["auto", "dense", "sparse"], default="dense",
                      help="count result shape: 'dense' is the legacy full "
                           "matrix (the oracle), 'sparse' stores only nonzero "
                           "pairs and prunes tiles below --min-support inside "
                           "the engines, 'auto' picks sparse when the dense "
                           "matrix would not fit --memory-budget "
                           "(batmap engine only)")
    mine.add_argument("--memory-budget", default=None, metavar="SIZE",
                      help="resident-set ceiling, e.g. 64M or 2G.  With "
                           "--stream it sizes the shards (default 256M); "
                           "without it the workload planner demotes to the "
                           "sharded pipeline when the packed buffers would "
                           "not fit")
    mine.add_argument("--pairs-out", type=Path, default=None, metavar="FILE",
                      help="also write every frequent pair as 'i j support' "
                           "lines (sorted; engine-independent format for "
                           "output comparisons)")


def _generate_arguments(gen: argparse.ArgumentParser) -> None:
    gen.add_argument("output", type=Path)
    gen.add_argument("--kind", choices=["density", "quest", "webdocs"], default="density")
    gen.add_argument("--items", type=int, default=1000)
    gen.add_argument("--density", type=float, default=0.05)
    gen.add_argument("--total-items", type=int, default=100_000)
    gen.add_argument("--transactions", type=int, default=1000)
    gen.add_argument("--seed", type=int, default=0)


def _intersect_arguments(inter: argparse.ArgumentParser) -> None:
    inter.add_argument("sets", type=Path, nargs="+",
                       help="two or more whitespace-separated integer-set files")
    inter.add_argument("--universe", type=int, default=None,
                       help="universe size (default: max id + 1)")
    inter.add_argument("--seed", type=int, default=0)
    inter.add_argument("--compute", choices=["auto", "host", "batch", "parallel"],
                       default="host",
                       help="counting backend (see `repro mine --help`; two "
                            "sets make parallel fall back to the batch "
                            "engine)")
    inter.add_argument("--workers", type=int, default=None,
                       help="worker threads for --compute parallel")
    inter.add_argument("--build-compute",
                       choices=["auto", "host", "bulk", "parallel"],
                       default="auto",
                       help="batmap construction backend "
                            "(see `repro mine --help`)")
    inter.add_argument("--multiway", action="store_true",
                       help="force the multi-way batmap probe path "
                            "(implied when more than two sets are given)")


def _build_index_arguments(build: argparse.ArgumentParser) -> None:
    build.add_argument("input", type=Path, help="FIMI-format transaction file")
    build.add_argument("spill_dir", type=Path,
                       help="output directory for the spill artifact")
    build.add_argument("--min-support", type=int, default=1,
                       help="drop items below this support before building "
                            "(default 1: keep everything servable)")
    build.add_argument("--memory-budget", default="256M", metavar="SIZE",
                       help="resident-set ceiling while building, e.g. 64M "
                            "or 2G (sizes the spilled shards; default 256M)")
    build.add_argument("--seed", type=int, default=0,
                       help="hash-family seed (recorded in the artifact)")
    build.add_argument("--build-compute",
                       choices=["auto", "host", "bulk", "parallel"],
                       default="auto",
                       help="batmap construction backend "
                            "(see `repro mine --help`)")
    build.add_argument("--build-workers", type=int, default=None,
                       help="worker threads for --build-compute parallel")
    build.add_argument("--max-transactions", type=int, default=None)
    build.add_argument("--family", choices=["eager", "lazy"], default="eager",
                       help="hash family kind: eager (fixed universe) or "
                            "lazy/extensible (later `repro ingest` may grow "
                            "the universe up to the capacity without "
                            "rehashing)")
    build.add_argument("--capacity", type=int, default=None,
                       help="universe capacity reserved by --family lazy "
                            "(default: the current shift plateau)")
    build.add_argument("--sets-file", action="store_true",
                       help="treat INPUT as a raw integer-set file (one "
                            "whitespace-separated set per line, ids already "
                            "dense) instead of FIMI transactions")
    build.add_argument("--universe", type=int, default=None,
                       help="universe size for --sets-file "
                            "(default: max id + 1)")


def _ingest_arguments(ingest: argparse.ArgumentParser) -> None:
    ingest.add_argument("spill_dir", type=Path,
                        help="existing spill artifact directory")
    ingest.add_argument("input", type=Path,
                        help="raw integer-set file: one whitespace-separated "
                             "set per line")
    ingest.add_argument("--append", action="store_true", required=True,
                        help="required: appends are the only ingest mode "
                             "(new sets become delta shards; existing "
                             "placement is never recomputed)")
    ingest.add_argument("--universe", type=int, default=None,
                        help="grow the universe to this size (lazy-family "
                             "artifacts only; default: grown to fit the "
                             "appended elements)")
    ingest.add_argument("--memory-budget", default=None, metavar="SIZE",
                        help="resident-set ceiling while building the delta "
                             "shards, e.g. 64M or 2G (default: one shard)")


def _delete_arguments(delete: argparse.ArgumentParser) -> None:
    delete.add_argument("spill_dir", type=Path,
                        help="existing spill artifact directory")
    delete.add_argument("--sets", type=int, nargs="+", required=True,
                        metavar="ID",
                        help="live set indices to tombstone (the dense index "
                             "space queries see; compaction purges the rows)")


def _compact_arguments(compact: argparse.ArgumentParser) -> None:
    compact.add_argument("spill_dir", type=Path,
                         help="existing spill artifact directory")
    compact.add_argument("--full", action="store_true",
                         help="merge everything into the fewest shards the "
                              "budget allows (default: size-tiered policy "
                              "merges only runs of similar-size shards)")
    compact.add_argument("--memory-budget", default=None, metavar="SIZE",
                         help="resident-set ceiling for merged shards, e.g. "
                              "64M or 2G (bounds each merged shard's size)")


def _verify_arguments(verify: argparse.ArgumentParser) -> None:
    verify.add_argument("spill_dir", type=Path,
                        help="spill artifact directory to check")
    verify.add_argument("--json", action="store_true",
                        help="print the structured report as one JSON object")


def _repair_arguments(repair: argparse.ArgumentParser) -> None:
    repair.add_argument("spill_dir", type=Path,
                        help="spill artifact directory to repair")
    repair.add_argument("--json", action="store_true",
                        help="print the repair actions and post-repair "
                             "report as one JSON object")


def _serve_arguments(serve: argparse.ArgumentParser) -> None:
    serve.add_argument("spill_dir", type=Path,
                       help="spill artifact directory (from `repro build-index` "
                            "or `repro mine --stream` with a kept spill)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0: bind an ephemeral port and "
                            "print it)")
    # Tuning flags default to None: the server's own defaults apply, and
    # building the parser never imports the server.
    serve.add_argument("--max-batch", type=int, default=None,
                       help="most requests coalesced into one vectorized "
                            "engine call (1 disables batching)")
    serve.add_argument("--max-queue", type=int, default=None,
                       help="bounded request-queue capacity; a full queue "
                            "answers 'overloaded' instead of blocking")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-request deadline in seconds")
    serve.add_argument("--cache-entries", type=int, default=None,
                       help="LRU result-cache capacity (0 disables caching)")
    serve.add_argument("--max-requests", type=int, default=None,
                       help="shut down after this many request lines "
                            "(finite sessions for smoke tests)")


def _query_arguments(query: argparse.ArgumentParser) -> None:
    query.add_argument("address", help="server address as HOST:PORT")
    query.add_argument("request",
                       help="one request as JSON, e.g. "
                            "'{\"op\": \"count\", \"pairs\": [[0, 1]]}'")
    query.add_argument("--timeout", type=float, default=60.0,
                       help="socket timeout in seconds")

#: Every subcommand: its ``--help`` line and the function adding its arguments.
_SUBCOMMANDS = {
    "mine": ("mine frequent pairs from a FIMI file", _mine_arguments),
    "generate": ("generate a synthetic dataset in FIMI format", _generate_arguments),
    "intersect": ("intersect two or more integer-set files", _intersect_arguments),
    "build-index": ("build a servable spill artifact from a FIMI file (no mining)",
                    _build_index_arguments),
    "ingest": ("append new sets to an existing spill artifact", _ingest_arguments),
    "delete": ("tombstone sets of a spill artifact by live index", _delete_arguments),
    "compact": ("merge shards and purge tombstones (LSM-style compaction)", _compact_arguments),
    "verify": ("check a spill artifact (checksums, cross-checks, garbage)", _verify_arguments),
    "repair": ("roll a spill artifact back to its last committed generation", _repair_arguments),
    "serve": ("serve queries over a spill artifact (JSON over TCP)", _serve_arguments),
    "query": ("send one JSON request to a running server", _query_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Build the top-level ``repro`` argument parser with every subcommand.

    With ``command``, only that subcommand's parser is built: :func:`main`
    parses one command line, and the other ten would be built for nothing.
    Its usage line still names every subcommand, so the messages that
    parser can print (its own errors and ``command``'s) are unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BATMAP set intersection / frequent pair mining toolkit",
    )
    names = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=names)
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        if command is None or command == name:
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def subcommand_parsers() -> dict:
    """Map each subcommand name to its :class:`argparse.ArgumentParser`.

    The CLI help snapshot tests render every subparser's ``format_help()``
    through this accessor instead of spawning one process per subcommand.
    """
    parser = build_parser()
    actions = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    return dict(actions[0].choices)


# --------------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------------- #
def _cmd_mine(args: argparse.Namespace, out) -> int:
    if args.max_size < 1:
        print(f"--max-size must be >= 1, got {args.max_size}", file=out)
        return 2
    if args.max_size != 2 and args.engine != "batmap":
        print(f"--max-size other than 2 requires the batmap engine, "
              f"got {args.engine!r}", file=out)
        return 2
    if args.result_format != "dense" and (args.engine != "batmap"
                                          or args.max_size != 2):
        print("--result-format other than 'dense' requires the batmap engine "
              "with --max-size 2", file=out)
        return 2
    if args.stream or args.memory_budget is not None:
        if args.engine != "batmap" or args.max_size != 2:
            print("--stream/--memory-budget require the batmap engine with "
                  "--max-size 2", file=out)
            return 2
        try:
            if args.stream or _budget_demotes_to_stream(args, out):
                return _mine_stream(args, out)
        except ValueError as exc:
            # Unparseable --memory-budget, or one too small for the fixed
            # residents: a configuration error, not a crash.
            print(f"error: {exc}", file=out)
            return 2
    from repro.datasets.fimi_io import read_fimi

    db = read_fimi(args.input, max_transactions=args.max_transactions)
    print(f"loaded {db.n_transactions} transactions, {db.n_items} items, "
          f"{db.total_items} occurrences (density {db.density:.4f})", file=out)

    if args.max_size != 2:
        # Sizes 1 and >= 3 both run the itemset driver (a bare --max-size 1
        # must restrict the output to singletons, not silently mine pairs).
        return _mine_itemsets(args, db, out)

    start = time.perf_counter()
    if args.engine == "batmap":
        from repro.mining.pair_mining import BatmapPairMiner

        miner = BatmapPairMiner(compute=args.compute, workers=args.workers,
                                build_compute=args.build_compute,
                                build_workers=args.build_workers,
                                result_format=args.result_format)
        report = miner.mine(db, min_support=args.min_support, rng=args.seed)
        pairs = report.supports
        _maybe_print_result_format(report, out)
        _print_phases(report, out)
        print(_count_backend_line(report.count_backend, args.compute), file=out)
        _maybe_print_swar_kernel(report.count_backend, out)
        print(_build_backend_line(report.build_backend, args.build_compute),
              file=out)
    else:
        from repro.baselines.apriori import AprioriMiner
        from repro.baselines.eclat import EclatMiner
        from repro.baselines.fpgrowth import FPGrowthMiner

        baseline = {"apriori": AprioriMiner, "fpgrowth": FPGrowthMiner,
                    "eclat": EclatMiner}[args.engine]
        pairs = baseline().mine_pairs(db.transactions, db.n_items, args.min_support)
    elapsed = time.perf_counter() - start

    _report_pairs(pairs, args, out, elapsed, args.engine)
    return 0


def _pair_arrays(pairs, min_support: int) -> tuple:
    """``(i, j, support)`` arrays sorted by ``(i, j)``.

    ``pairs`` is a :class:`~repro.mining.support.PairSupports` (the batmap
    engine) or a baseline miner's ``{(i, j): support}`` dictionary.
    """
    if not isinstance(pairs, dict):
        return pairs.pair_arrays(min_support)
    import numpy as np

    items = sorted(pairs.items())
    keys = np.array([key for key, _ in items], dtype=np.int64).reshape(-1, 2)
    values = np.array([value for _, value in items], dtype=np.int64)
    return keys[:, 0], keys[:, 1], values


def _report_pairs(pairs, args: argparse.Namespace, out, elapsed: float,
                  engine_tag: str) -> None:
    """Shared result tail of every mine path: summary, top-N, pairs file.

    One implementation for the in-memory and streaming paths — the CI
    streaming smoke compares their ``--pairs-out`` files byte for byte.
    """
    i, j, support = _pair_arrays(pairs, args.min_support)
    print(f"{i.size} frequent pairs (support >= {args.min_support}) "
          f"in {elapsed:.3f}s wall clock [{engine_tag}]", file=out)
    for r in _top_rows(i, j, support, args.top).tolist():
        print(f"  ({i[r]}, {j[r]})  support={support[r]}", file=out)
    _maybe_write_pairs(i, j, support, args.pairs_out, out)


def _top_rows(i, j, support, top: int):
    """Rows of the ``top`` pairs by support descending, ties by ``(i, j)``.

    Only the pairs at or above the ``top``-th largest support are sorted;
    any other ``top`` (0, negative, at least every pair) slices the full order.
    """
    import numpy as np

    rows = np.arange(support.size)
    if 0 < top < support.size:
        nth = np.partition(support, support.size - top)[support.size - top]
        rows = np.flatnonzero(support >= nth)
    return rows[np.lexsort((j[rows], i[rows], -support[rows]))][:top]


def _maybe_print_result_format(report, out) -> None:
    """One telemetry line when the counts came back as a sparse result."""
    from repro.core.results import SparseCountResult

    counts = report.supports.counts
    if isinstance(counts, SparseCountResult):
        stats = counts.stats or {}
        print(f"result format: sparse ({counts.nnz} nonzero pairs, "
              f"{stats.get('tiles_skipped', 0)}/{stats.get('tiles_total', 0)} "
              f"tiles pruned, {counts.result_bytes} result bytes)", file=out)


def _maybe_write_pairs(i, j, support, path, out) -> None:
    """Write every frequent pair as ``i j support`` lines, in array order (optional)."""
    if path is None:
        return
    import numpy as np

    columns = np.column_stack((i, j, support)).ravel().tolist()
    Path(path).write_text(("%d %d %d\n" * i.size) % tuple(columns))
    print(f"wrote {i.size} pairs to {path}", file=out)


def _budget_demotes_to_stream(args: argparse.Namespace, out) -> bool:
    """Planner routing for ``--memory-budget`` without ``--stream``.

    One cheap statistics pass projects the packed-buffer size; the build
    planner demotes to the sharded pipeline only when it would not fit
    under the budget — otherwise the ordinary in-memory path runs.
    """
    from repro.core.config import DEFAULT_CONFIG
    from repro.core.plan import plan_build
    from repro.core.sharded import set_packed_bytes
    from repro.datasets.streaming import scan_fimi_stats
    from repro.utils.memory import parse_memory_size

    budget = parse_memory_size(args.memory_budget)
    stats = scan_fimi_stats(args.input, max_transactions=args.max_transactions)
    supports = stats.item_supports
    if args.min_support > 1:
        supports = supports[supports >= args.min_support]
    if supports.size == 0 or stats.n_transactions == 0:
        return False  # let the in-memory path report the empty result/error
    packed = int(set_packed_bytes(supports, max(1, stats.n_transactions),
                                  DEFAULT_CONFIG).sum())
    plan = plan_build(supports.size, int(supports.sum()),
                      requested=args.build_compute, memory_budget=budget,
                      packed_bytes=packed)
    if args.build_compute == "auto" and plan.backend == "sharded":
        print(f"plan: {plan.reason}; demoting to the sharded pipeline", file=out)
        return True
    return False


def _mine_stream(args: argparse.Namespace, out) -> int:
    """Out-of-core mining (``--stream`` / planner-demoted ``--memory-budget``)."""
    from repro.mining.pair_mining import BatmapPairMiner

    budget = args.memory_budget if args.memory_budget is not None else "256M"
    miner = BatmapPairMiner(compute=args.compute, workers=args.workers,
                            build_compute=args.build_compute,
                            build_workers=args.build_workers,
                            result_format=args.result_format)
    start = time.perf_counter()
    report = miner.mine_stream(
        args.input,
        min_support=args.min_support,
        rng=args.seed,
        memory_budget=budget,
        max_transactions=args.max_transactions,
    )
    _maybe_print_result_format(report, out)
    elapsed = time.perf_counter() - start
    print(f"streamed {args.input} out-of-core "
          f"(memory budget {budget}, {report.batmap_bytes} packed bytes spilled)",
          file=out)
    _print_phases(report, out)
    print(f"count backend: {report.count_backend}", file=out)
    _maybe_print_swar_kernel(report.count_backend, out)
    print(f"build backend: {report.build_backend}", file=out)
    _report_pairs(report.supports, args, out, elapsed, "batmap, sharded")
    return 0


def _print_phases(report, out) -> None:
    """The ``phases:`` output line of a pair-mining report."""
    print(f"phases: preprocess {report.preprocess_seconds:.3f}s, "
          f"count {report.counting_seconds:.5f}s (wall clock), "
          f"postprocess {report.postprocess_seconds:.3f}s, "
          f"failed insertions {report.failed_insertions}", file=out)


def _count_backend_line(count_backend: str, requested: str) -> str:
    """The ``count backend:`` output line, with the demotion notice."""
    line = f"count backend: {count_backend}"
    if requested == "parallel" and count_backend == "batch":
        line += " (parallel fell back: input below the pool pay-off floor)"
    return line


def _print_swar_kernel(out) -> None:
    """The ``swar kernel:`` line: compiled C or the NumPy fallback (and why).

    The one library holds the SWAR counting loop and the cuckoo
    construction loops, so the line names what counted and what built.
    """
    from repro.core.swar_kernel import kernel_status

    print(f"swar kernel: {kernel_status()}", file=out)


def _maybe_print_swar_kernel(count_backend: str, out) -> None:
    """:func:`_print_swar_kernel` after a count on the packed engines.

    The per-pair ``host`` reference runs no SWAR primitive, so it prints
    no line.
    """
    if count_backend != "host":
        _print_swar_kernel(out)


def _build_backend_line(build_backend: str, requested: str) -> str:
    """The ``build backend:`` output line, with the demotion notice."""
    line = f"build backend: {build_backend}"
    if requested == "parallel" and build_backend == "bulk":
        line += " (parallel fell back: input below the build pool pay-off floor)"
    return line


def _mine_itemsets(args: argparse.Namespace, db, out) -> int:
    """Levelwise itemset mining (``--max-size > 2``) through the bitmap engine."""
    from repro.mining.itemsets import BatmapItemsetMiner
    from repro.mining.pair_mining import BatmapPairMiner

    start = time.perf_counter()
    pair_miner = BatmapPairMiner(compute=args.compute, workers=args.workers,
                                 build_compute=args.build_compute,
                                 build_workers=args.build_workers)
    miner = BatmapItemsetMiner(pair_miner, max_size=args.max_size,
                               workers=args.workers)
    result = miner.mine(db, min_support=args.min_support, rng=args.seed)
    elapsed = time.perf_counter() - start
    if result.pair_report is not None:
        print(_build_backend_line(result.pair_report.build_backend,
                                  args.build_compute), file=out)

    print(f"{len(result.itemsets)} frequent itemsets up to size "
          f"{result.max_size()} (support >= {args.min_support}) "
          f"in {elapsed:.3f}s wall clock "
          f"[batmap + levelwise, {result.extension_levels} extension level(s)]",
          file=out)
    for k in range(1, result.max_size() + 1):
        level = result.of_size(k)
        if level:
            print(f"  size {k}: {len(level)} itemsets", file=out)
    ranked = sorted(result.itemsets.items(),
                    key=lambda kv: (-len(kv[0]), -kv[1], kv[0]))[:args.top]
    for itemset, support in ranked:
        print(f"  {tuple(itemset)}  support={support}", file=out)
    return 0


def _cmd_generate(args: argparse.Namespace, out) -> int:
    from repro.datasets.fimi_io import write_fimi
    from repro.datasets.ibm_quest import QuestParameters, generate_quest_dataset
    from repro.datasets.synthetic import generate_density_instance
    from repro.datasets.webdocs import generate_webdocs_like

    if args.kind == "density":
        db = generate_density_instance(args.items, args.density, args.total_items,
                                       rng=args.seed)
    elif args.kind == "quest":
        db = generate_quest_dataset(
            QuestParameters(n_items=args.items, n_transactions=args.transactions),
            rng=args.seed)
    else:
        db = generate_webdocs_like(args.transactions, vocabulary_size=args.items,
                                   rng=args.seed)
    write_fimi(db, args.output)
    print(f"wrote {db.n_transactions} transactions, {db.n_items} items, "
          f"{db.total_items} occurrences to {args.output}", file=out)
    return 0


def _read_id_file(path: Path) -> np.ndarray:
    """Read one set: every id in the file, on any line (FIMI grammar)."""
    import numpy as np

    from repro.datasets.fimi_io import read_fimi_arrays

    return np.unique(read_fimi_arrays(path, name=str(path))[1])


def _cmd_intersect_multiway(args: argparse.Namespace, sets, universe, out) -> int:
    """Intersect three or more sets through the batched multi-way probe path."""
    import numpy as np

    from repro.core.collection import BatmapCollection
    from repro.core.config import BatmapConfig
    from repro.core.hashing import HashFamily
    from repro.extensions.multiway import multiway_intersection

    config = BatmapConfig()
    family = HashFamily.create(universe, shift=config.shift_for_universe(universe),
                               rng=args.seed)
    collection = BatmapCollection.build(sets, universe, config=config,
                                        family=family, sort_by_size=False,
                                        build_compute=args.build_compute)
    result = multiway_intersection(collection, list(range(len(sets))))
    exact = sets[0]
    for s in sets[1:]:
        exact = np.intersect1d(exact, s, assume_unique=True)
    sizes = ", ".join(str(s.size) for s in sets)
    print(f"{len(sets)} sets of sizes [{sizes}], universe = {universe}", file=out)
    print("count backend: host (batched multiway probes)", file=out)
    print(_build_backend_line(collection.build_plan.backend,
                              args.build_compute), file=out)
    print(f"intersection size (batmap): {result.size}", file=out)
    print(f"intersection size (merge) : {exact.size}", file=out)
    total_bytes = sum(collection.batmap(i).memory_bytes for i in range(len(sets)))
    n_failed = sum(len(collection.batmap(i).failed) for i in range(len(sets)))
    print(f"batmap sizes: {total_bytes} B total ({n_failed} failed insertions)",
          file=out)
    return 0


def _cmd_intersect(args: argparse.Namespace, out) -> int:
    if len(args.sets) < 2:
        print("intersect needs at least two set files", file=out)
        return 2
    sets = [_read_id_file(p) for p in args.sets]
    if any(s.size == 0 for s in sets):
        print("intersection size: 0 (one of the sets is empty)", file=out)
        return 0
    universe = args.universe or int(max(int(s.max()) for s in sets)) + 1
    if len(sets) > 2 or args.multiway:
        return _cmd_intersect_multiway(args, sets, universe, out)

    from repro.baselines.merge import intersection_size_numpy
    from repro.core.batmap import build_batmap
    from repro.core.collection import BatmapCollection
    from repro.core.config import BatmapConfig
    from repro.core.hashing import HashFamily
    from repro.core.intersection import count_common
    from repro.core.plan import plan_counts

    set_a, set_b = sets
    config = BatmapConfig()
    family = HashFamily.create(universe, shift=config.shift_for_universe(universe),
                               rng=args.seed)
    if args.compute == "host":
        bm_a = build_batmap(set_a, universe, family=family, config=config)
        bm_b = build_batmap(set_b, universe, family=family, config=config)
        batmap_count = count_common(bm_a, bm_b)
    else:
        # One build: the printed stats must describe the same batmaps that
        # produced the count (the collection path clamps r >= 4).
        collection = BatmapCollection.build([set_a, set_b], universe,
                                            config=config, family=family,
                                            sort_by_size=False,
                                            build_compute=args.build_compute)
        print(_build_backend_line(collection.build_plan.backend,
                                  args.build_compute), file=out)
        bm_a, bm_b = collection.batmap(0), collection.batmap(1)
        plan = plan_counts(collection, requested=args.compute,
                           workers=args.workers, n_pairs=1)
        line = _count_backend_line(plan.backend, args.compute)
        if args.compute == "auto":
            line += f" ({plan.reason})"
        print(line, file=out)
        # Run the backend the printed plan names, without planning again.
        if plan.backend == "host":
            batmap_count = count_common(bm_a, bm_b)
        else:
            batmap_count = collection.batch_counter().count_pair(0, 1)
    merge_count = intersection_size_numpy(set_a, set_b)
    print(f"|A| = {set_a.size}, |B| = {set_b.size}, universe = {universe}", file=out)
    print(f"intersection size (batmap): {batmap_count}", file=out)
    print(f"intersection size (merge) : {merge_count}", file=out)
    print(f"batmap sizes: {bm_a.memory_bytes} B and {bm_b.memory_bytes} B "
          f"({len(bm_a.failed) + len(bm_b.failed)} failed insertions)", file=out)
    return 0


def _build_index_sets_file(args: argparse.Namespace, budget: int, out) -> int:
    """The ``build-index --sets-file`` arm: raw sets, no FIMI preprocessing."""
    import numpy as np

    from repro.core.sharded import ShardedCollection
    from repro.datasets.fimi_io import read_sets_arrays

    sets = read_sets_arrays(args.input)
    universe = args.universe or int(max(int(s.max()) for s in sets)) + 1
    start = time.perf_counter()
    collection = ShardedCollection.build(
        sets, universe, args.spill_dir,
        memory_budget=budget,
        rng=args.seed,
        family_kind=args.family,
        family_capacity=args.capacity,
        build_compute=args.build_compute,
        build_workers=args.build_workers,
    )
    _save_item_map(args.spill_dir, np.arange(len(sets), dtype=np.int64))
    _report_index(args, collection, time.perf_counter() - start, out)
    return 0


def _save_item_map(spill_dir, item_map: np.ndarray) -> None:
    """Write ``item_map.npy`` next to the committed manifest, fsynced like the spill."""
    import numpy as np

    path = Path(spill_dir) / "item_map.npy"
    np.save(path, item_map)
    for target in (path, spill_dir):  # the bytes, then the directory entry
        fd = os.open(target, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _report_index(args: argparse.Namespace, collection, elapsed: float, out) -> None:
    """The output lines of a finished ``build-index``."""
    print(f"indexed {len(collection)} sets over universe "
          f"{collection.universe_size} in {elapsed:.3f}s wall clock", file=out)
    print(f"spill artifact: {args.spill_dir} ({collection.n_shards} shard(s), "
          f"{collection.total_packed_bytes} packed bytes, "
          f"{args.family} family, generation {collection.generation})",
          file=out)
    _print_swar_kernel(out)
    print(f"serve it with: repro serve {args.spill_dir}", file=out)


def _cmd_build_index(args: argparse.Namespace, out) -> int:
    """Build a servable spill artifact from a FIMI file, without mining."""
    from repro.core.integrity import writer_lock
    from repro.mining.preprocess import preprocess_streaming
    from repro.utils.memory import parse_memory_size

    try:
        budget = parse_memory_size(args.memory_budget)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    if args.capacity is not None and args.family != "lazy":
        print("error: --capacity requires --family lazy", file=out)
        return 2
    if args.universe is not None and not args.sets_file:
        print("error: --universe requires --sets-file", file=out)
        return 2
    try:
        # One writer from the first staged file to the item map: a concurrent
        # build-index or ingest into the directory waits.
        args.spill_dir.mkdir(parents=True, exist_ok=True)
        with writer_lock(args.spill_dir):
            if args.sets_file:
                return _build_index_sets_file(args, budget, out)
            start = time.perf_counter()
            pre = preprocess_streaming(
                args.input,
                args.spill_dir,
                memory_budget=budget,
                min_support=args.min_support,
                rng=args.seed,
                build_compute=args.build_compute,
                build_workers=args.build_workers,
                family_kind=args.family,
                family_capacity=args.capacity,
                max_transactions=args.max_transactions,
            )
            _save_item_map(args.spill_dir, pre.item_map)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    _report_index(args, pre.collection, time.perf_counter() - start, out)
    return 0


def _cmd_ingest(args: argparse.Namespace, out) -> int:
    """Append new sets to an existing spill artifact as delta shards.

    Runs on the standard library and the compiled kernel
    (:func:`repro.core.append.append_sets`); NumPy loads only on the paths
    that need it (no kernel, universe growth, a lower ``r0``).
    """
    from repro.core.append import append_sets
    from repro.datasets.fimi_grammar import read_sets_file
    from repro.utils.memory import parse_memory_size

    try:
        budget = (parse_memory_size(args.memory_budget)
                  if args.memory_budget is not None else None)
        sets = read_sets_file(args.input)
        start = time.perf_counter()
        manifest, before = append_sets(args.spill_dir, sets, universe_size=args.universe,
                                       memory_budget=budget)
        elapsed = time.perf_counter() - start
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    n_shards = len(manifest.shards)
    print(f"appended {len(sets)} sets ({before} -> "
          f"{manifest.n_sets - manifest.n_tombstones}) in {elapsed:.3f}s wall clock",
          file=out)
    print(f"generation {manifest.generation}: {n_shards} shard(s), universe "
          f"{manifest.universe_size}, "
          f"{sum(entry['nbytes'] for entry in manifest.shards)} packed bytes", file=out)
    _print_swar_kernel(out)
    if n_shards >= 8:
        print(f"hint: {n_shards} shards amplify counting work; "
              f"run `repro compact {args.spill_dir}`", file=out)
    return 0


def _cmd_delete(args: argparse.Namespace, out) -> int:
    """Tombstone live sets of a spill artifact (no NumPy: spill metadata only)."""
    from repro.core.manifest import delete_sets

    try:
        manifest, tombstones = delete_sets(args.spill_dir, args.sets)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    deleted = len(set(args.sets))
    live = manifest["n_sets"] - len(tombstones)
    print(f"tombstoned {deleted} set(s) ({live + deleted} -> {live} live)", file=out)
    print(f"generation {manifest['generation']}: {len(tombstones)} tombstone(s) "
          "pending compaction", file=out)
    return 0


def _cmd_compact(args: argparse.Namespace, out) -> int:
    """Merge shards and purge tombstones under an optional budget."""
    from repro.core.integrity import writer_lock
    from repro.core.manifest import require_manifest
    from repro.core.sharded import ShardedCollection
    from repro.utils.memory import parse_memory_size

    try:
        budget = (parse_memory_size(args.memory_budget)
                  if args.memory_budget is not None else None)
        require_manifest(args.spill_dir)
        with writer_lock(args.spill_dir):
            collection = ShardedCollection.from_spill(args.spill_dir)
            before_shards = collection.n_shards
            before_tombstones = int(collection.tombstones.size)
            before_generation = collection.generation
            start = time.perf_counter()
            collection.compact(memory_budget=budget, full=args.full)
            elapsed = time.perf_counter() - start
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    if collection.generation == before_generation:
        print(f"nothing to compact: {before_shards} shard(s), "
              f"{before_tombstones} tombstone(s)", file=out)
        return 0
    purged = before_tombstones - int(collection.tombstones.size)
    print(f"compacted {before_shards} -> {collection.n_shards} shard(s), "
          f"purged {purged} tombstoned row(s) in {elapsed:.3f}s wall clock",
          file=out)
    print(f"generation {collection.generation}: "
          f"{collection.total_packed_bytes} packed bytes", file=out)
    print("a live server picks this up with: "
          "repro query HOST:PORT '{\"op\": \"reload\"}'", file=out)
    return 0


def _cmd_verify(args: argparse.Namespace, out) -> int:
    """Verify a spill artifact; exit 1 on damage, 0 when clean."""
    import json

    from repro.core.verify import verify_spill

    report = verify_spill(args.spill_dir)
    if args.json:
        print(json.dumps(report.to_dict(), separators=(",", ":")), file=out)
    else:
        print(report.render(), file=out)
    return 0 if report.ok else 1


def _cmd_repair(args: argparse.Namespace, out) -> int:
    """Sweep crash leftovers; exit 1 if damage remains after the sweep."""
    import json

    from repro.core.verify import repair_spill

    result = repair_spill(args.spill_dir)
    if args.json:
        print(json.dumps(result.to_dict(), separators=(",", ":")), file=out)
        return 0 if result.report.ok else 1
    if result.actions:
        for action in result.actions:
            print(action, file=out)
    else:
        print("nothing to sweep: no crash leftovers found", file=out)
    print(result.report.render(), file=out)
    if not result.report.ok:
        print("damage remains after repair; rebuild the artifact with "
              "`repro build-index`", file=out)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace, out) -> int:
    """Attach a spill artifact and serve queries until interrupted."""
    import asyncio

    from repro.serve.server import BatmapServer

    tuning = {"max_batch": args.max_batch, "max_queue": args.max_queue,
              "request_timeout": args.timeout, "cache_entries": args.cache_entries}
    server = BatmapServer(
        args.spill_dir,
        host=args.host,
        port=args.port,
        max_requests=args.max_requests,
        **{key: value for key, value in tuning.items() if value is not None},
    )

    async def _run() -> dict:
        host, port = await server.start()
        stats = server.engine.stats()
        print(f"attached {stats['n_sets']} sets "
              f"({stats['n_shards']} shard(s), "
              f"{stats['total_packed_bytes']} packed bytes) from {args.spill_dir}",
              file=out, flush=True)
        print(f"serving on {host}:{port}", file=out, flush=True)
        await server.serve_until_shutdown()
        return server.metrics.snapshot()

    try:
        snapshot = asyncio.run(_run())
    except KeyboardInterrupt:
        snapshot = server.metrics.snapshot()
    n_errors = sum(snapshot["errors_by_code"].values())
    print(f"served {snapshot['requests_total'] + n_errors} requests "
          f"({n_errors} errors)", file=out, flush=True)
    return 0


def _cmd_query(args: argparse.Namespace, out) -> int:
    """Send one JSON request line to a running server and print the reply."""
    import json

    from repro.serve.client import ServeClient, ServeError

    host, sep, port_text = args.address.rpartition(":")
    if not sep or not port_text.isdigit():
        print(f"error: address must be HOST:PORT, got {args.address!r}",
              file=out)
        return 2
    try:
        request = json.loads(args.request)
    except json.JSONDecodeError as exc:
        print(f"error: request is not valid JSON: {exc}", file=out)
        return 2
    if not isinstance(request, dict) or not isinstance(request.get("op"), str):
        print("error: request must be a JSON object with an \"op\" key",
              file=out)
        return 2
    op = request.pop("op")
    request.pop("id", None)  # the client assigns its own ids
    try:
        with ServeClient(host, int(port_text), timeout=args.timeout) as client:
            result = client.request(op, **request)
    except ServeError as exc:
        print(f"error [{exc.code}]: {exc.message}", file=out)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach {args.address}: {exc}", file=out)
        return 2
    print(json.dumps(result, separators=(",", ":")), file=out)
    return 0


# --------------------------------------------------------------------------- #
def main(argv: list[str] | None = None, out=None) -> int:
    """Entry point; returns a process exit code.

    Malformed input surfaces as one ``error:`` line and exit code 2 — the
    dataset readers raise :class:`~repro.core.errors.DatasetError` with the
    source and line, never a bare ``ValueError`` traceback.
    """
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        if args.command == "mine":
            return _cmd_mine(args, out)
        if args.command == "generate":
            return _cmd_generate(args, out)
        if args.command == "intersect":
            return _cmd_intersect(args, out)
        if args.command == "build-index":
            return _cmd_build_index(args, out)
        if args.command == "ingest":
            return _cmd_ingest(args, out)
        if args.command == "delete":
            return _cmd_delete(args, out)
        if args.command == "compact":
            return _cmd_compact(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        if args.command == "repair":
            return _cmd_repair(args, out)
        if args.command == "serve":
            return _cmd_serve(args, out)
        if args.command == "query":
            return _cmd_query(args, out)
    except DatasetError as exc:
        print(f"error: {exc}", file=out)
        return 2
    raise AssertionError("unreachable")  # pragma: no cover


#: Native thread pools NumPy may start on import; ``repro`` uses none of them
#: (its threads are Python threads over the compiled kernel, and its only
#: matrix product is int64, which NumPy computes without BLAS).
NATIVE_POOL_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_native_pools() -> None:
    """Ask BLAS and OpenMP for one thread each, unless the user chose a size.

    OpenBLAS reads its variable once, when NumPy loads it; its worker pool
    otherwise busy-waits on an idle core while the process imports.  Only
    :func:`run` calls this, before anything imports NumPy (``repro.cli``
    itself does not), so a library or test importing ``repro`` keeps
    ``os.environ`` as it found it.
    """
    for name in NATIVE_POOL_VARIABLES:
        os.environ.setdefault(name, "1")


def run() -> int:
    """Process entry point (the ``repro`` script and ``python -m repro.cli``).

    Caps the native thread pools (:func:`cap_native_pools`), runs
    :func:`main`, then freezes the heap, so interpreter exit skips its full
    collection: every command has closed (spills: fsynced) what it wrote.
    A reader that closes the pipe early (``repro mine ... | head``) ends
    the command with exit code 1 and no traceback.
    """
    cap_native_pools()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's documented idiom: the reader is gone, so point stdout at
        # devnull, or the flush at interpreter exit raises the error again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    gc.freeze()
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(run())
