"""Run one ``repro`` CLI command in this process, with spans around its calls.

Usage: ``python3 perfbench/traced_cli.py OUT.json [--regret] -- <repro args>``

The import of ``repro.cli`` is timed first, then :func:`tracing.install`
wraps the program's public calls and ``repro.cli.main`` runs as the CLI
would.  When it returns, the spans, the end-of-work timestamp and the exit
code are written to ``OUT.json`` and the time that took to ``OUT.json.post``;
the parent aligns spans with its own clock (``perf_counter_ns`` is
``CLOCK_MONOTONIC`` in every process).

``--regret`` additionally times every eligible count backend on the exact
input the planner saw, at the moment the chosen engine finishes, and writes
``chosen / fastest``.  A regret run is not used for any other number.
"""

from __future__ import annotations

import time

START_NS = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

ELIGIBLE = ("batch", "parallel")


def _best_of(fn, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _probe(rec, kind: str, obj, call: str, kwargs) -> None:
    """Time each eligible backend on the counted input; store the regret."""
    from repro.core.batch import BatchPairCounter
    from repro.parallel.executor import ParallelPairCounter
    from repro.parallel.sharded import ShardedPairCounter

    rec.captured["probing"] = True
    times = {}
    try:
        if kind == "collection":
            def run_parallel():
                with ParallelPairCounter(obj) as counter:
                    counter.counts_sorted()
            times["batch"] = _best_of(lambda: BatchPairCounter(obj).counts_sorted())
            times["parallel"] = _best_of(run_parallel)
            chosen = rec.captured.get("count_plans", ["?"])[-1]
        else:
            def run(backend):
                counter = ShardedPairCounter(
                    obj.sharded, compute=backend, workers=obj.workers,
                    result_format=obj.result_format, min_support=obj.min_support)
                counter.block_words = obj.block_words
                if call == "count_result":
                    counter.count_result(bounds=kwargs.get("bounds"))
                else:
                    counter.counts()
            for backend in ELIGIBLE:
                times[backend] = _best_of(lambda: run(backend))
            chosen = obj.plan.backend
    finally:
        rec.captured["probing"] = False
    rec.captured["regret"] = {"chosen": chosen, "seconds": times,
                              "regret": times[chosen] / min(times.values())}


def main() -> int:
    out_path = sys.argv[1]
    regret = "--regret" in sys.argv[2:sys.argv.index("--")]
    argv = sys.argv[sys.argv.index("--") + 1:]

    t0 = time.perf_counter_ns()
    import repro.cli
    t1 = time.perf_counter_ns()

    import tracing

    rec = tracing.Recorder()
    rec.add("import repro.cli", "import", t0, t1)
    if regret:
        rec.captured["probe"] = lambda *a: _probe(rec, *a)
    tracing.install(rec)
    code = repro.cli.main(argv)
    main_end = time.perf_counter_ns()
    sys.stdout.flush()

    widths = rec.captured.get("count_widths")
    source = rec.captured.get("count_source")
    if widths is None and source is not None and source[0] == "collection":
        widths = source[1].device_buffer().widths
    with open(out_path, "w") as fh:
        json.dump({
            "start_ns": START_NS,
            "main_end_ns": main_end,
            "exit": code,
            "spans": rec.spans,
            "pair_bytes": tracing.pair_bytes(widths) if widths is not None else 0,
            "regret": rec.captured.get("regret"),
        }, fh, default=int)
    # The write-out above is the tracer's, not the program's: the parent
    # subtracts it from the process wall (interpreter teardown stays in).
    with open(out_path + ".post", "w") as fh:
        fh.write(str(time.perf_counter_ns() - main_end))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
