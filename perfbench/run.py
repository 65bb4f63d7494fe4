"""The repository benchmark: one whole-process workload per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mine-dense --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1  # every workload

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with spans around the program's public
calls and reports the per-layer metrics, printing a per-layer table and
writing a Chrome trace (open it in Perfetto) under ``.perfbench/results/``.
Every run also stores its full record there (seed, input sizes, versions,
backends, samples); ``--record FILE`` appends it to a JSON-lines file that
``perfbench/compare.py`` reads.  The last line of standard output is the
result object: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads (inputs are generated from ``--seed``; outputs are checked):
``mine-dense`` and ``mine-zipf-stream`` (see ``mine.py``) and
``serve-mixed`` (see ``serve.py``).

End-to-end metrics, one value per run, reported by every workload:

``wall_s``       median whole-process wall of the workload's CLI command:
                 ``repro mine`` (mine-*); an append or delete from process
                 start to the server's ``reload`` acknowledgement (serve-mixed).
``peak_rss_mb``  largest resident set of any process the run measured.
``setup_s``      median of repeated set-ups: input generation and oracle, plus
                 ``build-index`` and server attach for serve-mixed.

A non-zero exit, a wrong answer, an error response or a timeout counts in
``failed`` out of ``attempted``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

from common import (RESULTS_DIR, ROOT, SRC, STATE_DIR, RunResult, child_env, cpu_steal,
                    environment, require_source, write_json)

WORKLOADS = ("mine-dense", "mine-zipf-stream", "serve-mixed")


def load_spec() -> dict:
    """The metric catalogue: ``BENCHMARK.json`` at the checkout root."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        print(f"perfbench: {path} not found", file=sys.stderr)
        raise SystemExit(2)
    return json.loads(path.read_text())


def warm_bytecode(env: dict) -> None:
    """Compile the program once, so no measured process pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
                   cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=False, timeout=300)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    """Run one workload in a fresh work directory; return its result."""
    import mine

    result = RunResult(workload=name, seed=seed, trace=trace, seconds=seconds)
    workdir = STATE_DIR / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        warm_bytecode(child_env(workdir))
        result.info.update(environment())
        steal0, total0 = cpu_steal()
        t0 = time.perf_counter()
        if name in mine.SPECS:
            mine.run(mine.SPECS[name], seed, seconds, trace, workdir, result)
        else:
            import serve
            serve.run(seed, seconds, trace, workdir, result)
        result.info["run_wall_s"] = time.perf_counter() - t0
        steal1, total1 = cpu_steal()
        result.info["cpu_steal_frac"] = ((steal1 - steal0) / (total1 - total0)
                                         if total1 > total0 else 0.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def select_metrics(result: RunResult, spec: dict) -> None:
    """Keep exactly the catalogue's metrics for this mode, with its units.

    A per-layer metric a workload does not exercise reads 0; an end-to-end
    metric must always be measured.
    """
    catalogue = spec["per_layer"] if result.trace else spec["end_to_end"]
    chosen = {}
    for entry in catalogue:
        name = entry["name"]
        if name in result.metrics:
            chosen[name] = (result.metrics[name][0], entry["unit"])
        elif result.trace:
            chosen[name] = (0.0, entry["unit"])
        else:
            raise RuntimeError(f"{result.workload}: end-to-end metric {name} not measured")
    result.extra = {k: v[0] for k, v in result.metrics.items() if k not in chosen}
    result.metrics = chosen


def report(result: RunResult) -> str:
    """Human-readable block: metrics, run facts, per-layer table."""
    import tracing

    lines = [f"== {result.workload} seed={result.seed} trace={int(result.trace)} "
             f"attempted={result.attempted} failed={result.failed} "
             f"fail_rate={result.failed / max(1, result.attempted):.4f}"]
    for name, (value, unit) in result.metrics.items():
        lines.append(f"  {name:<32}{value:>16.6g} {unit}")
    for key in ("sizes", "backends", "lateness_ms", "cpu_steal_frac", "nproc", "python",
                "numpy", "git_sha"):
        if key in result.info:
            lines.append(f"  {key}: {result.info[key]}")
    if result.layers:
        lines.append(tracing.render_table(result.layers, result.info["layer_wall_s"],
                                          "  per-layer self time (traced processes):"))
    for note in result.errors[:5]:
        lines.append(f"  FAILED: {note}")
    return "\n".join(lines)


def store(result: RunResult, record_file) -> None:
    """Write the full record (and the Chrome trace) under ``.perfbench/results``."""
    stem = f"{result.workload}-seed{result.seed}-trace{int(result.trace)}"
    chrome = result.info.pop("chrome_trace", None)
    if chrome is not None:
        trace_path = RESULTS_DIR / f"{stem}.chrome.json"
        write_json(trace_path, chrome)
        result.info["chrome_trace_file"] = str(trace_path.relative_to(ROOT))
    record = result.record()
    write_json(RESULTS_DIR / f"{stem}.json", record)
    if record_file:
        with open(record_file, "a") as fh:
            fh.write(json.dumps(record, default=str) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, metavar="FILE",
                        help="append the full result record to this JSON-lines file")
    args = parser.parse_args(argv)
    require_source()
    sys.path.insert(0, str(SRC))      # the oracles call the program's own engine
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    results = []
    for name in names:
        result = run_workload(name, args.seed, seconds, bool(args.trace))
        select_metrics(result, spec)
        store(result, args.record)
        print(report(result), flush=True)
        results.append(result)

    if len(results) == 1:
        summary = results[0].summary()
    else:
        summary = {
            "correct": all(r.summary()["correct"] for r in results),
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "metrics": {f"{r.workload}.{k}": v for r in results
                        for k, v in r.summary()["metrics"].items()},
        }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
