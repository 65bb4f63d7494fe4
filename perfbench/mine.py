"""The two mining workloads: ``repro mine`` as a whole process, repeated.

``mine-dense``
    In-memory mining of a Bernoulli density instance (the paper's Figs. 6/7
    regime: few items, p = 0.05), dense result, every pair written with
    ``--pairs-out``.  Bulk build and SWAR counting do the work; spills and
    serving do none.
``mine-zipf-stream``
    Out-of-core mining of a WebDocs-like Zipfian file (the Fig. 10 regime)
    under a 64M budget with the sparse result: three streaming passes, shard
    spill and commit, sharded counting, tile pruning and the repair rescan.

An untraced run times back-to-back invocations (a closed loop of one user)
until ``--seconds`` have passed.  A traced run spends part of its time on
untraced invocations, part on traced ones (``traced_cli.py``), and ends with
one regret invocation; the per-layer numbers are medians over the traced
invocations and ``trace.overhead_frac`` compares the two kinds of wall.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import inputs
import tracing
from common import RunResult, child_env, cli_argv, median, run_process

SETUP_REPEATS = 5
MIN_INVOCATIONS = 3


@dataclass(frozen=True)
class MineSpec:
    """One mining workload: how its input is made and how ``repro mine`` runs."""

    generate: Callable          #: rng -> list of transactions (sorted item arrays)
    n_items: int
    min_support: int
    mine_args: tuple


SPECS = {
    "mine-dense": MineSpec(
        partial(inputs.density_transactions, n_items=400, density=0.05,
                total_items=300_000),
        n_items=400, min_support=2, mine_args=()),
    "mine-zipf-stream": MineSpec(
        partial(inputs.zipf_documents, n_docs=3000, vocabulary=5000),
        n_items=5000, min_support=40,
        mine_args=("--stream", "--memory-budget", "64M", "--result-format", "sparse")),
}


def make_inputs(spec: MineSpec, seed: int, workdir):
    """Write the seeded FIMI file; return (path, expected pairs bytes, sizes)."""
    transactions = spec.generate(np.random.default_rng(seed))
    path = workdir / "input.fimi"
    nbytes = inputs.write_sets(path, transactions)
    expected = inputs.frequent_pairs_text(transactions, spec.n_items, spec.min_support)
    sizes = {
        "items": spec.n_items,
        "transactions": len(transactions),
        "occurrences": int(sum(t.size for t in transactions)),
        "input_bytes": nbytes,
        "frequent_pairs": expected.count(b"\n"),
        "min_support": spec.min_support,
    }
    return path, expected, sizes


def mine_args(spec: MineSpec, path, out, seed: int) -> list:
    return ["mine", path, "--min-support", spec.min_support, "--compute", "auto",
            "--build-compute", "auto", "--seed", seed, *spec.mine_args,
            "--pairs-out", out]


def _backend(stdout: str, label: str) -> str:
    match = re.search(rf"^{label} backend: (\S+)", stdout, re.M)
    return match.group(1) if match else "?"


class Invoker:
    """Runs and checks ``repro mine`` invocations of one workload."""

    def __init__(self, spec, path, expected, seed, workdir, result: RunResult):
        self.spec, self.path, self.expected, self.seed = spec, path, expected, seed
        self.workdir, self.result = workdir, result
        self.env = child_env(workdir)
        self.n = 0
        self.backends: dict = {}

    def run(self, trace_out=None, regret: bool = False):
        """One invocation; returns the ProcResult (failures counted)."""
        self.n += 1
        out = self.workdir / "pairs.txt"
        out.unlink(missing_ok=True)
        argv = cli_argv(*mine_args(self.spec, self.path, out, self.seed),
                        trace_out=trace_out, regret=regret)
        proc = run_process(argv, self.env, self.workdir / f"mine-{self.n}.log")
        self.result.attempted += 1
        if not proc.ok:
            self.result.fail(f"exit {proc.returncode}: {proc.stdout[-300:]}")
        elif not out.is_file() or out.read_bytes() != self.expected:
            self.result.fail("pairs-out differs from the oracle")
        self.backends = {"count": _backend(proc.stdout, "count"),
                         "build": _backend(proc.stdout, "build")}
        return proc


def run(spec: MineSpec, seed: int, seconds: float, trace: bool, workdir,
        result: RunResult) -> None:
    """Set up, measure for ``seconds``, and fill ``result``."""
    make_inputs(spec, seed, workdir)     # untimed: first-use imports (scipy)
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        path, expected, sizes = make_inputs(spec, seed, workdir)
        setup.append(time.perf_counter() - t0)
    invoker = Invoker(spec, path, expected, seed, workdir, result)
    result.info.update(sizes=sizes, setup_s_samples=setup)

    if not trace:
        procs = _loop(invoker, seconds)
        walls = [p.wall_s for p in procs]
        result.metric("wall_s", median(walls), "s")
        result.metric("peak_rss_mb", max(p.peak_rss_mb for p in procs), "MB")
        result.metric("setup_s", median(setup), "s")
        result.info.update(wall_s_samples=walls, backends=invoker.backends)
        return

    untraced = _loop(invoker, 0.35 * seconds)
    traced, folds, spans_all = [], [], []
    deadline = time.perf_counter() + 0.45 * seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        trace_file = workdir / f"trace-{len(traced)}.json"
        proc = invoker.run(trace_out=trace_file)
        if not proc.ok:
            break
        data, wall = tracing.load_trace(trace_file, proc)
        folds.append(tracing.fold(data["spans"], wall, data["pair_bytes"]))
        traced.append(proc)
        spans_all.append((proc, data, wall))
    regret_file = workdir / "trace-regret.json"
    proc = invoker.run(trace_out=regret_file, regret=True)
    regret = json.loads(regret_file.read_text())["regret"] if proc.ok else None

    metrics = {key: median(f[key] for f in folds) for key in folds[0]} if folds else {}
    metrics["plan.regret"] = regret["regret"] if regret else 0.0
    metrics["trace.overhead_frac"] = (
        median(p.wall_s for p in traced) / median(p.wall_s for p in untraced) - 1.0
        if traced and untraced else 0.0)
    for name, value in metrics.items():
        result.metrics[name] = (float(value), None)
    result.info.update(backends=invoker.backends, regret=regret,
                       traced_walls=[p.wall_s for p in traced],
                       untraced_walls=[p.wall_s for p in untraced])
    if spans_all:
        proc, data, wall = spans_all[-1]
        result.layers = tracing.layer_table(data["spans"], wall)
        result.info["layer_wall_s"] = wall
        result.info["chrome_trace"] = tracing.chrome_trace(
            [s for _, d, _ in spans_all for s in d["spans"]],
            int(spans_all[0][0].start * 1e9))


def _loop(invoker: Invoker, seconds: float) -> list:
    """Untraced invocations until ``seconds`` pass (at least MIN_INVOCATIONS)."""
    procs = []
    deadline = time.perf_counter() + seconds
    while len(procs) < MIN_INVOCATIONS or time.perf_counter() < deadline:
        procs.append(invoker.run())
    return procs
