"""Compare benchmark results of two commits against the benchmark's own bounds.

Usage::

    python3 perfbench/run.py --workload mine-dense --seed 1 --record base.jsonl   # per seed
    ...                                                   # same on the change: new.jsonl
    python3 perfbench/compare.py base.jsonl new.jsonl

Each side is a JSON-lines file written with ``run.py --record`` (or a
directory of stored records such as ``.perfbench/results``).  For every
(end-to-end metric, workload) pair present on both sides it prints each
side's median and quartiles and a verdict:

``regression``  the change's median is worse than the parent's by more than
                the metric's ``bound`` in ``BENCHMARK.json``;
``better``      better by more than the bound;
``same``        within the bound;
``unresolved``  either side's spread (quartile distance over median) exceeds
                the bound, unless every run of the change beats every run of
                the parent (then ``better``) or loses to it (``regression``).

Exits 1 if any pair regressed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import quartiles


def load_records(path: Path) -> list:
    """Untraced run records from a JSON-lines file or a directory of records."""
    if path.is_dir():
        records = [json.loads(p.read_text()) for p in sorted(path.glob("*.json"))]
    else:
        records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    return [r for r in records if isinstance(r, dict) and "workload" in r and not r.get("trace")]


def samples(records: list, workload: str, metric: str) -> list:
    return [r["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and metric in r.get("metrics", {})]


def verdict(base: list, new: list, bound: float, lower_is_better: bool) -> tuple:
    """(verdict, relative change of the median, oriented so positive is worse)."""
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if lower_is_better else -1.0
    change = sign * (nm - bm) / bm if bm else 0.0
    spread = max((b3 - b1) / bm if bm else 0.0, (n3 - n1) / nm if nm else 0.0)
    if spread > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "better", change
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "regression", change
        return "unresolved", change
    if change > bound:
        return "regression", change
    if change < -bound:
        return "better", change
    return "same", change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path, help="results of the parent commit")
    parser.add_argument("new", type=Path, help="results of the change")
    parser.add_argument("--benchmark", type=Path, default=Path("BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    base, new = load_records(args.base), load_records(args.new)
    workloads = [w["name"] for w in spec["workloads"]]

    regressions = 0
    print(f"{'workload':<18}{'metric':<13}{'side':<8}{'median':>11}{'q1':>11}{'q3':>11}"
          f"{'n':>4}{'worse by':>10}{'bound':>7}  verdict")
    for workload in workloads:
        for entry in spec["end_to_end"]:
            b = samples(base, workload, entry["name"])
            n = samples(new, workload, entry["name"])
            if not b or not n:
                continue
            result, change = verdict(b, n, entry["bound"], entry["better"] == "lower")
            regressions += result == "regression"
            for side, values in (("parent", b), ("change", n)):
                q1, q2, q3 = quartiles(values)
                tail = (f"{100 * change:>+9.1f}%{entry['bound']:>7.2f}  {result}"
                        if side == "change" else "")
                print(f"{workload:<18}{entry['name']:<13}{side:<8}{q2:>11.5g}{q1:>11.5g}"
                      f"{q3:>11.5g}{len(values):>4}{tail}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
