"""Shared helpers for the benchmark suite.

Every ``test_fig*.py`` file in this directory regenerates one table or figure
of the paper at a reduced scale (the paper's instances have 10^7 item
occurrences and up to 128,000 distinct items; the defaults here are ~100x
smaller so the whole suite runs in minutes on a laptop).  Each harness prints
the same series the paper plots — the absolute numbers differ (Python +
simulator vs C + a real GTX 285) but the *shape* comparisons (who wins, who
blows up, where the crossover happens) are the reproduction target; see
EXPERIMENTS.md for the side-by-side record.

Scale factors can be raised via the environment variables
``REPRO_BENCH_TOTAL_ITEMS`` and ``REPRO_BENCH_SCALE`` for a closer (slower)
reproduction.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.baselines.apriori import AprioriMiner
from repro.baselines.eclat import EclatMiner
from repro.baselines.fpgrowth import FPGrowthMiner
from repro.datasets.synthetic import generate_density_instance
from repro.datasets.transactions import TransactionDatabase
from repro.mining.pair_mining import BatmapPairMiner

__all__ = [
    "BENCH_TOTAL_ITEMS",
    "BENCH_SCALE",
    "SeriesTable",
    "make_instance",
    "time_call",
    "run_batmap_miner",
    "run_apriori_pairs",
    "run_fpgrowth_pairs",
    "run_eclat_pairs",
    "TIME_LIMIT_SECONDS",
    "ARTIFACT_DIR",
    "BenchArtifact",
    "git_sha",
    "scale_knobs",
]

#: Total instance size (item occurrences); the paper uses 10_000_000.
BENCH_TOTAL_ITEMS = int(os.environ.get("REPRO_BENCH_TOTAL_ITEMS", 60_000))
#: Generic down-scale factor applied to the paper's item counts.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", 0.01))
#: The paper cancels runs after 1800 CPU seconds; the scaled suite uses a
#: proportionally smaller censoring limit.
TIME_LIMIT_SECONDS = float(os.environ.get("REPRO_BENCH_TIME_LIMIT", 20.0))


# --------------------------------------------------------------------------- #
# Machine-readable benchmark artifacts (BENCH_<name>.json)
# --------------------------------------------------------------------------- #
#: Where ``BENCH_<name>.json`` files land; CI uploads this directory from
#: the bench-smoke job and diffs it against the previous run's cache.
ARTIFACT_DIR = Path(os.environ.get("REPRO_BENCH_ARTIFACT_DIR", "bench-artifacts"))


def git_sha() -> str:
    """Current commit SHA: ``GITHUB_SHA`` in CI, ``git rev-parse`` locally."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def scale_knobs() -> dict:
    """Every ``REPRO_BENCH_*`` knob in effect, plus the resolved defaults.

    Recorded in every artifact so a stored run is interpretable on its own —
    a 2x wall-time delta means nothing without knowing both runs' scales.
    """
    knobs = {
        "total_items": BENCH_TOTAL_ITEMS,
        "scale": BENCH_SCALE,
        "time_limit_seconds": TIME_LIMIT_SECONDS,
    }
    for key, value in sorted(os.environ.items()):
        if key.startswith("REPRO_BENCH_"):
            knobs[key] = value
    return knobs


@dataclass
class BenchArtifact:
    """One benchmark run's machine-readable record.

    Created per ``-m bench`` test by the autouse fixture in
    ``benchmarks/conftest.py`` (which fills ``wall_seconds`` and writes the
    file on teardown); benchmarks deepen the record through the
    ``bench_artifact`` fixture — ``add(series_name, value)`` for headline
    numbers, arbitrary ``extra`` keys for anything else.
    """

    name: str
    wall_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    def add(self, key: str, value) -> None:
        self.extra[key] = value

    def payload(self) -> dict:
        payload = {
            "name": self.name,
            "git_sha": git_sha(),
            "recorded_unix": time.time(),
            "python": platform.python_version(),
            "scale": scale_knobs(),
            "wall_seconds": self.wall_seconds,
        }
        # Throughput only when the test declared what it actually processed
        # (``add("total_items_processed", n)``) — a generic knob divided by
        # the wall time would fabricate a series that moves with unrelated
        # configuration.
        processed = self.extra.get("total_items_processed")
        if processed and self.wall_seconds > 0:
            payload["throughput_items_per_second"] = processed / self.wall_seconds
        payload.update(self.extra)
        return payload

    def write(self, directory: Path | None = None) -> Path:
        directory = Path(directory) if directory is not None else ARTIFACT_DIR
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{self.name}.json"
        path.write_text(json.dumps(self.payload(), indent=1, sort_keys=True))
        return path


@dataclass
class SeriesTable:
    """A labelled table of series, printed in the paper's row/column layout."""

    title: str
    x_label: str
    x_values: list = field(default_factory=list)
    series: dict[str, list] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, values: list) -> None:
        self.series[name] = values

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        width = 14
        header = f"{self.x_label:>{width}} | " + " | ".join(
            f"{name:>{width}}" for name in self.series
        )
        lines = [f"== {self.title} ==", header, "-" * len(header)]
        for i, x in enumerate(self.x_values):
            cells = []
            for name in self.series:
                value = self.series[name][i]
                if isinstance(value, float):
                    cells.append(f"{value:>{width}.4g}")
                else:
                    cells.append(f"{str(value):>{width}}")
            lines.append(f"{str(x):>{width}} | " + " | ".join(cells))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.render() + "\n")


def make_instance(n_items: int, density: float = 0.05,
                  total_items: int | None = None, seed: int = 0) -> TransactionDatabase:
    """The paper's synthetic instance, at benchmark scale."""
    return generate_density_instance(
        n_items=n_items,
        density=density,
        total_items=total_items or BENCH_TOTAL_ITEMS,
        rng=seed,
    )


def time_call(fn, *args, **kwargs) -> tuple[float, object]:
    """Wall-clock one call; returns (seconds, result)."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


# --------------------------------------------------------------------------- #
# Miner adapters used by several figures
# --------------------------------------------------------------------------- #
def run_batmap_miner(db: TransactionDatabase, min_support: int = 1, seed: int = 0):
    """Run the batmap pipeline; returns its MiningReport."""
    miner = BatmapPairMiner(compute="device", tile_size=512)
    return miner.mine(db, min_support=min_support, rng=seed)


def run_apriori_pairs(db: TransactionDatabase, min_support: int = 1):
    miner = AprioriMiner(max_size=2)
    result = miner.mine(db.transactions, db.n_items, min_support)
    return result


def run_fpgrowth_pairs(db: TransactionDatabase, min_support: int = 1):
    miner = FPGrowthMiner(max_size=2)
    pairs = miner.mine_pairs(db.transactions, db.n_items, min_support)
    return miner, pairs


def run_eclat_pairs(db: TransactionDatabase, min_support: int = 1):
    miner = EclatMiner(max_size=2)
    return miner.mine_pairs(db.transactions, db.n_items, min_support)
