"""Shared plumbing: paths, child processes, statistics and run metadata.

Every program under test runs as its own process, started from the root of
the checkout with ``PYTHONPATH=src``.  A child's wall time runs from just
before ``fork`` to the moment ``wait4`` reaps it, so interpreter start-up,
imports and the last byte written are all inside it; ``wait4`` also returns
the child's own peak resident set (its largest descendant included).
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
STATE_DIR = ROOT / ".perfbench"
RESULTS_DIR = STATE_DIR / "results"


def require_source() -> None:
    """Exit with status 2 unless the program's source sits under ``./src``."""
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro; run from the root "
              "of a checkout", file=sys.stderr)
        raise SystemExit(2)


def child_env(workdir: Path) -> dict:
    """Environment for every child: the checkout's source, temp files in ``workdir``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env.pop("REPRO_FAULTPOINT", None)
    return env


@dataclass
class ProcResult:
    """One finished child process."""

    returncode: int
    start: float           #: perf_counter just before the fork
    end: float             #: perf_counter just after the reap
    peak_rss_mb: float
    stdout: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def ok(self) -> bool:
        return self.returncode == 0


def cli_argv(*args, trace_out=None, regret: bool = False) -> list:
    """Argument vector of one ``repro`` CLI invocation.

    With ``trace_out`` the command runs under ``traced_cli.py``, which writes
    its spans there (``regret`` adds the count-backend probe).
    """
    args = [str(a) for a in args]
    if trace_out is None:
        return [sys.executable, "-m", "repro.cli", *args]
    return [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_out),
            *(["--regret"] if regret else []), "--", *args]


def run_process(argv, env: dict, log: Path, *, timeout: float = 60.0) -> ProcResult:
    """Run ``argv`` to completion; stdout and stderr go to ``log``."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        status, rusage = reap(proc, timeout)
        end = time.perf_counter()
    return ProcResult(
        returncode=status,
        start=start,
        end=end,
        peak_rss_mb=rusage.ru_maxrss / 1024.0 if rusage is not None else 0.0,
        stdout=log.read_text(errors="replace"),
    )


def reap(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc``, killing its session after ``timeout`` seconds.

    Returns ``(exit code, rusage)``; a killed child exits with ``-9``.
    """
    timer = threading.Timer(timeout, kill_group, args=(proc,))
    timer.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the child's whole session (workers included)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def median(values) -> float:
    """Median of a non-empty sequence (0.0 when empty)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values`` (0.0 when empty)."""
    data = sorted(values)
    if not data:
        return 0.0
    rank = max(1, math.ceil(len(data) * q / 100.0))
    return float(data[min(rank, len(data)) - 1])


def quartiles(values) -> tuple:
    """(Q1, median, Q3) the way ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --------------------------------------------------------------------------- #
# Run metadata
# --------------------------------------------------------------------------- #
def git_sha() -> str:
    """HEAD of the checkout, or ``"unknown"`` outside a git repository."""
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_steal() -> tuple:
    """(steal, total) CPU ticks so far, from ``/proc/stat`` ((0, 0) elsewhere).

    Steal is time a virtual CPU was runnable but the host ran someone else;
    a run with a high share of it reads slow for reasons outside the program.
    """
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def environment() -> dict:
    """What makes a stored result interpretable on its own."""
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:  # pragma: no cover - the oracle needs it
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


@dataclass
class RunResult:
    """Everything one workload run produces."""

    workload: str
    seed: int
    trace: bool
    seconds: float
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)      #: name -> (value, unit)
    info: dict = field(default_factory=dict)         #: run metadata
    layers: list = field(default_factory=list)       #: per-layer table rows
    errors: list = field(default_factory=list)       #: first few failure notes
    extra: dict = field(default_factory=dict)        #: measured, outside the catalogue

    def fail(self, note: str) -> None:
        """Count one failed operation and keep its note (first 20 only)."""
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(note)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def summary(self) -> dict:
        """The one-line result object the benchmark prints last."""
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }

    def record(self) -> dict:
        """The full stored result: summary plus metadata and layer table."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "seconds": self.seconds,
            **self.summary(),
            "fail_rate": (self.failed / self.attempted) if self.attempted else 1.0,
            "info": self.info,
            "layers": self.layers,
            "errors": self.errors,
            "extra_metrics": self.extra,
        }


def write_json(path: Path, obj) -> None:
    """Write ``obj`` as JSON, creating parent directories."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True, default=str))
