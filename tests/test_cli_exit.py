"""Process exit: what ``repro`` writes is complete without the exit-time GC.

The process entry point (:func:`repro.cli.run`, behind the console script
and ``python -m repro.cli``) freezes the heap after :func:`repro.cli.main`
returns, so interpreter exit skips its final full collection.  Nothing may
depend on that collection: every file is closed (spills also fsynced)
before ``main`` returns.  These tests run the real entry point in child
processes and compare what they leave behind with in-process runs.
"""

from __future__ import annotations

import gc
import io
import os
import subprocess
import sys
from pathlib import Path

from repro import cli

SRC = Path(__file__).resolve().parents[1] / "src"


def _repro(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "repro.cli", *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def _fimi(tmp_path: Path) -> Path:
    path = tmp_path / "db.fimi"
    out = io.StringIO()
    assert cli.main(["generate", str(path), "--items", "60", "--density", "0.1",
                     "--total-items", "6000", "--seed", "4"], out=out) == 0
    return path


def test_main_never_freezes_the_heap(tmp_path):
    before = gc.get_freeze_count()
    assert cli.main(["mine", str(_fimi(tmp_path)), "--min-support", "3"],
                    out=io.StringIO()) == 0
    assert gc.get_freeze_count() == before


def test_pairs_file_of_a_process_equals_the_in_process_one(tmp_path):
    data = _fimi(tmp_path)
    argv = ["mine", data, "--min-support", "3", "--seed", "2"]
    assert cli.main([*map(str, argv), "--pairs-out", str(tmp_path / "inproc.txt")],
                    out=io.StringIO()) == 0
    for extra in ([], ["--stream", "--memory-budget", "1M"]):
        done = _repro(*argv, *extra, "--pairs-out", tmp_path / "proc.txt")
        assert done.returncode == 0, done.stdout + done.stderr
        assert (tmp_path / "proc.txt").read_bytes() == (tmp_path / "inproc.txt").read_bytes()


def test_spill_written_by_processes_verifies_clean(tmp_path):
    data, spill = _fimi(tmp_path), tmp_path / "spill"
    extra = tmp_path / "extra.sets"
    extra.write_text("1 5 9\n2 3\n7 8 9 10\n")
    for args in (["build-index", data, spill, "--memory-budget", "1M", "--family", "lazy"],
                 ["ingest", spill, extra, "--append"],
                 ["delete", spill, "--sets", "0", "4"],
                 ["compact", spill, "--full"]):
        done = _repro(*args)
        assert done.returncode == 0, done.stdout + done.stderr
    verified = _repro("verify", spill)
    assert verified.returncode == 0, verified.stdout
    assert verified.stdout.strip().splitlines()[-1] == "clean"
    assert "warning" not in verified.stdout


def test_reader_closing_the_pipe_ends_without_a_traceback(tmp_path):
    """``repro mine ... | head -1``: exit 1, nothing on stderr."""
    data = tmp_path / "dense.fimi"
    data.write_text(" ".join(map(str, range(100))) + "\n")  # 4950 pairs, ~150 KB
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "mine", str(data), "--min-support", "1",
         "--top", "5000"], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"loaded ")
    proc.stdout.close()  # the output is larger than a pipe buffer: the next write fails
    stderr = proc.stderr.read().decode()
    proc.wait(timeout=120)
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr
    assert proc.returncode == 1
