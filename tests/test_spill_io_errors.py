"""A failing ``fsync`` or ``rename`` ends a spill writer in one ``error:`` line.

``repro ingest --append`` and ``repro delete`` are run in process with
``os.fsync`` / ``os.replace`` failing their Nth call with ``EIO``, for every
N the clean run reaches.  Each run exits non-zero without a traceback and
leaves no staging directory; before the manifest rename the prior
generation verifies clean, and a directory fsync failing after it says the
published generation may not be durable.
"""

from __future__ import annotations

import errno
import io
import os
import shutil

import numpy as np
import pytest

from repro import cli
from repro.core.integrity import verify_spill
from repro.core.manifest import read_manifest
from repro.core.sharded import ShardedCollection


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("io")
    rng = np.random.default_rng(4)
    sets = [np.sort(rng.choice(500, int(rng.integers(20, 60)), replace=False))
            for _ in range(40)]
    ShardedCollection.build(sets, 500, root / "spill", memory_budget=1 << 30, rng=1)
    batch = root / "batch.sets"
    batch.write_text("".join(" ".join(map(str, sorted(rng.choice(500, 30, replace=False))))
                             + "\n" for _ in range(5)))
    return root


def _argv(op, spill, base):
    if op == "ingest":
        return ["ingest", str(spill), str(base / "batch.sets"), "--append"]
    return ["delete", str(spill), "--sets", "3", "7"]


class _Failing:
    """``os.fsync`` and ``os.replace`` counting their calls; call N fails."""

    def __init__(self, monkeypatch, fail_at=None):
        self.calls, self.fail_at = 0, fail_at
        for name in ("fsync", "replace"):
            monkeypatch.setattr(os, name, self._wrap(getattr(os, name)))

    def _wrap(self, real):
        def call(*args, **kwargs):
            self.calls += 1
            if self.calls == self.fail_at:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return real(*args, **kwargs)
        return call


@pytest.mark.parametrize("op", ["ingest", "delete"])
def test_every_failing_call_ends_in_one_error_line(base, tmp_path, monkeypatch, op):
    clean = tmp_path / "clean"
    shutil.copytree(base / "spill", clean)
    with pytest.MonkeyPatch.context() as mp:
        counter = _Failing(mp)
        assert cli.main(_argv(op, clean, base), out=io.StringIO()) == 0
    assert counter.calls >= 4
    for n in range(1, counter.calls + 1):
        spill = tmp_path / f"spill-{n}"
        shutil.copytree(base / "spill", spill)
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            _Failing(mp, fail_at=n)
            code = cli.main(_argv(op, spill, base), out=out)
        lines = out.getvalue().splitlines()
        assert code == 2, (n, lines)
        assert len(lines) == 1 and lines[0].startswith("error: "), (n, lines)
        assert "EIO" in lines[0] and str(spill) in lines[0]
        assert not [p for p in spill.iterdir() if p.name.startswith(".staging-")]
        report = verify_spill(spill)
        assert report.ok, (n, report)
        generation = read_manifest(spill).generation
        if "may not be durable" in lines[0]:
            assert generation == 1 and n == counter.calls
        else:
            assert generation == 0, (n, lines)
