"""Unit tests for the fault-injection registry (:mod:`repro.utils.faultpoints`).

The crash-recovery property test (``tests/test_crash_recovery.py``) trusts
this machinery completely — these tests pin the trust down: the registry is
closed, triggers are one-shot and hit-exact, recording enumerates ordered
kill sites, and the ``REPRO_FAULTPOINT`` environment surface arms a CLI
subprocess at import time and hard-exits with :data:`FAULT_EXIT_CODE`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.utils import faultpoints as fp

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _clean_state():
    fp.disarm()
    yield
    fp.disarm()


class TestRegistry:
    def test_unregistered_name_is_a_programming_error(self):
        with pytest.raises(ValueError, match="unregistered"):
            fp.faultpoint("no.such.point")
        with pytest.raises(ValueError, match="unregistered"):
            fp.arm("no.such.point")

    def test_every_registered_name_is_a_noop_when_disarmed(self):
        for name in fp.KNOWN_FAULTPOINTS:
            fp.faultpoint(name)  # must not raise

    def test_arm_validates_mode_and_hit(self):
        with pytest.raises(ValueError, match="mode"):
            fp.arm("commit.fsync", mode="explode")
        with pytest.raises(ValueError, match="hit"):
            fp.arm("commit.fsync", hit=0)


class TestTrigger:
    def test_oserror_mode_raises_enospc(self):
        import errno

        fp.arm("commit.fsync", mode="oserror")
        with pytest.raises(OSError) as info:
            fp.faultpoint("commit.fsync")
        assert info.value.errno == errno.ENOSPC
        assert not isinstance(info.value, fp.InjectedFault)
        fp.faultpoint("commit.fsync")  # one-shot

    def test_fires_at_exact_hit_count(self):
        fp.arm("commit.rename", hit=3)
        fp.faultpoint("commit.rename")
        fp.faultpoint("commit.rename")
        with pytest.raises(fp.InjectedFault) as excinfo:
            fp.faultpoint("commit.rename")
        assert excinfo.value.name == "commit.rename"
        assert excinfo.value.hit == 3

    def test_trigger_is_one_shot(self):
        fp.arm("commit.manifest")
        with pytest.raises(fp.InjectedFault):
            fp.faultpoint("commit.manifest")
        fp.faultpoint("commit.manifest")  # disarmed by the first firing

    def test_other_names_do_not_advance_the_counter(self):
        fp.arm("delete.tombstones", hit=1)
        fp.faultpoint("commit.fsync")
        fp.faultpoint("compact.merge")
        with pytest.raises(fp.InjectedFault):
            fp.faultpoint("delete.tombstones")

    def test_armed_context_disarms_even_without_firing(self):
        with fp.armed("commit.fsync", hit=99):
            fp.faultpoint("commit.fsync")
        fp.faultpoint("commit.fsync")  # no trigger left behind


class TestRecording:
    def test_records_ordered_hits_and_numbers_sites(self):
        with fp.recording() as rec:
            fp.faultpoint("commit.rename")
            fp.faultpoint("commit.rename")
            fp.faultpoint("commit.manifest")
        assert rec.hits == ["commit.rename", "commit.rename", "commit.manifest"]
        assert rec.sites() == [("commit.rename", 1), ("commit.rename", 2),
                               ("commit.manifest", 1)]

    def test_recording_stops_at_exit(self):
        with fp.recording() as rec:
            fp.faultpoint("commit.fsync")
        fp.faultpoint("commit.fsync")
        assert rec.hits == ["commit.fsync"]


class TestEnvironmentSurface:
    def _run(self, code: str, env_extra: dict) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=SRC, **env_extra)
        return subprocess.run([sys.executable, "-c", code],
                              env=env, capture_output=True, text=True,
                              timeout=60)

    def test_env_arms_exit_mode_by_default(self):
        proc = self._run(
            "from repro.utils.faultpoints import faultpoint\n"
            "faultpoint('commit.manifest')\n"
            "print('survived')",
            {"REPRO_FAULTPOINT": "commit.manifest"})
        assert proc.returncode == fp.FAULT_EXIT_CODE
        assert "survived" not in proc.stdout

    def test_env_hit_selects_the_kth_call(self):
        proc = self._run(
            "from repro.utils.faultpoints import faultpoint\n"
            "faultpoint('commit.rename')\n"
            "print('one down')\n"
            "faultpoint('commit.rename')",
            {"REPRO_FAULTPOINT": "commit.rename", "REPRO_FAULTPOINT_HIT": "2"})
        assert proc.returncode == fp.FAULT_EXIT_CODE
        assert "one down" in proc.stdout

    def test_env_raise_mode(self):
        proc = self._run(
            "from repro.utils.faultpoints import faultpoint, InjectedFault\n"
            "try:\n"
            "    faultpoint('commit.fsync')\n"
            "except InjectedFault as exc:\n"
            "    print('caught', exc.name)",
            {"REPRO_FAULTPOINT": "commit.fsync",
             "REPRO_FAULTPOINT_MODE": "raise"})
        assert proc.returncode == 0
        assert "caught commit.fsync" in proc.stdout

    def test_env_oserror_mode(self):
        proc = self._run(
            "import errno\n"
            "from repro.utils.faultpoints import faultpoint\n"
            "try:\n"
            "    faultpoint('commit.rename')\n"
            "except OSError as exc:\n"
            "    print('caught', exc.errno == errno.ENOSPC)",
            {"REPRO_FAULTPOINT": "commit.rename",
             "REPRO_FAULTPOINT_MODE": "oserror"})
        assert proc.returncode == 0
        assert "caught True" in proc.stdout

    def test_env_rejects_unregistered_name_at_import(self):
        proc = self._run("import repro.utils.faultpoints",
                         {"REPRO_FAULTPOINT": "bogus.point"})
        assert proc.returncode != 0
        assert "bogus.point" in proc.stderr
