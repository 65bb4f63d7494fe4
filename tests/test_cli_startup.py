"""Process start-up: the native thread pools are capped before NumPy loads.

NumPy's OpenBLAS starts a worker pool when it is loaded, and on a small
host that worker spins while the main thread is still importing; ``repro``
never calls BLAS.  Both process entry points (``python -m repro.cli`` and
the ``repro`` console script) set ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 unless the user chose a
value, and a library ``import repro.cli`` leaves the environment alone.

The children record the three variables at the moment ``numpy`` is first
imported, through an audit hook installed by a ``sitecustomize`` module.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import NATIVE_POOL_VARIABLES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

RECORDER = """
import json, os, sys

NAMES = {names!r}
seen = {{}}


def _on_import(event, args):
    if event == "import" and args[0] == "numpy" and not seen:
        seen.update({{name: os.environ.get(name) for name in NAMES}})


sys.addaudithook(_on_import)
import atexit

atexit.register(lambda: open(os.environ["STARTUP_RECORD"], "w").write(json.dumps(seen)))
"""


def _env(tmp_path: Path, **extra) -> dict:
    hook_dir = tmp_path / "hook"
    hook_dir.mkdir(exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(
        RECORDER.format(names=list(NATIVE_POOL_VARIABLES)))
    env = {k: v for k, v in os.environ.items() if k not in NATIVE_POOL_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(hook_dir), str(SRC),
                                                      env.get("PYTHONPATH")]))
    env["STARTUP_RECORD"] = str(tmp_path / "record.json")
    env.update(extra)
    return env


def _console_script(tmp_path: Path) -> Path:
    """The wrapper pip installs for the ``repro`` entry of ``[project.scripts]``."""
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1]
    module, attr = re.search(r'^repro\s*=\s*"([\w.]+):(\w+)"', scripts, re.M).groups()
    script = tmp_path / "repro"
    script.write_text(f"import sys\nfrom {module} import {attr}\n"
                      f"if __name__ == '__main__':\n    sys.exit({attr}())\n")
    return script


@pytest.fixture(params=["module", "console-script"])
def entry(request, tmp_path):
    if request.param == "module":
        return [sys.executable, "-m", "repro.cli"]
    return [sys.executable, str(_console_script(tmp_path))]


def _numpy_saw(entry, tmp_path: Path, **extra) -> dict:
    argv = [*entry, "generate", str(tmp_path / "d.fimi"), "--items", "6",
            "--total-items", "60"]
    done = subprocess.run(argv, env=_env(tmp_path, **extra), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads((tmp_path / "record.json").read_text())


def test_entry_points_cap_the_pools_before_numpy_loads(entry, tmp_path):
    assert _numpy_saw(entry, tmp_path) == dict.fromkeys(NATIVE_POOL_VARIABLES, "1")


def test_entry_points_keep_a_users_setting(entry, tmp_path):
    seen = _numpy_saw(entry, tmp_path, OPENBLAS_NUM_THREADS="3")
    assert seen == {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}


def test_library_import_leaves_the_environment_alone(tmp_path):
    code = ("import json, os, sys\n"
            "before = dict(os.environ)\n"
            "import repro.cli\n"
            "print(json.dumps([dict(os.environ) == before, 'numpy' in sys.modules]))")
    done = subprocess.run([sys.executable, "-c", code], env=_env(tmp_path),
                          capture_output=True, text=True, timeout=120, check=True)
    # unchanged, and NumPy not loaded yet: the entry points can still cap it
    assert json.loads(done.stdout) == [True, False]
