"""``import repro.cli`` loads only what every subcommand needs.

Subcommand-only modules (the server and asyncio, the baseline miners, the
matrix extension) are imported inside their ``_cmd_*`` functions, so
``repro mine`` does not pay for them at start-up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ["asyncio", "repro.serve", "repro.baselines", "repro.matrix"]


def test_import_defers_subcommand_modules():
    code = ("import json, sys, repro.cli; "
            f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert json.loads(result.stdout) == []
