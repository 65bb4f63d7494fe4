"""``import repro.cli`` loads only what every subcommand needs.

Subcommand-only modules (the server and asyncio, the baseline miners, the
matrix extension) are imported inside their ``_cmd_*`` functions, so
``repro mine`` does not pay for them at start-up.  Mining itself never
loads the GPU simulator, the kernel driver or the baseline miners: they
are modelling and comparison tools, not counting engines.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ["asyncio", "repro.serve", "repro.baselines", "repro.matrix"]
#: Modules ``repro mine`` must never load (prefix match covers subpackages).
NOT_MINED = ["repro.kernels.driver", "repro.gpu.executor", "repro.baselines"]


def _run_fresh(code: str) -> list:
    """Run ``code`` in a fresh interpreter; return the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    return json.loads(result.stdout.splitlines()[-1])


def test_import_defers_subcommand_modules():
    code = ("import json, sys, repro.cli; "
            f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))")
    assert _run_fresh(code) == []


def test_mine_never_loads_simulator_or_baselines(tmp_path):
    path = tmp_path / "db.fimi"
    path.write_text("0 1 2\n1 2\n0 2 3\n2 3\n0 1 2 3\n" * 20)
    code = (
        "import io, json, sys, repro.cli\n"
        "for extra in ([], ['--stream', '--memory-budget', '64M']):\n"
        f"    argv = ['mine', {str(path)!r}, '--compute', 'auto', *extra]\n"
        "    assert repro.cli.main(argv, out=io.StringIO()) == 0\n"
        f"print(json.dumps(sorted(m for m in sys.modules "
        f"if m.startswith(tuple({NOT_MINED!r})))))"
    )
    assert _run_fresh(code) == []
