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


#: Modules ``repro mine`` must never load: process pools, ``numpy.ma`` (the
#: first ``np.unique``/``np.isin`` imports it) and the levelwise miners.
NEVER_MINED = ["multiprocessing", "concurrent.futures.process", "numpy.ma",
               "repro.mining.itemsets", "repro.mining.levelwise"]

#: Every ``repro`` module ``repro mine`` loads in memory; ``--stream`` adds
#: ``repro.parallel.sharded``.  A change here is a start-up cost: add a
#: module only on purpose.
MINE_MODULES = sorted("""
repro repro._version repro.cli repro.core repro.core.batch repro.core.batmap
repro.core.builder repro.core.bulk_build repro.core.collection repro.core.config
repro.core.errors repro.core.hashing repro.core.integrity repro.core.intersection
repro.core.plan repro.core.results repro.core.sharded repro.core.swar
repro.core.swar_kernel repro.datasets repro.datasets.fimi_io
repro.datasets.streaming repro.datasets.transactions repro.gpu repro.gpu.device
repro.mining repro.mining.pair_mining repro.mining.postprocess
repro.mining.preprocess repro.mining.support repro.parallel
repro.parallel.executor repro.utils repro.utils.arrays
repro.utils.bits repro.utils.faultpoints repro.utils.memory repro.utils.rng
repro.utils.timer repro.utils.validation
""".split())


def test_mine_import_snapshot(tmp_path):
    """Pin what ``repro mine`` loads, in memory and with ``--stream``."""
    path = tmp_path / "db.fimi"
    path.write_text("0 1 2\n1 2\n0 2 3\n2 3\n0 1 2 3\n" * 20)
    code = (
        "import io, json, sys, repro.cli\n"
        "seen = []\n"
        "for extra in ([], ['--stream', '--memory-budget', '64M']):\n"
        f"    argv = ['mine', {str(path)!r}, '--compute', 'auto', *extra]\n"
        "    assert repro.cli.main(argv, out=io.StringIO()) == 0\n"
        "    seen.append(sorted(m for m in sys.modules\n"
        "                       if m == 'repro' or m.startswith('repro.')))\n"
        f"seen.append(sorted(m for m in {NEVER_MINED!r} if m in sys.modules))\n"
        "print(json.dumps(seen))"
    )
    in_memory, streamed, forbidden = _run_fresh(code)
    assert forbidden == []
    assert in_memory == MINE_MODULES
    assert streamed == sorted(MINE_MODULES + ["repro.parallel.sharded"])


#: Every ``repro`` module ``repro delete`` loads: attach, tombstone, commit.
DELETE_MODULES = sorted("""
repro repro._version repro.cli repro.core repro.core.config repro.core.errors
repro.core.hashing repro.core.integrity repro.core.sharded repro.utils
repro.utils.arrays repro.utils.bits repro.utils.faultpoints repro.utils.rng
repro.utils.validation
""".split())

#: ``repro delete`` builds and counts nothing: none of these may load (nor
#: OpenSSL's ``_hashlib``: the spill digests use the built-in blake2b).
NEVER_DELETED = ["_hashlib", "numpy.ma", "numpy.random", "repro.core.batch",
                 "repro.core.bulk_build"]

#: ``repro ingest --append`` adds the build path (and the planner it asks).
INGEST_MODULES = sorted(DELETE_MODULES + """
repro.core.batch repro.core.batmap repro.core.builder repro.core.bulk_build
repro.core.collection repro.core.intersection repro.core.plan repro.core.results
repro.core.swar repro.core.swar_kernel repro.datasets repro.datasets.fimi_io
repro.datasets.streaming repro.datasets.transactions repro.parallel
repro.parallel.executor repro.utils.memory
""".split())


#: ``repro compact --full`` adds the merge (and budget parsing) to ``delete``.
COMPACT_MODULES = sorted(DELETE_MODULES + ["repro.core.compaction", "repro.utils.memory"])


def _spill(tmp_path) -> Path:
    sets = tmp_path / "base.sets"
    sets.write_text("".join(f"{i} {i + 3} {2 * i + 7}\n" for i in range(40)))
    spill = tmp_path / "spill"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for argv in (["build-index", str(sets), str(spill), "--sets-file"],
                 ["delete", str(spill), "--sets", "5"]):
        subprocess.run([sys.executable, "-m", "repro.cli", *argv], env=env, check=True,
                       capture_output=True, timeout=120)
    return spill


def test_mutation_import_snapshots(tmp_path):
    """Pin what ``repro delete``, ``ingest --append`` and ``compact --full`` load."""
    spill = _spill(tmp_path)
    extra = tmp_path / "extra.sets"
    extra.write_text("1 4 9\n2 8\n")
    snapshot = (
        "import io, json, sys, repro.cli\n"
        "assert repro.cli.main(ARGV, out=io.StringIO()) == 0\n"
        "print(json.dumps([sorted(m for m in sys.modules\n"
        "                         if m == 'repro' or m.startswith('repro.')),\n"
        f"                  sorted(m for m in {NEVER_DELETED!r} if m in sys.modules)]))"
    )
    deleted, forbidden = _run_fresh(snapshot.replace(
        "ARGV", repr(["delete", str(spill), "--sets", "3"])))
    assert forbidden == []
    assert deleted == DELETE_MODULES
    ingested, forbidden = _run_fresh(snapshot.replace(
        "ARGV", repr(["ingest", str(spill), str(extra), "--append"])))
    assert ingested == INGEST_MODULES
    assert "_hashlib" not in forbidden
    compacted, forbidden = _run_fresh(snapshot.replace(
        "ARGV", repr(["compact", str(spill), "--full"])))
    assert compacted == COMPACT_MODULES
    assert forbidden == []


#: Every ``repro`` module ``repro serve`` has loaded when it prints
#: ``serving on``: attach, the query engine and the asyncio server.
SERVE_MODULES = sorted("""
repro repro._version repro.cli repro.core repro.core.batch repro.core.batmap
repro.core.builder repro.core.config repro.core.errors repro.core.hashing
repro.core.integrity repro.core.intersection repro.core.results repro.core.sharded
repro.core.swar repro.core.swar_kernel repro.extensions repro.extensions.multiway
repro.serve repro.serve.batcher repro.serve.cache repro.serve.engine
repro.serve.metrics repro.serve.protocol repro.serve.server repro.utils
repro.utils.arrays repro.utils.bits repro.utils.faultpoints repro.utils.rng
repro.utils.validation
""".split())

#: ``repro query`` is a JSON client: no NumPy, no asyncio, no engine.
NEVER_QUERIED = ["asyncio", "numpy", "repro.core.sharded", "repro.serve.engine"]


def test_serve_and_query_import_snapshots(tmp_path):
    """Pin what ``repro serve`` loads up to ``serving on``, and ``repro query``."""
    spill = _spill(tmp_path)
    ready = (
        "import io, json, os, sys, repro.cli\n"
        "class Ready(io.StringIO):\n"
        "    def write(self, text):\n"
        "        if text.startswith('serving on'):\n"
        "            print(json.dumps(sorted(m for m in sys.modules\n"
        "                                    if m == 'repro' or m.startswith('repro.'))),\n"
        "                  flush=True)\n"
        "            os._exit(0)\n"
        "        return super().write(text)\n"
        f"repro.cli.main(['serve', {str(spill)!r}, '--port', '0'], out=Ready())\n"
    )
    assert _run_fresh(ready) == SERVE_MODULES
    query = (
        "import io, json, sys, repro.cli\n"
        "repro.cli.main(['query', '127.0.0.1:1', '{\"op\": \"stats\"}', '--timeout', '1'],\n"
        "               out=io.StringIO())\n"
        f"print(json.dumps([m for m in {NEVER_QUERIED!r} if m in sys.modules]))"
    )
    assert _run_fresh(query) == []
