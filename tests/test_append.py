"""The standard-library append writes what the NumPy builder writes.

:func:`repro.core.append.append_sets` (what ``repro ingest --append`` and
:meth:`repro.core.sharded.ShardedCollection.append` run) and
:meth:`repro.core.sharded.ShardedCollectionBuilder.append` (the NumPy
builder, kept as the fallback and the reference) must leave byte-identical
spill trees — every shard array, manifest and family file — across family
kinds, payload widths, host, bulk and threaded engines, forced failures and
``--memory-budget`` splits; and the compiled sets-file parser must accept
and refuse exactly what the NumPy FIMI reader does.
"""

from __future__ import annotations

import io
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import cli
from repro.core import bulk_build, plan, swar_kernel
from repro.core.append import append_sets
from repro.core.config import BatmapConfig
from repro.core.errors import DataFormatError, SpillFormatError
from repro.core.plan import BULK_BUILD_MIN_ELEMENTS
from repro.core.sharded import ShardedCollection, ShardedCollectionBuilder
from repro.datasets.fimi_grammar import read_sets_file
from repro.datasets.fimi_io import read_sets_arrays

native_only = pytest.mark.skipif(
    swar_kernel.kernel_status() != "native",
    reason=f"compiled kernel unavailable: {swar_kernel.kernel_status()}")


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _sets(rng, n, universe, low, high):
    return [np.sort(rng.choice(universe, int(rng.integers(low, high + 1)), replace=False))
            for _ in range(n)]


def _base(tmp_path, rng, family, payload_bits, max_loop):
    universe = 900
    config = BatmapConfig(payload_bits=payload_bits, max_loop=max_loop)
    spill = tmp_path / "base"
    ShardedCollection.build(_sets(rng, 30, universe, 1, 40), universe, spill,
                            memory_budget=1 << 30, config=config, rng=7,
                            family_kind=family)
    return spill, config


def _builder_append(spill, sets, **options):
    """The reference: the NumPy builder's append on an attached spill."""
    universe_size = options.pop("universe_size", None)
    builder = ShardedCollectionBuilder.for_append(ShardedCollection.from_spill(spill),
                                                  **options)
    return builder.append(sets, universe_size=universe_size)


def _copies(tmp_path, spill):
    fast, reference = tmp_path / "fast", tmp_path / "reference"
    shutil.copytree(spill, fast)
    shutil.copytree(spill, reference)
    return fast, reference


@native_only
@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 2**31), family=st.sampled_from(["eager", "lazy"]),
       payload_bits=st.sampled_from([5, 7]), large=st.booleans(),
       max_loop=st.sampled_from([None, 1]), budget=st.sampled_from([None, 40_000]))
def test_append_matches_the_builder_byte_for_byte(tmp_path_factory, seed, family,
                                                   payload_bits, large, max_loop, budget):
    tmp_path = tmp_path_factory.mktemp("append")
    rng = np.random.default_rng(seed)
    spill, config = _base(tmp_path, rng, family, payload_bits, max_loop)
    # sizes >= the base's smallest set keep r0; totals straddle the bulk floor
    sets = _sets(rng, 60 if large else 8, 900, 40, 120 if large else 60)
    total = sum(s.size for s in sets)
    assert (total >= BULK_BUILD_MIN_ELEMENTS) == large
    fast, reference = _copies(tmp_path, spill)
    budget_bytes = None if budget is None else budget + (48 * 900 + 8 * 30 * 30)
    manifest, before = append_sets(fast, [s.tolist() for s in sets],
                                   memory_budget=budget_bytes, config=config)
    _builder_append(reference, sets, memory_budget=budget_bytes, config=config)
    assert before == 30
    assert _tree(fast) == _tree(reference)
    if budget is not None and large:
        assert len(manifest.shards) > 2  # the budget split the delta


@native_only
def test_threaded_append_matches_the_builder(tmp_path, monkeypatch):
    """A ``parallel`` plan places its chunks on threads, as the builder does."""
    monkeypatch.setattr(plan, "PARALLEL_BUILD_MIN_SETS", 4)
    monkeypatch.setattr(plan, "PARALLEL_BUILD_MIN_ELEMENTS", 256)
    rng = np.random.default_rng(11)
    spill, config = _base(tmp_path, rng, "eager", 7, None)
    sets = _sets(rng, 40, 900, 40, 300)
    fast, reference = _copies(tmp_path, spill)
    manifest, _ = append_sets(fast, [s.tolist() for s in sets], build_workers=2)
    _builder_append(reference, sets, build_workers=2)
    assert manifest.shards[-1]["build_backend"] == "parallel"
    assert _tree(fast) == _tree(reference)


@native_only
@pytest.mark.parametrize("case", ["lowers-r0", "grows"])
def test_numpy_paths_match_too(tmp_path, case):
    """An append that lowers ``r0`` or grows a lazy universe runs the builder."""
    rng = np.random.default_rng(3)
    spill, config = _base(tmp_path, rng, "lazy", 7, None)
    sets = [[1, 2]] if case == "lowers-r0" else [list(range(850, 960, 3))]
    fast, reference = _copies(tmp_path, spill)
    append_sets(fast, sets)
    _builder_append(reference, [np.array(s) for s in sets])
    assert _tree(fast) == _tree(reference)


@pytest.mark.parametrize("case", ["keeps", "lowers-r0", "grows"])
def test_library_append_adopts_the_published_record(tmp_path, case):
    """``ShardedCollection.append`` leaves the object a fresh attach would give."""
    rng = np.random.default_rng(4)
    spill, _ = _base(tmp_path, rng, "lazy", 7, None)
    sets = {"keeps": [[5, 1, 9, 5, 300, 41, 77, 2, 8, 13, 600, 12]],
            "lowers-r0": [[1, 2]], "grows": [list(range(850, 960, 3))]}[case]
    collection = ShardedCollection.from_spill(spill)
    before = collection.count_all_pairs(compute="batch")
    collection.append(sets)
    fresh = ShardedCollection.from_spill(spill)
    assert collection.manifest.document == fresh.manifest.document
    assert [(s.directory, s.lo, s.hi, s.order.tolist(), s.failed.tolist())
            for s in collection.shards] == [
        (s.directory, s.lo, s.hi, s.order.tolist(), s.failed.tolist())
        for s in fresh.shards]
    assert collection.family.universe_size == fresh.family.universe_size
    after = collection.count_all_pairs(compute="batch")
    assert np.array_equal(after, fresh.count_all_pairs(compute="batch"))
    assert after.shape[0] == before.shape[0] + 1


def _run(argv) -> list:
    buf = io.StringIO()
    code = cli.main([str(a) for a in argv], out=buf)
    return [code, *(line for line in buf.getvalue().splitlines()
                    if "wall clock" not in line)]


def test_cli_output_matches_the_fallback(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    spill, _ = _base(tmp_path, rng, "eager", 7, None)
    batch = tmp_path / "batch.sets"
    batch.write_text("".join(" ".join(map(str, s)) + "\n"
                             for s in _sets(rng, 12, 900, 30, 90)))
    copies = {}
    for mode in ("native", "fallback"):
        if mode == "fallback":
            monkeypatch.setattr(swar_kernel, "_state", (None, "numpy (forced)"))
        copies[mode] = tmp_path / mode
        shutil.copytree(spill, copies[mode])
        copies[mode] = (_run(["ingest", copies[mode], batch, "--append"]),
                        _tree(copies[mode]))
    native, fallback = copies["native"], copies["fallback"]
    assert native[1] == fallback[1]
    assert [line for line in native[0] if not str(line).startswith("swar")] \
        == [line for line in fallback[0] if not str(line).startswith("swar")]


def test_error_lines_match_the_builder(tmp_path):
    rng = np.random.default_rng(6)
    spill, _ = _base(tmp_path, rng, "eager", 7, None)
    batch = tmp_path / "batch.sets"
    batch.write_text("1 2 3 2000\n")
    assert _run(["ingest", spill, batch, "--append"])[:2] == [2, (
        "error: appending requires universe 2001 but the spill's eager hash family "
        "is fixed at 900: eager permutations materialize O(universe) state and cannot "
        "grow — rebuild with an extensible family (build-index --family lazy)")]
    assert _run(["ingest", spill, batch, "--append", "--memory-budget", "1K"])[1] \
        .startswith("error: memory budget (1024 B) is too small")


@pytest.mark.parametrize("damage", ["missing", "short"])
def test_append_refuses_a_damaged_shard_order(tmp_path, damage):
    """What attaching refuses, the append refuses: no generation on top of damage."""
    rng = np.random.default_rng(9)
    spill, _ = _base(tmp_path, rng, "eager", 7, None)
    order = next(spill.glob("shard_*/order.npy"))
    if damage == "missing":
        order.unlink()
    else:
        np.save(order, np.load(order)[:-1])
    batch = tmp_path / "batch.sets"
    batch.write_text("1 4 9 16 25 36 49 64 81 100 121 144\n")
    manifest = (spill / "manifest.json").read_bytes()
    code, line, *_ = _run(["ingest", spill, batch, "--append"])
    assert code == 2
    assert line.startswith("error: ") and "order.npy" in line and "damaged" in line
    assert (spill / "manifest.json").read_bytes() == manifest
    with pytest.raises(SpillFormatError):
        ShardedCollection.from_spill(spill)


@native_only
@pytest.mark.parametrize("text", [
    "1 2 3\n# note é\n\n 4 5 5 4\n", "1\t2\r\n3\x0b4\x0c5", "007 7 08\n",
    "1 2\n3 x 4\n", "1 -2\n", "1 2\n" + "9" * 19 + "\n", "# only\n\n",
    "1 2\n\xff\xfe 3\n", "1 +2\n", "1_0\n", "5 3 1\n-1 x\n", "",
    "3 3 3\n  #x 1\n" + "9" * 18 + " 0\n", "1\x1c2\n", "12 4\n#"])
def test_sets_reader_matches_the_fimi_reader(tmp_path, text):
    """The compiled parser accepts and refuses what the NumPy reader does."""
    path = tmp_path / "sets.txt"
    path.write_bytes(text.encode("utf-8", "surrogateescape")
                     if "\xff" not in text else text.encode("latin1"))

    def outcome(read):
        try:
            return [list(map(int, s)) for s in read(path)]
        except DataFormatError as exc:
            return str(exc)

    assert outcome(read_sets_file) == outcome(read_sets_arrays)


def test_constants_are_the_builders():
    assert bulk_build.BULK_MOVE_BUDGET is plan.BULK_MOVE_BUDGET
    assert bulk_build.GROUP_SLOT_BUDGET is plan.GROUP_SLOT_BUDGET
