"""The compiled construction loops: round engine, serial walk, group encoder.

Each loop of ``repro/core/swar_kernel.c`` must reproduce its NumPy or
Python reference (:func:`repro.core.bulk_build._run_rounds`,
:func:`repro.core.builder._walk`, :meth:`GroupPlacement._numpy_encode`)
exactly, including failures and errors; with the kernel forced off the CLI
writes byte-identical outputs.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import cli
from repro.core import swar_kernel
from repro.core.builder import _walk, place_set
from repro.core.bulk_build import (
    _run_rounds,
    bulk_build_chunks,
    bulk_place_group,
)
from repro.core.config import BatmapConfig
from repro.core.errors import InsertionFailure, LayoutError
from repro.core.hashing import HashFamily

native_only = pytest.mark.skipif(
    swar_kernel.kernel_status() != "native",
    reason=f"compiled kernel unavailable: {swar_kernel.kernel_status()}")


def _force_numpy(monkeypatch):
    """Force the NumPy fallback, as if no compiler were available."""
    monkeypatch.setattr(swar_kernel, "_load_native",
                        lambda: (None, "no C compiler found"))
    monkeypatch.setattr(swar_kernel, "_state", None)


def _group(rng, lengths, r):
    """``(slots, starts, lengths, set_of)`` with random in-region slots."""
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    set_of = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
    positions = rng.integers(0, r, size=(3, set_of.size))
    slots = (set_of * 3 * r + np.arange(3)[:, None] * r + positions).astype(np.int32)
    return slots, starts, lengths, set_of


# --------------------------------------------------------------------------- #
# Round engine
# --------------------------------------------------------------------------- #
@native_only
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       lengths=st.lists(st.integers(0, 40), min_size=0, max_size=6),
       r_exp=st.integers(0, 6),
       max_moves=st.integers(1, 60))
def test_place_sets_matches_numpy_rounds(seed, lengths, r_exp, max_moves):
    """All five outputs agree, at every load (r < 2|S| forces failures)."""
    r = 1 << r_exp
    slots, starts, lengths, set_of = _group(np.random.default_rng(seed), lengths, r)
    lib = swar_kernel.native_library()
    native = swar_kernel.place_sets(lib, slots, starts, lengths, r, max_moves)
    reference = _run_rounds(slots, set_of, lengths.size * 3 * r, max_moves, lengths.size)
    for got, want in zip(native[:4], reference[:4]):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert native[4] == reference[4]


@native_only
def test_place_sets_covers_failures_empty_and_singleton_sets():
    slots, starts, lengths, set_of = _group(np.random.default_rng(5), [0, 1, 30, 0, 9], 8)
    lib = swar_kernel.native_library()
    rows, failed, moves, transcript, rounds = swar_kernel.place_sets(
        lib, slots, starts, lengths, 8, 4)
    reference = _run_rounds(slots, set_of, 5 * 24, 4, 5)
    assert failed.any() and not failed[:1].any()  # the crowded set fails, the singleton not
    assert moves[0] == moves[3] == 0 and moves[1] == 2
    assert [rows.tolist(), failed.tolist(), moves.tolist(), transcript.tolist(), rounds] \
        == [a.tolist() if isinstance(a, np.ndarray) else a for a in reference]


@native_only
def test_place_sets_rejects_slots_outside_their_set():
    slots, starts, lengths, _ = _group(np.random.default_rng(0), [3, 3], 4)
    slots[1, 0] = 3 * 4 + 1  # element of set 0 pointing into set 1's region
    with pytest.raises(ValueError, match="outside its set"):
        swar_kernel.place_sets(swar_kernel.native_library(), slots, starts, lengths, 4, 8)
    with pytest.raises(ValueError, match="one group"):
        swar_kernel.place_sets(swar_kernel.native_library(), slots, starts[::-1],
                               lengths, 4, 8)


def _random_sets(rng, n_sets, universe, max_size):
    return [np.unique(rng.choice(universe, size=int(rng.integers(0, max_size + 1)),
                                 replace=False)) for _ in range(n_sets)]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), r_exp=st.integers(2, 7),
       max_loop=st.sampled_from([None, 1, 2, 5]))
def test_bulk_chunks_identical_with_kernel_off(seed, r_exp, max_loop):
    """Multi-chunk groups, oracle fallback included: native == NumPy."""
    rng = np.random.default_rng(seed)
    config = BatmapConfig(max_loop=max_loop)
    universe = 1024
    family = HashFamily.create(universe, shift=config.shift_for_universe(universe), rng=seed)
    sets = _random_sets(rng, 9, universe, 50)
    r = 1 << r_exp
    budget = 3 * r * 2  # two sets per chunk

    def build():
        return [(c.indices, c.entries, c.failed, c.stats)
                for c in bulk_build_chunks(sets, [r] * len(sets), family, config,
                                           slot_budget=budget)]

    native = build()
    with pytest.MonkeyPatch.context() as mp:
        _force_numpy(mp)
        fallback = build()
    assert len(native) == len(fallback) == 5
    for (ni, ne, nf, ns), (fi, fe, ff, fs) in zip(native, fallback):
        assert ni == fi and nf == ff and ns == fs
        assert np.array_equal(ne, fe)


# --------------------------------------------------------------------------- #
# Serial walk
# --------------------------------------------------------------------------- #
@native_only
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40), r_exp=st.integers(0, 6),
       max_loop=st.integers(0, 8), stop=st.booleans())
def test_walk_set_matches_python_walk(seed, n, r_exp, max_loop, stop):
    rng = np.random.default_rng(seed)
    r = 1 << r_exp
    elements = np.cumsum(rng.integers(1, 50, size=n)).astype(np.int64)
    positions = rng.integers(0, r, size=(3, n)).astype(np.int64)
    rows, failed, stats = swar_kernel.walk_set(
        swar_kernel.native_library(), elements, positions, r, max_loop, stop)
    ref_rows, ref_failed, ref_stats = _walk(elements, positions, r, max_loop, stop)
    assert np.array_equal(rows, ref_rows)
    assert failed == ref_failed
    assert stats == [ref_stats.inserted, ref_stats.failed, ref_stats.total_moves,
                     ref_stats.max_transcript]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), size=st.integers(0, 40), r_exp=st.integers(2, 6),
       max_loop=st.sampled_from([None, 1, 3]))
def test_place_set_identical_with_kernel_off(seed, size, r_exp, max_loop):
    """Rows, ``failed`` order, stats and the raised element all agree."""
    config = BatmapConfig(max_loop=max_loop)
    universe = 512
    family = HashFamily.create(universe, shift=config.shift_for_universe(universe), rng=seed)
    elements = np.random.default_rng(seed).choice(universe, size=size, replace=False)
    r = 1 << r_exp

    def place():
        placement = place_set(elements, family, r, config)
        try:
            place_set(elements, family, r, config, on_failure="raise")
            raised = None
        except InsertionFailure as exc:
            raised = exc.element
        return placement, raised

    (native, native_raised) = place()
    with pytest.MonkeyPatch.context() as mp:
        _force_numpy(mp)
        (fallback, fallback_raised) = place()
    assert np.array_equal(native.rows, fallback.rows)
    assert native.failed == fallback.failed
    assert native.stats == fallback.stats
    assert native_raised == fallback_raised
    assert (native_raised is None) == (not native.failed)


# --------------------------------------------------------------------------- #
# Group encoder
# --------------------------------------------------------------------------- #
def _placed_group(seed, config=BatmapConfig(), r=64, oracle=True):
    rng = np.random.default_rng(seed)
    universe = 2048
    family = HashFamily.create(universe, shift=config.shift_for_universe(universe), rng=seed)
    sets = _random_sets(rng, 6, universe, 2 * r // 3)
    return bulk_place_group(sets, family, r, config, oracle_on_failure=oracle), family


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), r_exp=st.integers(2, 8), oracle=st.booleans())
def test_encode_matches_numpy_encode(seed, r_exp, oracle):
    config = BatmapConfig()
    group, family = _placed_group(seed, config, 1 << r_exp, oracle)
    entries = group.encode(family, config)
    assert entries.dtype == np.uint8
    assert np.array_equal(entries, group._numpy_encode(config))


def test_encode_wider_entries_take_the_numpy_path():
    config = BatmapConfig(payload_bits=10)
    group, family = _placed_group(3, config, r=256)
    entries = group.encode(family, config)
    assert entries.dtype == np.uint16
    assert np.array_equal(entries, group._numpy_encode(config))


def _raised(fn) -> str:
    with pytest.raises(LayoutError) as info:
        fn()
    return str(info.value)


@pytest.mark.parametrize("corrupt", ["third_copy", "lost_copy", "failed_stored"])
def test_encode_copy_errors_match(corrupt):
    config = BatmapConfig()
    group, family = _placed_group(11, config, r=16, oracle=False)
    stored = np.nonzero(~group.failed_mask)[0]
    failed = np.nonzero(group.failed_mask)[0]
    assert stored.size and failed.size
    i = int(stored[1])
    present = group.rows_flat[group.slots[:, i]] == i
    if corrupt == "third_copy":
        group.rows_flat[group.slots[np.argmin(present), i]] = i
    elif corrupt == "lost_copy":
        group.rows_flat[group.slots[np.argmax(present), i]] = -1
    else:
        i = int(failed[0])
        group.rows_flat[group.slots[0, i]] = i
    message = _raised(lambda: group.encode(family, config))
    assert message == _raised(lambda: group._numpy_encode(config))
    assert f"element {int(group.elements[i])} stored in" in message


def test_encode_payload_overflow_matches():
    config = BatmapConfig()
    group, family = _placed_group(4, config)
    group.payloads[2, int(np.nonzero(~group.failed_mask)[0][-1])] = config.payload_mask + 1
    message = _raised(lambda: group.encode(family, config))
    assert message == _raised(lambda: group._numpy_encode(config))
    assert message.startswith("payload overflow")


# --------------------------------------------------------------------------- #
# Self-check
# --------------------------------------------------------------------------- #
def test_self_check_construction_values_match_references():
    slots, starts, lengths, payloads = swar_kernel._self_check_group()
    set_of = np.repeat(np.arange(lengths.size), lengths)
    rows, failed, moves, transcript, rounds = _run_rounds(slots, set_of, 36, 6, 3)
    assert [rows.tolist(), np.nonzero(failed)[0].tolist(), moves.tolist(),
            transcript.tolist(), rounds] == swar_kernel._SELF_CHECK_PLACEMENT
    assert failed.any()  # the pinned group really exercises a failure

    from repro.core.bulk_build import GroupPlacement

    group = GroupPlacement(
        r=4, n_sets=3, elements=np.arange(7), set_of=set_of, starts=starts,
        lengths=lengths, payloads=payloads, slots=slots, rows_flat=rows,
        failed_mask=failed, set_moves=moves, set_transcript=transcript, rounds=rounds)
    assert group._numpy_encode(BatmapConfig()).ravel().tolist() \
        == swar_kernel._SELF_CHECK_ENTRIES

    walk_rows, walk_failed, stats = _walk(np.arange(10, 15), slots[:, :5] % 4, 4, 2, False)
    assert [walk_rows.tolist(), walk_failed,
            [stats.inserted, stats.failed, stats.total_moves, stats.max_transcript]] \
        == swar_kernel._SELF_CHECK_WALK
    assert walk_failed


# --------------------------------------------------------------------------- #
# CLI: outputs unchanged without the kernel, and the kernel line
# --------------------------------------------------------------------------- #
def _fimi(tmp_path: Path) -> Path:
    rng = np.random.default_rng(8)
    lines = [" ".join(map(str, sorted(rng.choice(200, size=rng.integers(1, 30),
                                                 replace=False))))
             for _ in range(600)]
    path = tmp_path / "db.fimi"
    path.write_text("\n".join(lines) + "\n")
    return path


def _run(argv) -> list:
    buf = io.StringIO()
    assert cli.main([str(a) for a in argv], out=buf) == 0
    return buf.getvalue().splitlines()


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("build", ["host", "bulk"])
def test_mine_pairs_identical_without_kernel(tmp_path, monkeypatch, build):
    data = _fimi(tmp_path)
    argv = ["mine", data, "--min-support", "2", "--seed", "3", "--build-compute", build]
    _run([*argv, "--pairs-out", tmp_path / "native.txt"])
    _force_numpy(monkeypatch)
    _run([*argv, "--pairs-out", tmp_path / "fallback.txt"])
    assert (tmp_path / "native.txt").read_bytes() == (tmp_path / "fallback.txt").read_bytes()


def test_build_index_and_ingest_identical_without_kernel(tmp_path, monkeypatch):
    data = _fimi(tmp_path)
    extra = tmp_path / "extra.sets"
    extra.write_text("1 5 9\n2 3\n7 8 9 10 11 12\n")

    def index(name):
        spill = tmp_path / name
        lines = _run(["build-index", data, spill, "--memory-budget", "1M", "--seed", "2"])
        lines += _run(["ingest", spill, extra, "--append"])
        return lines, _tree(spill)

    native_lines, native_files = index("native")
    assert native_lines.count(f"swar kernel: {swar_kernel.kernel_status()}") == 2
    _force_numpy(monkeypatch)
    fallback_lines, fallback_files = index("fallback")
    assert fallback_lines.count("swar kernel: numpy (no C compiler found)") == 2
    assert fallback_files == native_files


@native_only
def test_self_check_rejects_a_loop_that_trips_the_wrappers(monkeypatch):
    def broken(*args, **kwargs):
        raise LayoutError("element 1 stored in 0 tables after bulk placement")

    monkeypatch.setattr(swar_kernel, "encode_group", broken)
    assert not swar_kernel._self_check(swar_kernel.native_library())
