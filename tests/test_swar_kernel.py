"""The SWAR fold primitives: compiled kernel, NumPy fallback, loader.

The compiled kernel (``repro/core/swar_kernel.c``) must agree with the NumPy
implementation and with the per-pair references on every input shape the
width-class engine can produce; the loader must fall back to NumPy by
observation and tolerate concurrent first compiles.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import cli
from repro.core import swar_kernel
from repro.core.batch import WidthClassIndex
from repro.core.collection import BatmapCollection
from repro.core.intersection import count_common
from repro.core.swar import count_matches_folded
from repro.core.swar_kernel import (
    fold_counts,
    fold_counts_rows,
    numpy_fold_counts,
    numpy_fold_counts_rows,
)

SRC = Path(__file__).resolve().parents[1] / "src"

native_only = pytest.mark.skipif(
    swar_kernel.kernel_status() != "native",
    reason=f"compiled kernel unavailable: {swar_kernel.kernel_status()}")


def _force_numpy(monkeypatch):
    """Force the NumPy fallback, as if no compiler were available."""
    monkeypatch.setattr(swar_kernel, "_load_native",
                        lambda: (None, "no C compiler found"))
    monkeypatch.setattr(swar_kernel, "_state", None)


def _words(rng, n, width, pool):
    """Packed rows with realistic structure: many rows share entries with ``pool``."""
    out = rng.integers(0, 1 << 32, size=(n, width), dtype=np.uint32)
    if n and pool.size:
        share = rng.random((n, width)) < 0.5
        out[share] = np.resize(pool, (n, width))[share]
    # clear some indicator bits so both match arms (b_i or b_j) are exercised
    out &= rng.choice(np.array([0xFFFFFFFF, 0x7F7F7F7F, 0xFF7FFF7F], dtype=np.uint32),
                      size=(n, width))
    return out


def _layout(a: np.ndarray, how: str, tmp: str, name: str) -> np.ndarray:
    """The same rows as a contiguous, row-strided, column-sliced or mmap'd array."""
    if how == "strided":
        spread = np.zeros((2 * a.shape[0], a.shape[1]), dtype=np.uint32)
        spread[::2] = a
        return spread[::2]
    if how == "sliced":
        wide = np.zeros((a.shape[0], a.shape[1] + 5), dtype=np.uint32)
        wide[:, 3:3 + a.shape[1]] = a
        return wide[:, 3:3 + a.shape[1]]
    if how == "memmap" and a.size:
        path = os.path.join(tmp, f"{name}.u32")
        a.tofile(path)
        return np.memmap(path, dtype=np.uint32, mode="r", shape=a.shape)
    return a


def _per_pair(large, small) -> np.ndarray:
    return np.array([[count_matches_folded(x, y) for y in small] for x in large],
                    dtype=np.int64).reshape(large.shape[0], small.shape[0])


@native_only
@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       width_small=st.sampled_from([1, 3, 6, 12, 24, 96, 254, 255, 256, 300]),
       ratio=st.integers(1, 64),
       n_a=st.integers(0, 5), n_b=st.integers(0, 5),
       layout=st.sampled_from(["contiguous", "strided", "sliced", "memmap"]))
def test_compiled_matches_numpy_and_per_pair(seed, width_small, ratio, n_a, n_b, layout):
    rng = np.random.default_rng(seed)
    if width_small * ratio > 4096:
        ratio = max(1, 4096 // width_small)
    small = _words(rng, n_b, width_small, np.zeros(0, np.uint32))
    large = _words(rng, n_a, width_small * ratio, small.ravel())
    expected = _per_pair(large, small)
    with tempfile.TemporaryDirectory() as tmp:
        lv = _layout(large, layout, tmp, "large")
        sv = _layout(small, layout, tmp, "small")
        assert np.array_equal(numpy_fold_counts(lv, sv), expected)
        assert np.array_equal(fold_counts(lv, sv), expected)
        k = min(n_a, n_b)
        rows_expected = np.diagonal(expected)[:k]
        assert np.array_equal(numpy_fold_counts_rows(lv[:k], sv[:k]), rows_expected)
        assert np.array_equal(fold_counts_rows(lv[:k], sv[:k]), rows_expected)
        del lv, sv


def test_fold_shapes_are_validated():
    with pytest.raises(ValueError):
        fold_counts(np.zeros((2, 6), np.uint32), np.zeros((2, 4), np.uint32))
    with pytest.raises(ValueError):
        fold_counts_rows(np.zeros((2, 6), np.uint32), np.zeros((3, 3), np.uint32))


def _engine_counts(sets, universe, seed):
    coll = BatmapCollection.build(sets, universe, rng=seed)
    buffer = coll.device_buffer()
    index = WidthClassIndex(buffer.words, buffer.offsets, buffer.widths)
    slots = np.arange(index.n_slots)
    return coll, index.all_pairs(), index.pairwise_slots(slots, slots[::-1])


def _collection_case(seed):
    rng = np.random.default_rng(seed)
    universe = 2048
    sizes = rng.choice([1, 2, 5, 20, 80, 300, 900], size=9)
    return [rng.choice(universe, size=s, replace=False) for s in sizes], universe


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_engine_equals_count_common(seed):
    """Width-class engine counts == per-pair ``count_common``, many width classes."""
    sets, universe = _collection_case(seed)
    coll, matrix, pairwise = _engine_counts(sets, universe, seed)
    order = coll.order
    n = len(sets)
    for a in range(n):
        for b in range(n):
            i, j = order[a], order[b]
            expected = (coll.batmap(i).stored_count if i == j
                        else count_common(coll.batmap(i), coll.batmap(j)))
            assert matrix[a, b] == expected
    assert np.array_equal(pairwise, matrix[np.arange(n), np.arange(n)[::-1]])


def test_engine_fallback_is_bit_identical(monkeypatch):
    sets, universe = _collection_case(11)
    _, matrix, pairwise = _engine_counts(sets, universe, 11)
    _force_numpy(monkeypatch)
    _, fb_matrix, fb_pairwise = _engine_counts(sets, universe, 11)
    assert swar_kernel.kernel_status() == "numpy (no C compiler found)"
    assert np.array_equal(fb_matrix, matrix)
    assert np.array_equal(fb_pairwise, pairwise)


def _env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def _mine(path: Path, *extra) -> tuple:
    """``repro mine`` output lines (timings dropped) and the ``--pairs-out`` bytes."""
    buf = io.StringIO()
    out = path.with_name("pairs.txt")
    argv = ["mine", str(path), "--min-support", "3", "--compute", "batch",
            "--seed", "4", "--pairs-out", str(out), *extra]
    assert cli.main(argv, out=buf) == 0
    lines = [line for line in buf.getvalue().splitlines()
             if "wall clock" not in line and not line.startswith("phases:")]
    return lines, out.read_bytes()


@pytest.mark.parametrize("extra", [(), ("--stream", "--memory-budget", "64M")])
def test_mine_output_unchanged_without_compiler(tmp_path, monkeypatch, extra):
    rng = np.random.default_rng(3)
    lines = [" ".join(map(str, sorted(rng.choice(300, size=rng.integers(1, 40),
                                                 replace=False))))
             for _ in range(400)]
    data = tmp_path / "db.fimi"
    data.write_text("\n".join(lines) + "\n")
    native_lines, native_pairs = _mine(data, *extra)
    _force_numpy(monkeypatch)
    fallback_lines, fallback_pairs = _mine(data, *extra)

    assert "swar kernel: numpy (no C compiler found)" in fallback_lines
    assert fallback_pairs == native_pairs
    assert ([line for line in fallback_lines if not line.startswith("swar kernel:")]
            == [line for line in native_lines if not line.startswith("swar kernel:")])


def test_mine_reports_native_kernel(tmp_path):
    data = tmp_path / "db.fimi"
    data.write_text("0 1 2\n1 2\n0 2 3\n2 3\n0 1 2 3\n" * 20)
    lines, _ = _mine(data)
    assert f"swar kernel: {swar_kernel.kernel_status()}" in lines


def test_self_check_counts_match_numpy_reference():
    large, small = swar_kernel._self_check_case()
    assert numpy_fold_counts(large, small).tolist() == swar_kernel._SELF_CHECK_COUNTS


@native_only
def test_failed_self_check_falls_back(monkeypatch):
    monkeypatch.setattr(swar_kernel, "_self_check", lambda lib: False)
    assert swar_kernel._load_native() == (None, "compiled kernel failed its self-check")


def test_no_compiler_is_observed(monkeypatch):
    monkeypatch.setattr(swar_kernel, "_find_compiler", lambda: None)
    assert swar_kernel._load_native() == (None, "no C compiler found")


@pytest.mark.skipif(os.name != "posix", reason="POSIX permissions")
def test_shared_cache_directory_is_refused(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "repro-batmap"
    cache.mkdir(mode=0o700)
    cache.chmod(0o777)
    lib, reason = swar_kernel._load_native()
    assert lib is None and "writable by other users" in reason


@native_only
def test_concurrent_first_compiles_share_one_cache(tmp_path):
    """Two processes compiling into one empty cache directory both succeed."""
    code = ("from repro.core.swar_kernel import kernel_status, fold_counts\n"
            "import numpy as np\n"
            "w = np.arange(12, dtype=np.uint32).reshape(2, 6)\n"
            "print(kernel_status(), fold_counts(w, w[:, :3]).sum())\n")
    env = _env(XDG_CACHE_HOME=str(tmp_path))
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for _ in range(2)]
    results = [p.communicate(timeout=300) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], results
    expected = int(numpy_fold_counts(np.arange(12, dtype=np.uint32).reshape(2, 6),
                                     np.arange(12, dtype=np.uint32).reshape(2, 6)[:, :3]).sum())
    assert [out.split() for out, _ in results] == [["native", str(expected)]] * 2
    files = sorted(p.name for p in (tmp_path / "repro-batmap").iterdir())
    assert len(files) == 1 and files[0].startswith("swar_kernel-"), files
