"""The compiled loops of the standard-library append against their references.

``hash_group`` must derive the slots and payloads the NumPy bulk engine
derives (:func:`repro.core.bulk_build.bulk_place_group`), and the kernel's
load-time self-check must pin every loop the append runs — ``hash_group``,
``walk_slots``, ``interleave_rows`` and ``parse_sets`` — to values its NumPy
or Python reference produces, so a faulty library falls back to NumPy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import swar_kernel
from repro.core.builder import _walk
from repro.core.bulk_build import bulk_place_group
from repro.core.config import BatmapConfig
from repro.core.hashing import ExtensibleHashFamily, HashFamily

native_only = pytest.mark.skipif(
    swar_kernel.kernel_status() != "native",
    reason=f"compiled kernel unavailable: {swar_kernel.kernel_status()}")


def _force_numpy(monkeypatch):
    """Force the NumPy fallback, as if no compiler were available."""
    monkeypatch.setattr(swar_kernel, "_load_native",
                        lambda: (None, "no C compiler found"))
    monkeypatch.setattr(swar_kernel, "_state", None)


def _random_sets(rng, n_sets, universe, max_size):
    return [np.unique(rng.choice(universe, size=int(rng.integers(0, max_size + 1)),
                                 replace=False)) for _ in range(n_sets)]


@native_only
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), r_exp=st.integers(0, 9),
       kind=st.sampled_from(["array", "feistel", "extensible"]))
def test_hash_group_matches_numpy_hashing(seed, r_exp, kind):
    """Slots and payloads of a group: C hashing == the NumPy derivation."""
    rng = np.random.default_rng(seed)
    universe = 3000
    shift = BatmapConfig().shift_for_universe(universe)
    if kind == "extensible":
        family = ExtensibleHashFamily.create(universe, capacity=4096, shift=shift, rng=seed)
    else:
        family = HashFamily.create(universe, shift=shift, rng=seed, force_permutation=kind)
    sets = _random_sets(rng, 5, universe, 40)
    r = 1 << r_exp
    native = bulk_place_group(sets, family, r)
    with pytest.MonkeyPatch.context() as mp:
        _force_numpy(mp)
        fallback = bulk_place_group(sets, family, r)
    for name in ("slots", "payloads"):
        got, want = getattr(native, name), getattr(fallback, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@native_only
def test_hash_group_declines_other_permutations_and_checks_the_domain():
    family = HashFamily.create(64, rng=3)
    lib = swar_kernel.native_library()
    elements, lengths = np.array([1, 5, 63]), np.array([3])
    slots, payloads = swar_kernel.hash_group(lib, elements, lengths, 8, family)
    assert np.array_equal(payloads, np.stack([family.payloads(t, elements)
                                              for t in range(3)]))
    with pytest.raises(ValueError, match="out of range"):
        swar_kernel.hash_group(lib, np.array([64]), np.array([1]), 8, family)

    class Shifted:  # a Permutation the kernel has no loop for
        domain_size = 64

        def apply(self, x):
            return (np.asarray(x) + 1) % 64

    custom = HashFamily(universe_size=64, shift=0,
                        permutations=(Shifted(),) + family.permutations[1:])
    assert swar_kernel.hash_group(lib, elements, lengths, 8, custom) is None


def test_self_check_append_values_match_references():
    """The pins of the append's loops: NumPy hashing, the Python walk, the
    NumPy interleave and the NumPy FIMI parser."""
    from repro.core.bulk_build import pack_group_words
    from repro.core.hashing import ArrayPermutation, FeistelPermutation
    from repro.datasets.fimi_io import parse_fimi_block

    case = swar_kernel._HASH_CASE
    table = np.array(case["table"], dtype=np.int64)
    perms = [ArrayPermutation(table, np.argsort(table))] + [
        FeistelPermutation(domain_size=case["domain"], keys=tuple(keys),
                           half_bits=case["half_bits"]) for keys in case["keys"]]
    elements, r = np.array(case["elements"]), case["r"]
    set_of = np.repeat(np.arange(len(case["lengths"])), case["lengths"])
    permuted = np.stack([perm.apply(elements) for perm in perms])
    slots = (permuted & (r - 1)) + 3 * r * set_of + np.arange(3)[:, None] * r
    payloads = (permuted >> case["shift"]) + 1
    assert [slots.ravel().tolist(), payloads.ravel().tolist()] \
        == swar_kernel._SELF_CHECK_HASH

    group_slots = swar_kernel._self_check_group()[0]
    rows, failed = [], []
    for first, n in ((0, 5), (5, 2), (7, 0)):
        ids = np.arange(first, first + n)
        walk_rows, walk_failed, _ = _walk(ids, group_slots[:, first:first + n] % 4,
                                          4, 2, False)
        rows += walk_rows.ravel().tolist()
        failed.append(walk_failed)
    assert [rows, *failed] == swar_kernel._SELF_CHECK_SLOT_WALK

    words, _ = pack_group_words(np.arange(1, 25, dtype=np.uint8).reshape(2, 3, 4), 2)
    packed = words.view(np.uint8)[:, :16].ravel().tolist()
    assert packed == swar_kernel._SELF_CHECK_INTERLEAVE

    good, bad = swar_kernel._PARSE_CASE
    rows = parse_fimi_block(good)
    assert parse_fimi_block(bad).error is not None
    assert [rows.indptr.size - 1, rows.indices.tolist(), np.diff(rows.indptr).tolist(),
            -1 - bad.index(b"3")] == swar_kernel._SELF_CHECK_PARSE


@native_only
@pytest.mark.parametrize("name", ["hash_group", "walk_slots", "interleave_rows",
                                  "parse_sets"])
def test_self_check_rejects_a_faulty_append_loop(name):
    """A library whose append loop does nothing fails the self-check."""
    lib = swar_kernel.native_library()

    class Faulty:
        def __getattr__(self, attr):
            return (lambda *args: 0) if attr == name else getattr(lib, attr)

    assert swar_kernel._self_check(lib)
    assert not swar_kernel._self_check(Faulty())
