"""Fault-injection property test: every kill site leaves a sane artifact.

The durability contract of the v3 lifecycle (``docs/operations.md``): a
crash at *any* write/rename/fsync boundary of any mutation leaves the
artifact attachable at exactly the pre- or post-mutation generation, with
counts bit-identical to the corresponding committed state, and with nothing
left behind that ``repro repair`` cannot sweep.

The test runs randomized append/delete/compact sequences.  For each step it
first replays the mutation cleanly under :class:`faultpoints.recording` to
enumerate every kill site ``(name, occurrence)``, then replays the step
once per site with that site armed, asserting the contract after each
injected crash.  A final assertion proves the sequences exercised **every**
registered faultpoint — extending the registry without extending the
mutations here fails loudly.  The same sweep runs with every site failing
as an I/O error (``OSError(ENOSPC)``, what a full disk raises) instead of a
crash: the failed mutation must also leave no staging directory behind,
and retrying it on the same attachment must reach the clean replay's state.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest

from repro.core.integrity import repair_spill, verify_spill
from repro.core.sharded import ShardedCollection
from repro.parallel.sharded import ShardedPairCounter
from repro.utils import faultpoints as fp

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _clean_state():
    fp.disarm()
    yield
    fp.disarm()


def _state(spill_dir):
    """(generation, counts) of the committed artifact — the contract oracle."""
    collection = ShardedCollection.from_spill(spill_dir)
    counts = ShardedPairCounter(collection, compute="batch").counts()
    return collection.generation, counts


def _apply(collection, op):
    kind, payload = op
    if kind == "append":
        collection.append(payload["sets"], universe_size=payload.get("universe"))
    elif kind == "delete":
        collection.delete(payload)
    else:
        collection.compact(full=True)


def _build_base(root, rng):
    """Base artifact with large sets: a later tiny append lowers r0."""
    universe = 256
    sets = [np.sort(rng.choice(universe, size=40, replace=False))
            for _ in range(8)]
    return ShardedCollection.build(
        sets, universe, root, memory_budget=60_000,
        family_kind="lazy", family_capacity=1024, rng=int(rng.integers(1 << 30)))


def _random_sequence(rng):
    """Randomized mutations that collectively hit every registered faultpoint."""
    tiny = [np.sort(rng.choice(64, size=int(rng.integers(2, 4)), replace=False))]
    medium = [np.sort(rng.choice(400, size=int(rng.integers(10, 20)),
                                 replace=False))
              for _ in range(int(rng.integers(2, 4)))]
    sequence = [
        ("append", {"sets": tiny}),                       # r0 undercut: reinterleave
        ("append", {"sets": medium, "universe": 512}),    # universe growth
        ("delete", sorted(int(i) for i in
                          rng.choice(9, size=3, replace=False))),
        ("compact", None),
    ]
    if rng.integers(2):
        sequence.insert(3, ("delete", [0]))
    return sequence


#: What an armed faultpoint raises in each in-process failure mode.
_FAILURES = {"raise": fp.InjectedFault, "oserror": OSError}


def _own_staging(spill_dir):
    """Staging directories this process left in ``spill_dir``."""
    return sorted(spill_dir.glob(f".staging-{os.getpid()}-*"))


@pytest.mark.parametrize("seed", [11, 29])
def test_every_kill_site_leaves_pre_or_post_state(tmp_path, seed):
    _kill_every_site(tmp_path, seed, "raise")


@pytest.mark.parametrize("seed", [11, 29])
def test_every_io_error_site_leaves_pre_or_post_state(tmp_path, seed):
    _kill_every_site(tmp_path, seed, "oserror")


def _kill_every_site(tmp_path, seed, mode):
    rng = np.random.default_rng(seed)
    canonical = tmp_path / "canonical"
    _build_base(canonical, rng)
    covered: set = set()

    for step, op in enumerate(_random_sequence(rng)):
        pre_gen, pre_counts = _state(canonical)

        # Clean replay: enumerate the step's kill sites and its post state.
        scratch = tmp_path / f"step{step}"
        shutil.copytree(canonical, scratch)
        with fp.recording() as rec:
            _apply(ShardedCollection.from_spill(scratch), op)
        sites = rec.sites()
        assert sites, f"step {step} ({op[0]}) hit no faultpoints"
        # sites up to the manifest replace fail before the commit point
        precommit = set(takewhile(lambda site: site[0] != "commit.cleanup", sites))
        covered.update(name for name, _ in sites)
        post_gen, post_counts = _state(scratch)
        assert post_gen == pre_gen + 1

        for name, hit in sites:
            work = tmp_path / "work"
            shutil.copytree(canonical, work)
            collection = ShardedCollection.from_spill(work)
            with fp.armed(name, hit=hit, mode=mode):
                with pytest.raises(_FAILURES[mode]):
                    _apply(collection, op)
            assert _own_staging(work) == [], \
                f"step {step} kill at {name}#{hit} left its staging directory"

            # Crashed artifact attaches at exactly pre or post generation,
            # with counts bit-identical to that committed state.
            gen, counts = _state(work)
            assert gen in (pre_gen, post_gen), \
                f"step {step} kill at {name}#{hit}: generation {gen}"
            expected = pre_counts if gen == pre_gen else post_counts
            np.testing.assert_array_equal(counts, expected)

            # Repair sweeps every leftover; the artifact verifies clean and
            # still serves the same generation and counts.
            result = repair_spill(work)
            assert result.report.ok, \
                f"step {step} kill at {name}#{hit}: {result.report.render()}"
            gen_after, counts_after = _state(work)
            assert gen_after == gen
            np.testing.assert_array_equal(counts_after, expected)

            # A failure before the commit point left the attachment at the
            # pre state: retrying the same mutation on it completes it.
            if (name, hit) in precommit:
                assert collection.generation == pre_gen
                _apply(collection, op)
                assert collection.generation == post_gen
                retried_gen, retried_counts = _state(work)
                assert retried_gen == post_gen
                np.testing.assert_array_equal(retried_counts, post_counts)
                np.testing.assert_array_equal(
                    ShardedPairCounter(collection, compute="batch").counts(),
                    post_counts)
            shutil.rmtree(work)

        # Advance the canonical state with the clean replay.
        shutil.rmtree(canonical)
        scratch.rename(canonical)

    assert covered == set(fp.KNOWN_FAULTPOINTS), \
        f"sequences missed faultpoints: {set(fp.KNOWN_FAULTPOINTS) - covered}"


def test_post_append_counts_match_a_from_scratch_build(tmp_path):
    # Bit-identity across the lifecycle: appending through the atomic
    # commit path equals building the final dataset from scratch with the
    # artifact's own family.
    from repro.core.collection import BatmapCollection
    from repro.core.config import DEFAULT_CONFIG

    rng = np.random.default_rng(3)
    universe = 128
    base = [np.sort(rng.choice(universe, size=10, replace=False))
            for _ in range(6)]
    delta = [np.sort(rng.choice(universe, size=12, replace=False))
             for _ in range(3)]
    collection = ShardedCollection.build(
        base, universe, tmp_path / "spill", memory_budget=40_000, rng=9)
    collection.append(delta)
    reloaded = ShardedCollection.from_spill(tmp_path / "spill")
    counts = ShardedPairCounter(reloaded, compute="batch").counts()
    reference = BatmapCollection.build(
        base + delta, universe,
        config=DEFAULT_CONFIG.with_(payload_bits=reloaded.payload_bits),
        family=reloaded.family)
    np.testing.assert_array_equal(
        counts, reference.count_all_pairs(compute="batch"))


def test_hard_exit_kill_is_recoverable_out_of_process(tmp_path):
    # The CLI smoke surface: REPRO_FAULTPOINT hard-exits a real subprocess
    # mid-commit (kill -9 semantics — no Python cleanup runs), and the
    # artifact still attaches at the pre-mutation generation.
    rng = np.random.default_rng(17)
    spill = tmp_path / "spill"
    sets = [np.sort(rng.choice(96, size=9, replace=False)) for _ in range(6)]
    ShardedCollection.build(sets, 96, spill, memory_budget=40_000, rng=2)
    pre_gen, pre_counts = _state(spill)

    env = dict(os.environ, PYTHONPATH=SRC,
               REPRO_FAULTPOINT="commit.manifest",
               REPRO_FAULTPOINT_MODE="exit")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "delete", str(spill),
         "--sets", "1", "3"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == fp.FAULT_EXIT_CODE, proc.stderr

    gen, counts = _state(spill)
    assert gen == pre_gen
    np.testing.assert_array_equal(counts, pre_counts)
    report = verify_spill(spill)
    assert report.ok  # leftovers are warnings, never damage
    repair_spill(spill)
    assert verify_spill(spill).warnings == []
