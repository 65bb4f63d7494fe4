"""Out-of-core mining pipeline: bit-identity with the in-memory path, CLI surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import BatmapConfig
from repro.core.errors import DataFormatError
from repro.core.sharded import collection_r0, fixed_resident_bytes
from repro.datasets.fimi_io import read_fimi, write_fimi
from repro.datasets.synthetic import generate_density_instance
from repro.mining.pair_mining import BatmapPairMiner
from repro.mining.preprocess import preprocess_streaming, shard_tid_order


def write_instance(tmp_path, n_items=36, density=0.2, total=4000, seed=0,
                   name="db.fimi"):
    db = generate_density_instance(n_items, density, total, rng=seed)
    path = tmp_path / name
    write_fimi(db, path)
    return path, db


def stream_budget(db, extra=400_000):
    return fixed_resident_bytes(db.n_transactions, db.n_items) + extra


class TestMineStreamIdentity:
    def test_bit_identical_to_in_memory(self, tmp_path):
        path, db = write_instance(tmp_path)
        miner = BatmapPairMiner(compute="auto")
        mem = miner.mine(read_fimi(path), min_support=3, rng=4)
        stream = miner.mine_stream(path, min_support=3, rng=4,
                                   memory_budget=stream_budget(db))
        np.testing.assert_array_equal(stream.supports.counts, mem.supports.counts)
        np.testing.assert_array_equal(stream.supports.item_ids, mem.supports.item_ids)
        assert stream.failed_insertions == mem.failed_insertions
        assert (stream.supports.frequent_pairs(3)
                == mem.supports.frequent_pairs(3))
        assert stream.count_backend.startswith("sharded(")
        assert stream.build_backend.startswith("sharded(")

    def test_identity_with_failed_insertions_repair(self, tmp_path):
        # range_multiplier 1.0 forces cuckoo failures -> exercises the
        # streaming repair pass (sparse transaction extraction)
        path, db = write_instance(tmp_path, n_items=24, density=0.35,
                                  total=6000, seed=7)
        config = BatmapConfig(range_multiplier=1.0, seed=11)
        miner = BatmapPairMiner(compute="auto", config=config)
        mem = miner.mine(read_fimi(path), min_support=2, rng=5)
        stream = miner.mine_stream(path, min_support=2, rng=5,
                                   memory_budget=stream_budget(db))
        assert mem.failed_insertions > 0, "instance must actually fail insertions"
        assert stream.failed_insertions == mem.failed_insertions
        np.testing.assert_array_equal(stream.supports.counts, mem.supports.counts)

    def test_identity_without_filtering(self, tmp_path):
        path, db = write_instance(tmp_path, seed=3)
        miner = BatmapPairMiner(compute="auto")
        mem = miner.mine(read_fimi(path), min_support=1, rng=1)
        stream = miner.mine_stream(path, min_support=1, rng=1,
                                   memory_budget=stream_budget(db))
        np.testing.assert_array_equal(stream.supports.counts, mem.supports.counts)

    def test_chunk_boundaries_cannot_change_results(self, tmp_path):
        # one-transaction chunks split every tidlist across chunk boundaries
        path, db = write_instance(tmp_path, n_items=16, total=1500, seed=9)
        budget = stream_budget(db)
        fine = preprocess_streaming(path, tmp_path / "fine", memory_budget=budget,
                                    min_support=2, rng=2, chunk_transactions=1)
        coarse = preprocess_streaming(path, tmp_path / "coarse",
                                      memory_budget=budget,
                                      min_support=2, rng=2,
                                      chunk_transactions=100_000)
        np.testing.assert_array_equal(
            fine.collection.count_all_pairs(),
            coarse.collection.count_all_pairs(),
        )

    def test_spill_dir_kept_when_caller_owns_it(self, tmp_path):
        path, db = write_instance(tmp_path, seed=2)
        spill = tmp_path / "spill"
        miner = BatmapPairMiner(compute="host")
        miner.mine_stream(path, min_support=2, rng=0,
                          memory_budget=stream_budget(db), spill_dir=spill)
        assert (spill / "manifest.json").exists()

    def test_device_compute_rejected(self, tmp_path):
        path, _ = write_instance(tmp_path)
        with pytest.raises(ValueError, match="streaming mining"):
            BatmapPairMiner(compute="device").mine_stream(path, memory_budget="64M")

    def test_one_shot_line_iterator_source_is_buffered(self, tmp_path):
        # the pipeline makes several passes; a generator source must not
        # silently parse as empty on the second one
        path, db = write_instance(tmp_path, n_items=12, total=600, seed=4)
        lines = (line for line in path.read_text().splitlines())
        miner = BatmapPairMiner(compute="host")
        mem = miner.mine(read_fimi(path), min_support=2, rng=3)
        stream = miner.mine_stream(lines, min_support=2, rng=3,
                                   memory_budget=stream_budget(db))
        np.testing.assert_array_equal(stream.supports.counts, mem.supports.counts)

    def test_budget_accepts_size_strings(self, tmp_path):
        path, _ = write_instance(tmp_path, n_items=12, total=600, seed=5)
        report = BatmapPairMiner(compute="host").mine_stream(
            path, min_support=2, rng=0, memory_budget="64M")
        assert report.batmap_bytes > 0


class TestPreprocessStreamingErrors:
    def test_empty_input_raises(self, tmp_path):
        path = tmp_path / "empty.fimi"
        path.write_text("# nothing\n")
        with pytest.raises(DataFormatError, match="no transactions"):
            preprocess_streaming(path, tmp_path / "s", memory_budget="64M")

    def test_no_frequent_items_raises(self, tmp_path):
        path = tmp_path / "thin.fimi"
        path.write_text("1 2\n3 4\n")
        with pytest.raises(DataFormatError, match="min_support"):
            preprocess_streaming(path, tmp_path / "s", memory_budget="64M",
                                 min_support=99)

    def test_too_small_budget_raises_with_accounting(self, tmp_path):
        path, _ = write_instance(tmp_path)
        with pytest.raises(ValueError, match="irreducibly resident"):
            preprocess_streaming(path, tmp_path / "s", memory_budget=1024)


class TestCliStreaming:
    def run_cli(self, argv, capsys):
        code = main(argv)
        return code, capsys.readouterr().out

    def test_stream_matches_in_memory_pairs_file(self, tmp_path, capsys):
        path, _ = write_instance(tmp_path, seed=6)
        mem_pairs = tmp_path / "mem.txt"
        stream_pairs = tmp_path / "stream.txt"
        code, _ = self.run_cli(["mine", str(path), "--min-support", "3",
                                "--compute", "auto",
                                "--pairs-out", str(mem_pairs)], capsys)
        assert code == 0
        code, out = self.run_cli(["mine", str(path), "--min-support", "3",
                                  "--stream", "--memory-budget", "64M",
                                  "--pairs-out", str(stream_pairs)], capsys)
        assert code == 0
        assert "count backend: sharded(" in out
        assert mem_pairs.read_text() == stream_pairs.read_text()

    def test_budget_demotes_without_stream_flag(self, tmp_path, capsys):
        # transaction-heavy shape: packed bytes dominate the fixed residents,
        # so a budget exists that is over the floor yet under the buffer size
        path, db = write_instance(tmp_path, n_items=30, density=0.5,
                                  total=30_000, seed=8)
        budget = stream_budget(db, extra=60_000)
        code, out = self.run_cli(["mine", str(path), "--min-support", "2",
                                  "--memory-budget", str(budget)], capsys)
        assert code == 0
        assert "demoting to the sharded pipeline" in out
        assert "streamed" in out

    def test_big_budget_stays_in_memory(self, tmp_path, capsys):
        path, _ = write_instance(tmp_path, seed=8)
        code, out = self.run_cli(["mine", str(path), "--min-support", "2",
                                  "--memory-budget", "2G",
                                  "--compute", "auto"], capsys)
        assert code == 0
        assert "demoting" not in out
        assert "loaded" in out

    def test_stream_requires_batmap_pair_mining(self, tmp_path, capsys):
        path, _ = write_instance(tmp_path)
        code, out = self.run_cli(["mine", str(path), "--stream",
                                  "--engine", "eclat"], capsys)
        assert code == 2
        code, out = self.run_cli(["mine", str(path), "--stream",
                                  "--max-size", "3"], capsys)
        assert code == 2

    def test_malformed_input_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "bad.fimi"
        path.write_text("1 2\noops\n")
        code, out = self.run_cli(["mine", str(path)], capsys)
        assert code == 2
        assert "error: bad: line 2" in out
        code, out = self.run_cli(["mine", str(path), "--stream",
                                  "--memory-budget", "64M"], capsys)
        assert code == 2
        assert "error:" in out

    def test_budget_configuration_errors_are_clean(self, tmp_path, capsys):
        path, _ = write_instance(tmp_path)
        code, out = self.run_cli(["mine", str(path), "--stream",
                                  "--memory-budget", "16K"], capsys)
        assert code == 2
        assert "error:" in out and "irreducibly resident" in out
        code, out = self.run_cli(["mine", str(path), "--stream",
                                  "--memory-budget", "64Q"], capsys)
        assert code == 2
        assert "error:" in out and "cannot parse" in out

    def test_intersect_set_file_error(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1 2 3")
        b.write_text("2 three")
        code, out = self.run_cli(["intersect", str(a), str(b)], capsys)
        assert code == 2
        assert "non-integer token" in out


@pytest.mark.parametrize("n_sets", [1, 300, 1 << 16, (1 << 16) + 1, 90_000])
def test_shard_tid_order_is_the_stable_int64_order(n_sets):
    """The uint16 radix key (shards of <= 2**16 sets) sorts as int64 would."""
    rng = np.random.default_rng(n_sets)
    local = rng.integers(0, n_sets, 50_000).astype(np.int64)
    local[:2] = [0, n_sets - 1]
    expected = np.argsort(local, kind="stable")
    np.testing.assert_array_equal(shard_tid_order(local, n_sets), expected)


def test_shard_tid_order_wider_than_a_uint16_key():
    """Ids 65536 apart would collide in a uint16 key; the wide shard keeps int64."""
    local = np.array([65_536, 0, 65_537, 1, 0, 65_536], dtype=np.int64)
    np.testing.assert_array_equal(shard_tid_order(local, 70_000), [1, 4, 3, 0, 5, 2])


@pytest.mark.parametrize("seed", range(6))
def test_collection_r0_matches_the_per_set_minimum(seed):
    rng = np.random.default_rng(seed)
    config = BatmapConfig(range_multiplier=float(rng.choice([1.0, 1.5, 2.0, 3.0])))
    universe = int(rng.integers(1, 1 << 20))
    sizes = rng.integers(0, 5000, int(rng.integers(1, 400)))
    old = int(min(max(4, config.range_for_size(int(size), universe))
                  for size in sizes.tolist()))
    assert collection_r0(sizes, universe, config) == old
