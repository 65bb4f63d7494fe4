"""Tests for the command-line interface."""

import io

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets.fimi_io import read_fimi


@pytest.fixture
def fimi_file(tmp_path):
    path = tmp_path / "data.fimi"
    path.write_text("0 1 2\n1 2\n0 2 3\n2 3\n0 1 2 3\n")
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mine_defaults(self, fimi_file):
        args = build_parser().parse_args(["mine", str(fimi_file)])
        assert args.engine == "batmap"
        assert args.min_support == 2

    def test_rejects_unknown_engine(self, fimi_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine", str(fimi_file), "--engine", "magic"])

    @pytest.mark.parametrize("argv", [[], ["nope"], ["delete"], ["mine", "x", "--top", "y"],
                                      ["delete", "x", "--sets", "3", "--bogus"]])
    def test_main_errors_match_the_full_parser(self, argv, capsys):
        """``main`` builds only the invoked subcommand; its errors are unchanged."""
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args(argv)
        expected = capsys.readouterr().err
        with pytest.raises(SystemExit) as one:
            main(argv)
        assert capsys.readouterr().err == expected
        assert one.value.code == full.value.code == 2


class TestMine:
    @pytest.mark.parametrize("engine", ["batmap", "apriori", "fpgrowth", "eclat"])
    def test_all_engines_run_and_agree(self, fimi_file, engine):
        out = io.StringIO()
        assert main(["mine", str(fimi_file), "--engine", engine, "--min-support", "2"],
                    out=out) == 0
        text = out.getvalue()
        assert "frequent pairs" in text
        # pairs (1,2) and (0,2) both have support 3 in the fixture
        assert "(1, 2)  support=3" in text
        assert "(0, 2)  support=3" in text

    def test_top_limits_output(self, fimi_file):
        out = io.StringIO()
        main(["mine", str(fimi_file), "--min-support", "1", "--top", "2"], out=out)
        pair_lines = [line for line in out.getvalue().splitlines() if "support=" in line]
        assert len(pair_lines) == 2

    @pytest.mark.parametrize("top", [0, 1, 4, 9, 10, 11, 45, 1000, -3])
    def test_top_pairs_break_ties_by_pair(self, tmp_path, top):
        """Many equal supports: the top lines are the (-support, i, j) order."""
        rng = np.random.default_rng(7)
        rows = [" ".join(map(str, np.flatnonzero(rng.random(10) < 0.5))) for _ in range(12)]
        path = tmp_path / "ties.fimi"
        path.write_text("\n".join(row for row in rows if row) + "\n")
        pairs_out = tmp_path / "pairs.txt"
        out = io.StringIO()
        assert main(["mine", str(path), "--min-support", "1", "--top", str(top),
                     "--pairs-out", str(pairs_out)], out=out) == 0
        pairs = [tuple(map(int, line.split())) for line in pairs_out.read_text().splitlines()]
        assert len({support for _, _, support in pairs}) < len(pairs) // 4  # tie-heavy
        ranked = sorted(pairs, key=lambda p: (-p[2], p[0], p[1]))[:top]
        lines = [line for line in out.getvalue().splitlines() if "support=" in line]
        assert lines == [f"  ({i}, {j})  support={support}" for i, j, support in ranked]

    def test_top_rows_match_the_full_sort(self):
        from repro.cli import _top_rows

        rng = np.random.default_rng(11)
        for n, high in ((1, 2), (50, 2), (5000, 4), (5000, 1000)):
            keys = np.unique(rng.integers(0, 200, size=(n, 2)), axis=0)
            i, j = keys[:, 0], keys[:, 1]
            support = rng.integers(1, high, size=i.size)
            full = np.lexsort((j, i, -support))
            for top in (0, 1, 2, 10, 37, i.size - 1, i.size, i.size + 5, -1):
                assert np.array_equal(_top_rows(i, j, support, top), full[:top]), (n, top)

    def test_max_transactions(self, fimi_file):
        out = io.StringIO()
        main(["mine", str(fimi_file), "--max-transactions", "2", "--engine", "fpgrowth"],
             out=out)
        assert "loaded 2 transactions" in out.getvalue()


class TestComputeFlags:
    def test_mine_compute_defaults(self, fimi_file):
        args = build_parser().parse_args(["mine", str(fimi_file)])
        assert args.compute == "auto"
        assert args.workers is None

    def test_mine_rejects_unknown_compute(self, fimi_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine", str(fimi_file), "--compute", "quantum"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine", str(fimi_file), "--compute", "device"])

    def test_mine_parallel_falls_back_on_small_input(self, fimi_file):
        out = io.StringIO()
        assert main(["mine", str(fimi_file), "--compute", "parallel",
                     "--workers", "2", "--min-support", "2"], out=out) == 0
        text = out.getvalue()
        assert "count backend: batch (parallel fell back" in text
        assert "(1, 2)  support=3" in text
        assert "(0, 2)  support=3" in text

    def test_mine_host_backend(self, fimi_file):
        out = io.StringIO()
        assert main(["mine", str(fimi_file), "--compute", "host",
                     "--min-support", "2"], out=out) == 0
        text = out.getvalue()
        assert "count backend: host" in text
        assert "(wall clock)" in text

    def test_mine_backends_agree(self, fimi_file):
        results = {}
        for compute in ("auto", "host", "batch", "parallel"):
            out = io.StringIO()
            main(["mine", str(fimi_file), "--compute", compute,
                  "--min-support", "1"], out=out)
            results[compute] = [line for line in out.getvalue().splitlines()
                                if "support=" in line]
        assert (results["auto"] == results["host"] == results["batch"]
                == results["parallel"])

    def test_intersect_parallel_falls_back(self, tmp_path):
        rng = np.random.default_rng(1)
        a = rng.choice(2000, 300, replace=False)
        b = rng.choice(2000, 500, replace=False)
        pa = tmp_path / "a.txt"
        pb = tmp_path / "b.txt"
        pa.write_text(" ".join(str(x) for x in a))
        pb.write_text(" ".join(str(x) for x in b))
        out = io.StringIO()
        assert main(["intersect", str(pa), str(pb), "--compute", "parallel",
                     "--workers", "2"], out=out) == 0
        text = out.getvalue()
        assert "count backend: batch (parallel fell back" in text
        exact = len(set(a.tolist()) & set(b.tolist()))
        assert f"(batmap): {exact}" in text
        assert f"(merge) : {exact}" in text


class TestMineItemsets:
    def test_max_size_defaults_to_pairs(self, fimi_file):
        args = build_parser().parse_args(["mine", str(fimi_file)])
        assert args.max_size == 2

    def test_mine_itemsets_auto_compute(self, fimi_file):
        out = io.StringIO()
        assert main(["mine", str(fimi_file), "--max-size", "4",
                     "--compute", "auto", "--min-support", "2"], out=out) == 0
        text = out.getvalue()
        assert "frequent itemsets up to size" in text
        assert "extension level(s)" in text
        # fixture: {0, 1, 2} and {0, 2, 3} both appear twice
        assert "(0, 1, 2)  support=2" in text
        assert "(0, 2, 3)  support=2" in text

    def test_mine_itemsets_matches_scan_engine(self, fimi_file):
        from repro.datasets.fimi_io import read_fimi as _read
        from repro.mining.itemsets import BatmapItemsetMiner
        from repro.mining.pair_mining import BatmapPairMiner

        db = _read(fimi_file)
        reference = BatmapItemsetMiner(
            BatmapPairMiner(compute="host"), max_size=4, level_compute="scan",
        ).mine(db, min_support=2, rng=0)
        out = io.StringIO()
        main(["mine", str(fimi_file), "--max-size", "4", "--compute", "host",
              "--min-support", "2"], out=out)
        n_expected = len(reference.itemsets)
        assert f"{n_expected} frequent itemsets" in out.getvalue()

    def test_max_size_requires_batmap_engine(self, fimi_file):
        out = io.StringIO()
        assert main(["mine", str(fimi_file), "--max-size", "3",
                     "--engine", "apriori"], out=out) == 2
        assert "requires the batmap engine" in out.getvalue()

    def test_invalid_max_size(self, fimi_file):
        out = io.StringIO()
        assert main(["mine", str(fimi_file), "--max-size", "0"], out=out) == 2

    def test_max_size_one_restricts_to_singletons(self, fimi_file):
        out = io.StringIO()
        assert main(["mine", str(fimi_file), "--max-size", "1",
                     "--compute", "host", "--min-support", "2"], out=out) == 0
        text = out.getvalue()
        assert "up to size 1" in text
        # no pair (two-element) itemsets may be printed
        assert "size 2" not in text
        assert "(2,)  support=5" in text  # item 2 appears in all 5 transactions

    def test_mine_auto_compute_pairs(self, fimi_file):
        out = io.StringIO()
        assert main(["mine", str(fimi_file), "--compute", "auto",
                     "--min-support", "2"], out=out) == 0
        text = out.getvalue()
        assert "count backend: batch" in text
        assert "(1, 2)  support=3" in text


class TestIntersectMultiway:
    def _write(self, tmp_path, name, values):
        path = tmp_path / name
        path.write_text(" ".join(str(x) for x in values))
        return path

    def test_three_sets_route_multiway(self, tmp_path):
        rng = np.random.default_rng(5)
        sets = [rng.choice(1000, size, replace=False) for size in (200, 300, 400)]
        paths = [self._write(tmp_path, f"s{i}.txt", s) for i, s in enumerate(sets)]
        out = io.StringIO()
        assert main(["intersect", *map(str, paths)], out=out) == 0
        text = out.getvalue()
        exact = len(set(sets[0].tolist()) & set(sets[1].tolist()) & set(sets[2].tolist()))
        assert "batched multiway probes" in text
        assert f"(batmap): {exact}" in text
        assert f"(merge) : {exact}" in text

    def test_multiway_flag_with_two_sets(self, tmp_path):
        pa = self._write(tmp_path, "a.txt", [1, 2, 3, 10])
        pb = self._write(tmp_path, "b.txt", [2, 3, 11])
        out = io.StringIO()
        assert main(["intersect", str(pa), str(pb), "--multiway"], out=out) == 0
        text = out.getvalue()
        assert "batched multiway probes" in text
        assert "(batmap): 2" in text

    def test_intersect_auto_compute(self, tmp_path):
        rng = np.random.default_rng(9)
        a = rng.choice(2000, 400, replace=False)
        b = rng.choice(2000, 350, replace=False)
        pa = self._write(tmp_path, "a.txt", a)
        pb = self._write(tmp_path, "b.txt", b)
        out = io.StringIO()
        assert main(["intersect", str(pa), str(pb), "--compute", "auto"],
                    out=out) == 0
        text = out.getvalue()
        exact = len(set(a.tolist()) & set(b.tolist()))
        assert "count backend: host" in text
        assert f"(batmap): {exact}" in text

    def test_empty_set_multiway(self, tmp_path):
        pa = self._write(tmp_path, "a.txt", [1, 2])
        pb = self._write(tmp_path, "b.txt", [])
        pc = self._write(tmp_path, "c.txt", [2, 3])
        out = io.StringIO()
        assert main(["intersect", str(pa), str(pb), str(pc)], out=out) == 0
        assert "intersection size: 0" in out.getvalue()


class TestGenerate:
    @pytest.mark.parametrize("kind,extra", [
        ("density", ["--items", "30", "--density", "0.1", "--total-items", "500"]),
        ("quest", ["--items", "30", "--transactions", "40"]),
        ("webdocs", ["--items", "200", "--transactions", "30"]),
    ])
    def test_generates_readable_fimi(self, tmp_path, kind, extra):
        out_path = tmp_path / f"{kind}.fimi"
        out = io.StringIO()
        assert main(["generate", str(out_path), "--kind", kind, "--seed", "1", *extra],
                    out=out) == 0
        db = read_fimi(out_path)
        assert db.n_transactions > 0
        assert "wrote" in out.getvalue()

    def test_roundtrip_minable(self, tmp_path):
        out_path = tmp_path / "gen.fimi"
        main(["generate", str(out_path), "--kind", "density",
              "--items", "20", "--density", "0.2", "--total-items", "400"], out=io.StringIO())
        out = io.StringIO()
        assert main(["mine", str(out_path), "--engine", "fpgrowth"], out=out) == 0


class TestIntersect:
    def _write_sets(self, tmp_path, a, b):
        pa = tmp_path / "a.txt"
        pb = tmp_path / "b.txt"
        pa.write_text(" ".join(str(x) for x in a))
        pb.write_text("\n".join(str(x) for x in b))
        return pa, pb

    def test_intersection_counts_agree(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.choice(2000, 300, replace=False)
        b = rng.choice(2000, 500, replace=False)
        pa, pb = self._write_sets(tmp_path, a, b)
        out = io.StringIO()
        assert main(["intersect", str(pa), str(pb)], out=out) == 0
        text = out.getvalue()
        exact = len(set(a.tolist()) & set(b.tolist()))
        assert f"(merge) : {exact}" in text
        assert f"(batmap): {exact}" in text

    def test_empty_set(self, tmp_path):
        pa, pb = self._write_sets(tmp_path, [], [1, 2, 3])
        out = io.StringIO()
        assert main(["intersect", str(pa), str(pb)], out=out) == 0
        assert "intersection size: 0" in out.getvalue()

    def test_explicit_universe(self, tmp_path):
        pa, pb = self._write_sets(tmp_path, [1, 5, 9], [5, 9, 11])
        out = io.StringIO()
        main(["intersect", str(pa), str(pb), "--universe", "64"], out=out)
        assert "universe = 64" in out.getvalue()

    @pytest.mark.parametrize("compute", ["auto", "batch", "parallel"])
    def test_intersect_plans_once(self, tmp_path, monkeypatch, compute):
        import repro.core.plan

        calls = []
        real = repro.core.plan.plan_counts

        def counting_plan(*args, **kwargs):
            calls.append(kwargs.get("requested"))
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.core.plan, "plan_counts", counting_plan)
        rng = np.random.default_rng(4)
        a = rng.choice(2000, 300, replace=False)
        b = rng.choice(2000, 500, replace=False)
        pa, pb = self._write_sets(tmp_path, a, b)
        out = io.StringIO()
        assert main(["intersect", str(pa), str(pb), "--compute", compute,
                     "--workers", "2"], out=out) == 0
        assert calls == [compute]
        exact = len(set(a.tolist()) & set(b.tolist()))
        assert f"(batmap): {exact}" in out.getvalue()
