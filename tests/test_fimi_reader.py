"""The FIMI block reader: grammar, error reporting, and a property test.

Every reader (``read_fimi``, ``iter_fimi_chunks`` under any chunk caps and
byte-block sizes, ``scan_fimi_stats``, ``collect_transactions``) must parse
random texts exactly like the short line-by-line reference below, and a
malformed byte anywhere outside a comment must raise ``DataFormatError``
naming its line.
"""

from __future__ import annotations

import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.errors import DataFormatError
from repro.datasets import streaming
from repro.datasets.fimi_io import (
    iter_fimi_blocks,
    parse_fimi_block,
    parse_fimi_line,
    read_fimi,
)
from repro.datasets.streaming import collect_transactions, iter_fimi_chunks, scan_fimi_stats

BLANKS = b" \t\r\x0b\x0c"


def reference_rows(text: bytes) -> list:
    """The grammar, one line at a time: sorted distinct ids of each transaction line."""
    rows = []
    for raw in text.split(b"\n"):
        line = raw.strip(BLANKS)
        if line and not line.startswith(b"#"):
            rows.append(sorted({int(token) for token in line.split()}))
    return rows


@st.composite
def item_tokens(draw, max_id: int) -> bytes:
    """An id in decimal, sometimes with leading zeros (never past 18 digits)."""
    digits = str(draw(st.one_of(st.integers(0, 60), st.integers(0, max_id))))
    return digits.zfill(draw(st.sampled_from([len(digits), 18]))).encode()


@st.composite
def fimi_texts(draw, max_id: int = 5000) -> bytes:
    """Transactions (duplicate, unsorted ids), blank lines, comments, CRLF, tabs."""
    separator = st.sampled_from([b" ", b"  ", b"\t", b" \t", b"\x0b", b"\x0c"])
    edge = st.sampled_from([b"", b" ", b"\t", b"  \t"])
    lines = []
    for kind in draw(st.lists(st.sampled_from(["tx", "tx", "tx", "blank", "comment"]),
                              max_size=25)):
        if kind == "tx":
            tokens = draw(st.lists(item_tokens(max_id), min_size=1, max_size=8))
            tokens += draw(st.lists(st.sampled_from(tokens), max_size=2))   # duplicates
            body = tokens[0]
            for token in tokens[1:]:
                body += draw(separator) + token
            line = draw(edge) + body + draw(edge)
        elif kind == "blank":
            line = draw(st.sampled_from([b"", b" ", b"\t", b" \t ", b"\x0c"]))
        else:
            line = draw(edge) + b"#" + draw(st.binary(max_size=12)).replace(b"\n", b"")
        lines.append(line + draw(st.sampled_from([b"\n", b"\r\n"])))
    text = b"".join(lines)
    if draw(st.booleans()):
        text = text.rstrip(b"\n")      # no final newline
    return text


def _file(directory: str, text: bytes) -> Path:
    path = Path(directory) / "data.fimi"
    path.write_bytes(text)
    return path


def _rows(chunks) -> list:
    return [t.tolist() for chunk in chunks for t in chunk.transactions]


@given(text=fimi_texts(), chunk_transactions=st.integers(1, 6),
       chunk_items=st.integers(1, 30),
       max_transactions=st.one_of(st.none(), st.integers(0, 30)),
       small_blocks=st.booleans(), wanted=st.sets(st.integers(0, 30), max_size=5))
@settings(max_examples=150, deadline=None)
def test_readers_match_the_reference(text, chunk_transactions, chunk_items,
                                     max_transactions, small_blocks, wanted):
    expected = reference_rows(text)
    limited = expected if max_transactions is None else expected[:max_transactions]
    caps = dict(chunk_transactions=chunk_transactions, chunk_items=chunk_items,
                max_transactions=max_transactions)
    with tempfile.TemporaryDirectory() as tmp:
        path = _file(tmp, text)
        # Byte blocks as small as one item cap: lines and rows cross blocks.
        with mock.patch.object(streaming, "MIN_BLOCK_BYTES", 1 if small_blocks else
                               streaming.MIN_BLOCK_BYTES):
            chunks = list(iter_fimi_chunks(path, **caps))
            stats = scan_fimi_stats(path, **caps)
            collected = collect_transactions(path, wanted, **caps)
        assert _rows(chunks) == limited
        assert all(c.n_transactions <= chunk_transactions for c in chunks)
        assert [c.start_tid for c in chunks] == [
            sum(c.n_transactions for c in chunks[:k]) for k in range(len(chunks))]
        assert stats.n_transactions == len(limited)
        assert stats.total_items == sum(len(r) for r in limited)
        supports = np.bincount([i for r in limited for i in r]) if stats.total_items else []
        assert stats.item_supports.tolist() == list(supports)
        assert {t: v.tolist() for t, v in collected.items()} == {
            t: limited[t] for t in wanted if t < len(limited)}
        if limited:
            db = read_fimi(path, max_transactions=max_transactions)
            assert [t.tolist() for t in db.transactions] == limited
        else:
            with pytest.raises(DataFormatError, match="no transactions"):
                read_fimi(path, max_transactions=max_transactions)


@given(text=fimi_texts(max_id=10**18 - 1), block_bytes=st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_blocks_end_at_line_ends(text, block_bytes):
    """Any block size parses like the reference, ids of up to 18 digits included."""
    with tempfile.TemporaryDirectory() as tmp:
        blocks = list(iter_fimi_blocks(_file(tmp, text), block_bytes=block_bytes,
                                       name="data"))
    rows = [b.indices[lo:hi].tolist() for b in blocks
            for lo, hi in zip(b.indptr[:-1], b.indptr[1:])]
    assert rows == reference_rows(text)
    assert all(b.error is None for b in blocks)


@given(text=fimi_texts(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_bad_byte_reports_its_line(text, data):
    lines = (text + b"\n").split(b"\n")      # ends in an empty line: never all comments
    candidates = [k for k, line in enumerate(lines)
                  if not line.lstrip(BLANKS).startswith(b"#")]
    k = data.draw(st.sampled_from(candidates))
    pos = data.draw(st.integers(0, len(lines[k])))
    bad = data.draw(st.sampled_from([b"x", b"+", b"_", b"-", b".", b"\x00", b"\xff", b"\xc3"]))
    lines[k] = lines[k][:pos] + bad + lines[k][pos:]
    chunk_transactions = data.draw(st.integers(1, 5))
    with tempfile.TemporaryDirectory() as tmp:
        path = _file(tmp, b"\n".join(lines))
        where = rf"^data: line {k + 1}: "
        with pytest.raises(DataFormatError, match=where):
            read_fimi(path)
        with pytest.raises(DataFormatError, match=where):
            list(iter_fimi_chunks(path, chunk_transactions=chunk_transactions))
        with pytest.raises(DataFormatError, match=where):
            scan_fimi_stats(path)


class TestGrammar:
    def test_comment_lines_hold_any_bytes(self):
        rows = parse_fimi_block(b"# \xff\xfe not utf-8\n  #1 2 3\n4 2\n")
        assert rows.error is None
        assert rows.indices.tolist() == [2, 4] and rows.indptr.tolist() == [0, 2]

    def test_hash_after_an_item_is_malformed(self):
        with pytest.raises(DataFormatError, match="line 3: non-integer token"):
            parse_fimi_line("1 2 # trailing note", 3)

    def test_rows_before_a_malformed_line_are_kept(self):
        rows = parse_fimi_block(b"1\n\n2 3\n4 x\n5\n", first_line=10, source="s")
        assert rows.indptr.tolist() == [0, 1, 3]
        assert str(rows.error) == "s: line 13: non-integer token in '4 x'"

    def test_eighteen_digits_is_the_limit(self):
        assert parse_fimi_line("0" * 17 + "7 999999999999999999", 1).tolist() == [
            7, 999_999_999_999_999_999]
        with pytest.raises(DataFormatError, match="line 2: item id 1000000000000000000 "
                                                  "has more than 18 digits"):
            parse_fimi_line("1000000000000000000", 2)

    def test_transaction_ids_are_ordinals_of_non_blank_lines(self, tmp_path):
        path = tmp_path / "ids.fimi"
        path.write_bytes(b"\r\n# c\r\n3 1\r\n \t\r\n1\r\n")
        (chunk,) = iter_fimi_chunks(path)
        assert chunk.tids().tolist() == [0, 1]
        assert [t.tolist() for t in chunk.transactions] == [[1, 3], [1]]


class TestReaderErrors:
    """Malformed input ends in one ``error:`` line naming file and line, exit 2."""

    @pytest.mark.parametrize("content, message", [
        (b"1 2\n3 99999999999999999999\n",
         "error: bad: line 2: item id 99999999999999999999 has more than 18 digits"),
        (b"1 2\n3 \xff\n", "error: bad: line 2: non-integer token in '3 \\\\xff'"),
        (b"+2\n", "error: bad: line 1: non-integer token in '+2'"),
        (b"1\n\n1_0\n", "error: bad: line 3: non-integer token in '1_0'"),
        (b"1 -2\n", "error: bad: line 1: negative item id"),
    ])
    @pytest.mark.parametrize("stream", [False, True])
    def test_cli_reports_one_error_line(self, tmp_path, content, message, stream):
        path = tmp_path / "bad.fimi"
        path.write_bytes(content)
        out = io.StringIO()
        argv = ["mine", str(path), "--compute", "auto"]
        if stream:
            argv += ["--stream", "--memory-budget", "64M"]
        assert main(argv, out=out) == 2
        assert out.getvalue().splitlines() == [message]

    def test_set_files_share_the_grammar(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("# set A\n1 2\n3\n")
        b.write_text("3 1 1\n")
        out = io.StringIO()
        assert main(["intersect", str(a), str(b)], out=out) == 0
        assert "intersection size (merge) : 2" in out.getvalue()
        b.write_text("3\n+1\n")
        out = io.StringIO()
        assert main(["intersect", str(a), str(b)], out=out) == 2
        assert out.getvalue().splitlines() == [
            f"error: {b}: line 2: non-integer token in '+1'"]
