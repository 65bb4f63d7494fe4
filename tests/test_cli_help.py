"""Snapshot tests for the CLI ``--help`` surface.

Every subcommand's ``format_help()`` (plus the top-level parser's) must
match its checked-in snapshot under ``tests/data/cli_help/``.  A failing
test means the CLI changed: rerun ``python tools/update_cli_snapshots.py``
and review the snapshot diff together with any docs that quote the help
text (README quickstarts, docs/serving.md).

Rendering is normalised exactly as the regenerator normalises it (fixed
width, Python 3.9 heading rewrite), so the snapshots are identical across
the CI matrix.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "update_cli_snapshots", REPO_ROOT / "tools" / "update_cli_snapshots.py")
snapshots = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snapshots)

SOURCES = snapshots.snapshot_sources()


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_help_matches_snapshot(name):
    path = snapshots.SNAPSHOT_DIR / f"{name}.txt"
    assert path.exists(), (
        f"no snapshot for `repro {name}` — run "
        "`python tools/update_cli_snapshots.py`")
    rendered = snapshots.render_help(SOURCES[name])
    assert rendered == path.read_text(), (
        f"`repro {name}` --help drifted from its snapshot; if the change is "
        "intentional run `python tools/update_cli_snapshots.py` and commit "
        "the diff")


def test_no_orphan_snapshots():
    """Every snapshot file corresponds to a live subcommand."""
    on_disk = {p.stem for p in snapshots.SNAPSHOT_DIR.glob("*.txt")}
    assert on_disk == set(SOURCES), (
        "snapshot files and CLI subcommands disagree — run "
        "`python tools/update_cli_snapshots.py`")


def test_every_subcommand_is_snapshotted():
    """The parametrised set covers the full subparser table."""
    from repro.cli import subcommand_parsers

    assert set(subcommand_parsers()) | {snapshots.TOP_LEVEL} == set(SOURCES)


@pytest.mark.parametrize("name", sorted(set(SOURCES) - {snapshots.TOP_LEVEL}))
def test_single_command_parser_matches_snapshots(name):
    """``main`` builds only the invoked subcommand; what it can print is unchanged."""
    import argparse

    from repro.cli import build_parser

    parser = build_parser(name)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == [name]
    expected = (snapshots.SNAPSHOT_DIR / f"{name}.txt").read_text()
    assert snapshots.render_help(sub.choices[name]) == expected
    # the top-level usage (printed with an unrecognised argument) names them all
    assert parser.format_usage() == SOURCES[snapshots.TOP_LEVEL].format_usage()
