"""The docs embed tables printed from the declarations they describe.

docs/invariants.md embeds the two tables ``python -m repro.analysis
--doc`` prints: the lock hierarchy from ``txn/lockdep.py::HIERARCHY``
and the R010 table from ``analysis/rules.py::DECLARED_SITES``.
docs/performance.md embeds the pin table ``python benchmarks/pins.py``
prints from ``benchmarks/pins.py::PINS``.  A PR that moves a rank, a
site or a pin edits the declaration and pastes the printed table; these
tests name the first line that differs.
"""

from __future__ import annotations

from pathlib import Path

from benchmarks.pins import render_table
from repro.analysis.cli import main, render_doc_tables

DOCS = Path(__file__).resolve().parent.parent / "docs"


def printed_table(header: str) -> list[str]:
    """The lines of the printed table whose header row starts with
    *header*."""
    return next(table.splitlines()
                for table in render_doc_tables().split("\n\n")
                if table.startswith(header))


def documented_table(header: str, doc: str = "invariants.md") -> list[str]:
    """The lines of *doc*'s table whose header row starts with *header*,
    up to the first line that is not a table row."""
    lines = (DOCS / doc).read_text().splitlines()
    start = next(at for at, line in enumerate(lines)
                 if line.startswith(header))
    end = start
    while end < len(lines) and lines[end].startswith("|"):
        end += 1
    return lines[start:end]


def test_the_lock_hierarchy_table_is_hierarchy():
    header = "| Rank | Domain | Class |"
    assert documented_table(header) == printed_table(header)


def test_the_r010_declared_sites_are_declared_sites():
    header = "| Pattern | Declared sites | Why |"
    assert documented_table(header) == printed_table(header)


def test_the_pin_table_is_pins():
    printed = render_table().splitlines()
    documented = documented_table(printed[0], "performance.md")
    assert documented == printed


def test_the_doc_option_prints_both_tables(capsys):
    assert main(["--doc"]) == 0
    printed = capsys.readouterr().out
    assert printed == render_doc_tables() + "\n"
    assert len(printed.split("\n\n")) == 2
