"""docs/invariants.md's two hand-kept tables say what the code says.

The lock-hierarchy table restates ``txn/lockdep.py::HIERARCHY`` and the
R010 table's "Declared sites" column restates the module counts of
``analysis/rules.py::DECLARED_SITES``.  A PR that moves a rank or a site
must edit the table too; this test names the first row that differs.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis.rules import DECLARED_SITES
from repro.txn.lockdep import HIERARCHY

INVARIANTS = Path(__file__).resolve().parent.parent / "docs" / "invariants.md"
_SITE = re.compile(r"`([\w/]+\.py)` \((\d+)\)")


def table_rows(header: str) -> list[list[str]]:
    """The cells of each body row of the table whose header row starts
    with *header*."""
    lines = INVARIANTS.read_text().splitlines()
    start = next(at for at, line in enumerate(lines)
                 if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split(" | ")])
    return rows


def test_the_lock_hierarchy_table_is_hierarchy():
    documented = [(int(rank), domain, name.strip("`"))
                  for rank, domain, name, _what
                  in table_rows("| Rank | Domain | Class |")]
    assert documented == [(lock.rank, lock.domain, lock.name)
                          for lock in HIERARCHY.values()]


def test_the_r010_declared_sites_are_declared_sites():
    documented = [{module: int(count)
                   for module, count in _SITE.findall(sites)}
                  for _pattern, sites, _why
                  in table_rows("| Pattern | Declared sites | Why |")]
    assert documented == [dict(row.sites) for row in DECLARED_SITES]
