"""Driver for the invariant linter: modules, the R010 check, reports.

A :class:`ModuleInfo` is one parsed source file: the AST (with parent
links, which a matcher may read as ``node._repro_parent``) and the
module path *relative to the package root*, so a declared site such as
``access/scan.py`` matches wherever the tree is checked out.

:func:`check` judges one module against the table of declared sites
(``rules.DECLARED_SITES``), and :func:`analyze_paths` runs it over every
file under the paths it is given, returning the findings in a
:class:`Report`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.rules import DECLARED_SITES, DeclaredSites

#: Rule id for files the parser rejects (mirrors ruff's E999).
SYNTAX_ERROR_RULE = "E999"

#: Rule id of the declared-sites check.
RULE = "R010"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str      #: path as given on the command line / to the driver
    line: int
    col: int
    rule: str
    message: str


class ModuleInfo:
    """One parsed module plus the context the check needs to judge it."""

    def __init__(self, path: Path, source: str):
        self.display_path = str(path)
        self.rel = _package_relative(path)
        self.tree = ast.parse(source, filename=str(path))
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                child._repro_parent = parent  # type: ignore[attr-defined]


def _package_relative(path: Path) -> str:
    """Module path relative to the ``repro`` package root.

    ``src/repro/txn/locks.py`` → ``txn/locks.py``.  Fixture trees used
    by the test suite place files under a directory literally named
    ``repro`` so declared sites apply; files outside any
    ``repro`` directory fall back to their bare filename.
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro" and i < len(parts) - 1:
            return "/".join(parts[i + 1:])
    return path.name


def check(module: ModuleInfo,
          table: tuple[DeclaredSites, ...]) -> Iterator[Finding]:
    """Each pattern of *table* occurs exactly where declared.

    A finding lands on each site beyond its module's count, in source
    order, and at line 1 of a module holding fewer sites than declared:
    the site moved, and the table must say where to.
    """
    nodes = list(ast.walk(module.tree))
    for entry in table:
        found = sorted((n for n in nodes if entry.matches(n)),
                       key=lambda n: (n.lineno, n.col_offset))
        allowed = entry.sites.get(module.rel, 0)
        declared = ", ".join(f"{rel} ({n})" for rel, n
                             in entry.sites.items()) or "none"
        for node in found[allowed:]:
            yield Finding(
                rule=RULE, path=module.display_path, line=node.lineno,
                col=node.col_offset,
                message=f"{entry.pattern} beyond its declared sites "
                        f"[{declared}] — {entry.why} (docs/invariants.md, "
                        f"R010)")
        if len(found) < allowed:
            yield Finding(
                rule=RULE, path=module.display_path, line=1, col=0,
                message=f"{entry.pattern}: {len(found)} of the {allowed} "
                        f"declared site(s) here — {entry.why}; if the "
                        f"site moved, update DECLARED_SITES")


# -- driver -------------------------------------------------------------------------


@dataclass
class Report:
    """The outcome of one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0


def _load_module(path: Path, report: Report) -> ModuleInfo | None:
    """Parse one file into a ModuleInfo, or record an E999 finding."""
    try:
        return ModuleInfo(path, path.read_text(encoding="utf-8"))
    except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
        line = getattr(exc, "lineno", None) or 1
        col = (getattr(exc, "offset", None) or 1) - 1
        report.findings.append(Finding(
            rule=SYNTAX_ERROR_RULE, path=str(path), line=line, col=max(col, 0),
            message=f"cannot parse file: {getattr(exc, 'msg', exc)}"))
        return None


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files and directories into a sorted stream of ``.py`` files."""
    for path in paths:
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py")
                if "__pycache__" not in p.parts)
        else:
            yield path


def analyze_paths(paths: Iterable[Path | str],
                  table: tuple[DeclaredSites, ...] = DECLARED_SITES
                  ) -> Report:
    """Parse every file under *paths* and :func:`check` each against
    *table* (default: every row)."""
    report = Report()
    for path in iter_python_files(Path(p) for p in paths):
        report.files_checked += 1
        module = _load_module(path, report)
        if module is not None:
            report.findings.extend(check(module, table))
    report.findings.sort()
    return report
