"""Driver for the invariant linter: modules, rules, reports.

A :class:`ModuleInfo` is one parsed source file plus everything a rule
needs to judge it: the AST (with parent links) and the module path
*relative to the package root*, so a declared site such as
``access/scan.py`` matches wherever the tree is checked out.

Rules are small classes registered with :func:`register`; the driver
instantiates each once and feeds it every module.  A rule yields
:class:`Finding` objects, and the driver returns them in a
:class:`Report`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

#: Rule id for files the parser rejects (mirrors ruff's E999).
SYNTAX_ERROR_RULE = "E999"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str      #: path as given on the command line / to the driver
    line: int
    col: int
    rule: str
    message: str


class Rule:
    """Base class for one invariant check.

    Subclasses set ``id`` and implement :meth:`check`, yielding
    findings.  Use :meth:`finding` to build them so the location
    bookkeeping stays in one place.
    """

    id: str = ""

    def check(self, module: "ModuleInfo") -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover

    def finding(self, module: "ModuleInfo", node: ast.AST,
                message: str) -> Finding:
        return Finding(rule=self.id, path=module.display_path,
                       line=node.lineno, col=node.col_offset, message=message)


#: Registry of rule instances by id, populated by :func:`register`.
_RULES: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register a :class:`Rule`."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    _RULES[cls.id] = cls()
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, in id order."""
    return [_RULES[key] for key in sorted(_RULES)]


def get_rule(rule_id: str) -> Rule:
    try:
        return _RULES[rule_id]
    except KeyError:
        known = ", ".join(sorted(_RULES)) or "none registered"
        raise KeyError(f"unknown rule {rule_id!r} (known: {known})") from None


class ModuleInfo:
    """One parsed module plus the context rules need to judge it."""

    def __init__(self, path: Path, source: str):
        self.display_path = str(path)
        self.rel = _package_relative(path)
        self.tree = ast.parse(source, filename=str(path))
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                child._repro_parent = parent  # type: ignore[attr-defined]

    def parent(self, node: ast.AST) -> ast.AST | None:
        return getattr(node, "_repro_parent", None)

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        """The innermost function definition lexically containing *node*."""
        current = self.parent(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self.parent(current)
        return None


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
                  rules: Iterable[Rule] | None = None) -> Report:
    """Parse every file under *paths* and run the rules (default: every
    registered rule) over each."""
    chosen = list(rules) if rules is not None else all_rules()
    report = Report()
    for path in iter_python_files(Path(p) for p in paths):
        report.files_checked += 1
        module = _load_module(path, report)
        if module is not None:
            for rule in chosen:
                report.findings.extend(rule.check(module))
    report.findings.sort()
    return report
