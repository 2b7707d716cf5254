"""Driver for the invariant linter: modules, rules, suppressions.

A :class:`ModuleInfo` is one parsed source file plus everything a rule
needs to judge it: the AST (with parent links), the module path
*relative to the package root* (so location-scoped rules like "only
``smgr/`` may open files" work no matter where the tree is checked
out), and the per-line suppression table parsed from
``# repro: allow(<rule>[, <rule>...])`` comments.

Rules are small classes registered with :func:`register`; the driver
instantiates each once and feeds it every module.  A rule yields
:class:`Finding` objects; the driver drops findings whose line carries
a matching suppression and returns the rest in a :class:`Report`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

#: Matches ``repro: allow(R001)`` / ``repro: allow(R001, R004): reason``
#: comments (written with a leading ``#`` in source).
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(\s*([A-Za-z0-9_,\s]+?)\s*\)")

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

    Subclasses set ``id`` / ``name`` / ``summary`` and implement
    :meth:`check`, yielding findings (suppressions are the driver's
    job, not the rule's).  Use :meth:`finding` to build them so the
    location bookkeeping stays in one place.
    """

    id: str = ""
    name: str = ""
    summary: str = ""

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
        #: line number → rule ids a ``# repro: allow(...)`` names there
        self.suppressions = _parse_suppressions(
            source.splitlines(), _docstring_lines(self.tree))

    # -- location helpers ----------------------------------------------------------

    def in_package(self, *prefixes: str) -> bool:
        """Whether this module lives under any of the given rel prefixes.

        A prefix ending in ``/`` matches a package directory; otherwise
        it must equal the module path exactly (``"smgr/"`` vs
        ``"lo/ufile.py"``).
        """
        for prefix in prefixes:
            if prefix.endswith("/"):
                if self.rel.startswith(prefix):
                    return True
            elif self.rel == prefix:
                return True
        return False

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
    ``repro`` to exercise location-scoped rules; files outside any
    ``repro`` directory fall back to their bare filename.
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro" and i < len(parts) - 1:
            return "/".join(parts[i + 1:])
    return path.name


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by docstring-position string literals.

    The rule catalogue documents the suppression syntax *inside*
    docstrings; those examples are prose, not suppressions, and must
    not be parsed as (inevitably unused) allow-comments.
    """
    covered: set[int] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            end = node.value.end_lineno or node.value.lineno
            covered.update(range(node.value.lineno, end + 1))
    return covered


def _parse_suppressions(lines: list[str],
                        skip: set[int] | None = None
                        ) -> dict[int, set[str]]:
    """Map line number → rule ids allowed there.

    A suppression comment on a code line covers that line.  A comment
    on a line of its own covers the next non-blank, non-comment line
    (so long justifications can sit above the statement they excuse).
    Lines in *skip* (docstrings) are never suppressions.
    """
    table: dict[int, set[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        if skip and lineno in skip:
            continue
        match = _ALLOW_RE.search(text)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",")
                 if part.strip()}
        stripped = text.strip()
        target = lineno
        if stripped.startswith("#"):
            for later in range(lineno + 1, len(lines) + 1):
                later_text = lines[later - 1].strip()
                if later_text and not later_text.startswith("#"):
                    target = later
                    break
        table.setdefault(target, set()).update(rules)
    return table


# -- driver -------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class UnusedSuppression:
    """A ``# repro: allow(...)`` that suppressed nothing this run.

    Only suppressions naming a rule that was actually *selected* are
    judged: running ``--select R001`` must not flag every R004
    suppression in the tree as stale.
    """

    path: str
    line: int
    rule: str


@dataclass
class Report:
    """The outcome of one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    unused_suppressions: list[UnusedSuppression] = field(
        default_factory=list)


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
    """Parse every file under *paths*, run the rules (default: every
    registered rule) over each, apply suppressions, and report the
    selected-but-unused ones."""
    chosen = list(rules) if rules is not None else all_rules()
    selected_ids = {r.id for r in chosen}
    report = Report()
    for path in iter_python_files(Path(p) for p in paths):
        report.files_checked += 1
        module = _load_module(path, report)
        if module is None:
            continue
        used: set[tuple[int, str]] = set()
        for rule in chosen:
            for found in rule.check(module):
                if found.rule in module.suppressions.get(found.line, ()):
                    report.suppressed += 1
                    used.add((found.line, found.rule))
                else:
                    report.findings.append(found)
        for line, rule_ids in module.suppressions.items():
            for rule_id in rule_ids:
                if rule_id in selected_ids and (line, rule_id) not in used:
                    report.unused_suppressions.append(UnusedSuppression(
                        path=module.display_path, line=line,
                        rule=rule_id))
    report.findings.sort()
    report.unused_suppressions.sort()
    return report
