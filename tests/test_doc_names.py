"""Every code name the prose documents cite still exists.

The docs name the engine's classes and functions in backticks —
``Class.attr`` and ``path.py::name`` — and a rename or deletion that
forgets them leaves a reader hunting for code that is gone.  This test
resolves each such name against the Python under ``src/``, ``tests/`` and
``benchmarks/`` by parsing it (nothing is imported).  A section whose
heading names a PR ("The chunk run (PR 22): before and after") records
history, so the names it cites may be gone on purpose: it is skipped,
with every section below it.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ["README.md", "DESIGN.md", "ROADMAP.md",
        *sorted(str(p.relative_to(ROOT)) for p in (ROOT / "docs").glob("*.md"))]
CODE_DIRS = ("src", "tests", "benchmarks")

_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_SPAN = re.compile(r"`([^`]+)`")
_HEADING = re.compile(r"^(#+)\s+(.*)$", re.M)
_HISTORY = re.compile(r"\bPRs? \d+")
#: ``Class.attr``: a CamelCase class (one lower-case letter at least, so
#: a POSTQUEL ``EMP.name`` or ``T.k`` is not one) and an identifier.
_CLASS_ATTR = re.compile(r"([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)\.([A-Za-z_]\w*)")
#: ``path.py::name``, ``path.py::Class.attr``, ``path.py::Class::test``.
_PATH_NAME = re.compile(r"([\w/.-]+\.py)::(\w+)(?:(?:\.|::)(\w+))?")


class _Scope:
    """What a class (or a module) defines, and the classes it names as
    bases."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.bases: list[str] = []


def _target_names(node: ast.AST) -> set[str]:
    """Names an assignment binds: ``x``, ``self.x`` and unpackings."""
    if isinstance(node, ast.Name):
        return {node.id}
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return {node.attr}
    if isinstance(node, (ast.Tuple, ast.List)):
        return set().union(*map(_target_names, node.elts))
    return set()


def _bound(statement: ast.AST) -> set[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        return set().union(*map(_target_names, statement.targets))
    if isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        return _target_names(statement.target)
    if isinstance(statement, (ast.Import, ast.ImportFrom)):
        return {(alias.asname or alias.name).split(".")[0]
                for alias in statement.names}
    return set()


def _class_scope(node: ast.ClassDef) -> _Scope:
    scope = _Scope()
    scope.bases = [base.id if isinstance(base, ast.Name) else base.attr
                   for base in node.bases
                   if isinstance(base, (ast.Name, ast.Attribute))]
    for statement in node.body:
        scope.names |= _bound(statement)
        if isinstance(statement, (ast.If, ast.Try)):
            for inner in ast.walk(statement):
                scope.names |= _bound(inner)
    # Instance attributes: ``self.x = ...`` in any method.
    for method in node.body:
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(method):
                if isinstance(inner, (ast.Assign, ast.AnnAssign,
                                      ast.AugAssign)):
                    targets = (inner.targets if isinstance(inner, ast.Assign)
                               else [inner.target])
                    for target in targets:
                        scope.names |= {
                            name for name in _target_names(target)
                            if isinstance(target, ast.Attribute)}
    return scope


@lru_cache(maxsize=None)
def _index() -> tuple[dict[str, _Scope], dict[str, list[_Scope]]]:
    """``{relative path: names}`` and ``{class name: [scopes]}`` over
    every ``.py`` file in the code directories; a file's names are what
    it binds at module level and what any class in it defines."""
    modules: dict[str, _Scope] = {}
    classes: dict[str, list[_Scope]] = {}
    for directory in CODE_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            module = modules[str(path.relative_to(ROOT))] = _Scope()
            for statement in tree.body:
                module.names |= _bound(statement)
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    scope = _class_scope(node)
                    classes.setdefault(node.name, []).append(scope)
                    module.names |= scope.names   # ``file.py::method``
    return modules, classes


def _has_attribute(class_name: str, attr: str, seen: set[str]) -> bool:
    """Whether some class of that name defines *attr*, itself or through
    a base defined in the code."""
    if class_name in seen:
        return False
    seen.add(class_name)
    return any(attr in scope.names
               or any(_has_attribute(base, attr, seen)
                      for base in scope.bases)
               for scope in _index()[1].get(class_name, []))


def _modules_matching(path: str) -> list[_Scope]:
    path = path.lstrip("./")
    return [scope for rel, scope in _index()[0].items()
            if rel == path or rel.endswith("/" + path)]


def _stale(span: str) -> str | None:
    """Why the reference *span* opens with does not resolve, or ``None``
    (also when it is no such reference)."""
    match = _PATH_NAME.match(span)
    if match:
        path, name, member = match.groups()
        modules = _modules_matching(path)
        if not modules:
            return f"no file {path}"
        if not any(name in scope.names for scope in modules):
            return f"{path} defines no {name}"
        if member and not _has_attribute(name, member, set()):
            return f"{name} has no {member}"
        return None
    match = _CLASS_ATTR.match(span)
    if match is None:
        return None
    class_name, attr = match.groups()
    if class_name not in _index()[1]:
        return f"no class {class_name}"
    if not _has_attribute(class_name, attr, set()):
        return f"{class_name} has no {attr}"
    return None


def _current_text(text: str) -> list[tuple[int, str]]:
    """``(line number, text)`` of each part of *text* outside fenced code
    and outside history sections."""
    text = _FENCE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    parts, start, skip_below = [], 0, None
    for heading in _HEADING.finditer(text):
        level = len(heading.group(1))
        if skip_below is None:
            parts.append((start, text[start:heading.start()]))
        elif level <= skip_below:
            skip_below = None
        if skip_below is None and _HISTORY.search(heading.group(2)):
            skip_below = level
        start = heading.start()
    if skip_below is None:
        parts.append((start, text[start:]))
    return [(text.count("\n", 0, offset) + 1, part)
            for offset, part in parts]


def stale_names(doc: str) -> list[str]:
    text = (ROOT / doc).read_text(encoding="utf-8")
    out = []
    for first_line, part in _current_text(text):
        for span in _SPAN.finditer(part):
            reason = _stale(" ".join(span.group(1).split()))
            if reason is not None:
                line = first_line + part.count("\n", 0, span.start())
                out.append(f"{doc}:{line}: `{span.group(1)}` — {reason}")
    return out


@pytest.mark.parametrize("doc", DOCS)
def test_every_cited_name_resolves(doc):
    assert stale_names(doc) == []


class TestTheCheckItself:
    def test_it_finds_a_stale_name_and_passes_a_live_one(self):
        assert _stale("BTree.range_scan_desc(hi, lo)") is None
        assert _stale("BTree.no_such_method") == (
            "BTree has no no_such_method")
        assert _stale("NoSuchClass.attr") == "no class NoSuchClass"
        assert _stale("access/scan.py::IndexRangeScan._live") is None
        assert _stale("access/scan.py::nothing") == (
            "access/scan.py defines no nothing")
        assert _stale("tests/test_btree.py::TestDelete::test_delete_single"
                      ) is None
        assert _stale("EMP.name") is None             # POSTQUEL, not code
        assert _stale("db.lo.create(txn)") is None    # not a reference

    def test_inherited_and_instance_attributes_resolve(self):
        assert _stale("IndexProbe.first") is None     # from IndexRangeScan
        assert _stale("BTree.latch_probe") is None    # set in __init__
        assert _stale("AccessStats.probes") is None   # a dataclass field

    def test_history_sections_are_skipped(self):
        text = ("# Doc\n`A.b`\n## Old (PR 7)\n`C.d`\n### below\n`E.f`\n"
                "## New\n`G.h`\n")
        kept = "".join(part for _line, part in _current_text(text))
        assert "`A.b`" in kept and "`G.h`" in kept
        assert "`C.d`" not in kept and "`E.f`" not in kept
