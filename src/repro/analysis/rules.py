"""The project-specific invariant rules (R001, R003–R007).

Each rule encodes one discipline the engine's correctness rests on; the
prose catalogue (with the reasoning and the suppression policy) is
``docs/invariants.md``, and the locking rules specifically are
DESIGN.md §5c.  Rules work on lexical structure only — no type
inference — so each one documents the heuristics it uses to avoid
false positives, and intentional exceptions are annotated in source
with ``# repro: allow(<rule>): <why>``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleInfo, Rule, register


# -- shared AST helpers -------------------------------------------------------------


def dotted(node: ast.AST) -> str | None:
    """``self.db.locks.acquire`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _references_any(nodes: list[ast.stmt], names: set[str]) -> bool:
    """Whether any Name or attribute access in *nodes* hits *names*."""
    for stmt in nodes:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id in names:
                return True
            if isinstance(node, ast.Attribute) and node.attr in names:
                return True
    return False


# -- R001: raw heap/index access stays in the scan layer ----------------------------


@register
class RawAccessRule(Rule):
    """Raw ``HeapRelation.fetch``/``BTree.search`` only in the scan layer.

    DESIGN.md §5c: all index/heap reads go through the scan descriptors
    in ``access/scan.py``, which take the engine latch internally.  A
    raw call anywhere else bypasses latching and visibility and is a
    silent race.  Allowed locations: the scan layer itself, the
    defining modules (``access/heap.py``/``access/btree.py`` call their
    own methods internally), and ``catalog/integrity.py`` diagnostics.

    Heuristics: receivers named ``db`` / ``*.db`` are the ``Database``
    facade (its ``fetch`` latches internally) and are skipped, as are
    regex-ish receivers (``re``, ``*_re``, ``*pattern``) for ``search``.
    """

    id = "R001"
    name = "raw-access"
    summary = ("HeapRelation.fetch/fetch_many and BTree.search/search_newest"
               "/range_scan/range_scan_desc must go through repro.access.scan")

    METHODS = frozenset({"fetch", "fetch_many", "search", "search_newest",
                         "range_scan", "range_scan_desc"})
    ALLOWED = ("access/scan.py", "access/heap.py", "access/btree.py",
               "catalog/integrity.py", "analysis/")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.in_package(*self.ALLOWED):
            return
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self.METHODS):
                continue
            receiver = dotted(node.func.value)
            if receiver is not None:
                last = receiver.rsplit(".", 1)[-1]
                if last == "db" or last == "database":
                    continue  # Database facade, latches internally
                if node.func.attr == "search" and (
                        receiver == "re"
                        or last.endswith(("_re", "_rx", "pattern", "regex"))):
                    continue  # regular expression, not a B-tree
            yield self.finding(
                module, node,
                f"raw access-method call `{dotted(node.func) or node.func.attr}`"
                f" outside the scan layer — use the descriptors in "
                f"repro.access.scan (IndexProbe/IndexRangeScan/SeqScan), "
                f"which own latching and visibility")


# -- R003: block I/O flows through the storage-manager switch -----------------------


@register
class SmgrOnlyIORule(Rule):
    """Direct file I/O only in the storage managers.

    All engine data flows through the storage-manager switch
    (``smgr/``) so that caching, WORM simulation, and fault injection
    see every block; the external large-object implementations
    (``lo/ufile.py``, ``lo/nativefs.py``) are the paper-sanctioned
    exception (§6.1: the u-file lives outside the database).  Flags
    builtin ``open(...)``, ``os.open`` / ``os.fdopen`` / ``io.open``,
    and ``Path(...).open(...)`` elsewhere.

    ``bench/`` and ``tools/`` are exempt: they read and write *host*
    files (reports, dump/restore archives), not engine data paths.
    """

    id = "R003"
    name = "smgr-only-io"
    summary = ("direct open()/os.open outside smgr/ and the external-file "
               "LO implementations — block I/O goes through the smgr switch")

    ALLOWED = ("smgr/", "lo/ufile.py", "lo/nativefs.py")
    EXEMPT = ("bench/", "tools/", "analysis/")
    OS_OPENERS = frozenset({"os.open", "os.fdopen", "io.open"})

    def _is_direct_open(self, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "open":
            return True
        chain = dotted(func)
        if chain in self.OS_OPENERS:
            return True
        # Path("...").open(...) — only the direct-call form is
        # recognisable without type inference.
        if (isinstance(func, ast.Attribute) and func.attr == "open"
                and isinstance(func.value, ast.Call)):
            ctor = dotted(func.value.func)
            if ctor is not None and ctor.rsplit(".", 1)[-1] == "Path":
                return True
        return False

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.in_package(*self.ALLOWED) or module.in_package(*self.EXEMPT):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and self._is_direct_open(node):
                yield self.finding(
                    module, node,
                    "direct file open outside the storage-manager layer — "
                    "route block I/O through the smgr switch (smgr/) so "
                    "caching, WORM accounting, and fault injection see it")


# -- R004: wall-clock time comes from the simulated clock ---------------------------


@register
class SimClockRule(Rule):
    """Wall-clock reads only in ``sim/clock.py``.

    Commit timestamps drive time travel, and benchmarks charge
    simulated seconds; a stray ``time.time()`` smuggles real time into
    either and breaks reproducibility.  Flags ``time.time`` /
    ``monotonic`` / ``perf_counter`` (+ ``_ns`` variants, ``localtime``,
    ``gmtime``), ``datetime.now`` / ``utcnow`` / ``today``, and
    ``date.today`` — whether called via the module or imported directly
    (``from time import time``).
    """

    id = "R004"
    name = "sim-clock"
    summary = ("wall-clock access outside sim/clock.py — timestamps come "
               "from SimClock.now()")

    ALLOWED = ("sim/clock.py", "analysis/")
    BANNED = {
        "time": frozenset({"time", "time_ns", "monotonic", "monotonic_ns",
                           "perf_counter", "perf_counter_ns", "localtime",
                           "gmtime"}),
        "datetime": frozenset({"now", "utcnow", "today"}),
        "date": frozenset({"today"}),
    }

    def _direct_imports(self, module: ModuleInfo) -> set[str]:
        """Local names bound by ``from time/datetime import <banned>``."""
        bound: set[str] = set()
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("time", "datetime")):
                for alias in node.names:
                    if alias.name in self.BANNED.get(node.module, frozenset()):
                        bound.add(alias.asname or alias.name)
        return bound

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.in_package(*self.ALLOWED):
            return
        direct = self._direct_imports(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted(node.func)
            if chain is not None and "." in chain:
                base, attr = chain.rsplit(".", 1)
                base_last = base.rsplit(".", 1)[-1]
                if attr in self.BANNED.get(base_last, frozenset()):
                    yield self.finding(
                        module, node,
                        f"`{chain}` reads the wall clock — simulated and "
                        f"logical time come from sim/clock.py (SimClock)")
                    continue
            if (isinstance(node.func, ast.Name)
                    and node.func.id in direct):
                yield self.finding(
                    module, node,
                    f"`{node.func.id}()` (imported from time/datetime) reads "
                    f"the wall clock — use sim/clock.py (SimClock)")


# -- R005: every begin() has a commit/abort on the error path -----------------------


@register
class TxnScopeRule(Rule):
    """A function that begins a transaction must end it on failure.

    An exception between ``begin()`` and ``commit()`` with no guard
    leaks an ACTIVE transaction: its locks stay held and every later
    snapshot treats its xid as in-progress forever.  A ``begin()`` call
    is fine when it is (a) used as a context manager (``with
    db.begin() as txn:`` — ``Transaction.__exit__`` aborts on error),
    (b) directly returned (the caller owns the scope), or (c) inside a
    function itself named ``begin*`` (a delegation wrapper).  Otherwise
    the enclosing function must reference ``commit``/``abort``/
    ``rollback`` inside an ``except`` handler or ``finally`` block.
    """

    id = "R005"
    name = "txn-scope"
    summary = ("begin() without commit/abort on a finally/except path "
               "leaks an ACTIVE transaction on error")

    CLOSERS = frozenset({"commit", "abort", "rollback"})

    def _is_guarded(self, func: ast.AST) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Try):
                for handler in node.handlers:
                    if _references_any(handler.body, self.CLOSERS):
                        return True
                if _references_any(node.finalbody, self.CLOSERS):
                    return True
        return False

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "begin"):
                continue
            parent = module.parent(node)
            if isinstance(parent, ast.withitem):
                continue  # with db.begin() as txn: — __exit__ cleans up
            if isinstance(parent, ast.Return):
                continue  # delegation: caller owns the transaction scope
            enclosing = module.enclosing_function(node)
            if enclosing is None:
                continue  # module-level script code is out of scope
            if enclosing.name.startswith("begin"):
                continue  # begin() wrappers delegate scope to their caller
            if self._is_guarded(enclosing):
                continue
            yield self.finding(
                module, node,
                f"`{dotted(node.func) or 'begin'}()` in "
                f"`{enclosing.name}` has no commit/abort on a "
                f"finally/except path — an exception leaks an ACTIVE "
                f"transaction (use `with ... .begin() as txn:` or a "
                f"try/except that aborts)")


# -- R006: no swallowed exceptions in the engine core -------------------------------


@register
class BareExceptRule(Rule):
    """No bare ``except:`` or ``except Exception: pass`` in the core.

    In ``txn/``, ``smgr/``, ``storage/``, and ``access/`` a swallowed
    exception converts a detectable failure into silent corruption
    (a page half-written, a lock never released).  Bare ``except:`` is
    flagged unconditionally; ``except Exception`` / ``BaseException``
    is flagged when its body does nothing but ``pass``.  Narrow
    handlers (``except ValueError: pass``) are fine.
    """

    id = "R006"
    name = "bare-except-swallows"
    summary = ("bare `except:` or `except Exception: pass` in the engine "
               "core swallows failures that must propagate")

    PACKAGES = ("txn/", "smgr/", "storage/", "access/")
    BROAD = frozenset({"Exception", "BaseException"})

    def _is_noop(self, body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)):
                continue  # docstring or `...`
            return False
        return True

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_package(*self.PACKAGES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module, node,
                    "bare `except:` in the engine core — catch the "
                    "specific exception, or at least re-raise")
                continue
            type_name = dotted(node.type)
            if (type_name is not None
                    and type_name.rsplit(".", 1)[-1] in self.BROAD
                    and self._is_noop(node.body)):
                yield self.finding(
                    module, node,
                    f"`except {type_name}: pass` swallows every failure — "
                    f"narrow the exception type or handle it")


# -- R007: no bytes() copies of buffer slices on the hot path -----------------------


@register
class HotPathBytesCopyRule(Rule):
    """``bytes(buf[a:b])`` is a copy; hot paths hand out memoryviews.

    The zero-copy discipline (docs/performance.md): the slotted page and
    the access layer expose buffer contents as memoryview slices of the
    pinned frame, and the ONE sanctioned copying accessor is
    ``SlottedPage.get_item``.  A ``bytes(...)`` call over a subscript
    slice anywhere else in ``storage/page.py`` or ``access/`` is a
    back-slide into per-item copies — take ``item_view`` (and copy at
    the boundary if the bytes must outlive the pin), or annotate the
    line with ``# repro: allow(R007): <why>`` if the copy is the point.

    Heuristic: lexical only — flags ``bytes(<expr>[<slice>])`` calls;
    copies of whole objects (``bytes(x)``) and constructor calls
    (``bytes(n)``) are not flagged.
    """

    id = "R007"
    name = "no-hot-path-bytes-copy"
    summary = ("bytes() over a buffer slice in storage/page.py or access/ "
               "copies on the hot path — use memoryviews (get_item is the "
               "sanctioned accessor)")

    PACKAGES = ("storage/page.py", "access/")
    SANCTIONED = frozenset({"get_item"})

    def _sanctioned_spans(self, module: ModuleInfo) -> list[tuple[int, int]]:
        spans = []
        for node in ast.walk(module.tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in self.SANCTIONED):
                spans.append((node.lineno, node.end_lineno or node.lineno))
        return spans

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_package(*self.PACKAGES):
            return
        spans = self._sanctioned_spans(module)
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "bytes"
                    and len(node.args) == 1
                    and isinstance(node.args[0], ast.Subscript)
                    and isinstance(node.args[0].slice, ast.Slice)):
                continue
            if any(lo <= node.lineno <= hi for lo, hi in spans):
                continue
            yield self.finding(
                module, node,
                "bytes() over a buffer slice copies on the hot path — "
                "return a memoryview (page.item_view) and copy only at "
                "the boundary (page.get_item is the sanctioned accessor)")
