"""The project-specific invariant rules (R001, R003–R007, R010).

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
from typing import Callable, Iterator, NamedTuple

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
    summary = ("HeapRelation.fetch/fetch_many and BTree.search/range_scan"
               "/range_scan_desc must go through repro.access.scan")

    METHODS = frozenset({"fetch", "fetch_many", "search", "range_scan",
                         "range_scan_desc"})
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


# -- R010: "this happens in exactly one place", declared in one table ---------------


def _on(node: ast.AST, receiver: str | None) -> bool:
    """Whether *node*'s dotted name ends in *receiver* (None: anything)."""
    return receiver is None or (
        (dotted(node) or "").rsplit(".", 1)[-1] == receiver)


def _call(method: str, receiver: str | None = None,
          where: Callable[[ast.Call], bool] = lambda call: True):
    """Matcher: ``<receiver>.method(...)`` calls for which *where* holds."""
    return lambda node: (isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Attribute)
                         and node.func.attr == method
                         and _on(node.func.value, receiver) and where(node))


def _attribute(name: str, receiver: str | None = None):
    """Matcher: ``<receiver>.name`` attribute accesses."""
    return lambda node: (isinstance(node, ast.Attribute)
                         and node.attr == name and _on(node.value, receiver))


def _assigned(name: str):
    """Matcher: assignments to ``<...>.name``."""
    return lambda node: (isinstance(node, ast.Attribute)
                         and node.attr == name
                         and isinstance(node.ctx, ast.Store))


def _cpu_none_test(node: ast.AST) -> bool:
    """Matcher: ``<...>.cpu is None`` / ``<...>.cpu is not None``."""
    return (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Is, ast.IsNot))
            and isinstance(node.left, ast.Attribute)
            and node.left.attr == "cpu"
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value is None)


class DeclaredSites(NamedTuple):
    """One R010 row: what a site looks like, where it may occur, and why."""

    pattern: str
    matches: Callable[[ast.AST], bool]
    sites: dict[str, int]      #: module → exact site count; 0 elsewhere
    why: str                   #: docs/invariants.md (R010) has the long form


DECLARED_SITES = (
    DeclaredSites(
        "`.cpu is [not] None`", _cpu_none_test, {"storage/buffer.py": 1},
        "one engine under both clocks: the pool's charge is the only test "
        "of charge_cpu"),
    DeclaredSites(
        "`VALIDATOR.operation(...)`", _call("operation", "VALIDATOR"),
        {"inversion/filesystem.py": 2},
        "one slot protocol: _lock_slots and rmdir's tree + stat are "
        "Inversion's only locking attempts, the scopes in which the "
        "runtime validator checks the inv_* order"),
    DeclaredSites(
        "`locks.acquire(...)`", _call("acquire", "locks"),
        {"inversion/filesystem.py": 4, "lo/chunked.py": 2,
         "lo/manager.py": 1, "lo/metadata.py": 1, "db.py": 1},
        "every heavy-lock site is known: a new one is declared here and "
        "driven armed by a tier-1 test, which is where its order is "
        "checked"),
    DeclaredSites(
        "`delete_item(...)`", _call("delete_item"), {"access/heap.py": 1},
        "one vacuum cleaner: HeapRelation.vacuum is the only page walk "
        "that frees slots"),
    DeclaredSites(
        "`archive_relation(...)` without create=True",
        _call("archive_relation", where=lambda call: not any(
            kw.arg == "create" and getattr(kw.value, "value", None) is True
            for kw in call.keywords)),
        {"access/scan.py": 1},
        "one archive reader: the scan layer is the only code that opens an "
        "archive to read it"),
    DeclaredSites(
        "`patch_item(..., XMAX_OFFSET, ...)`",
        _call("patch_item", where=lambda call: any(
            getattr(arg, "id", None) == "XMAX_OFFSET" for arg in call.args)),
        {"access/heap.py": 1},
        "one xmax writer: HeapRelation.delete stamps xmax and records it "
        "in the deleter map"),
    DeclaredSites(
        "`._deleters`", _attribute("_deleters"), {"access/heap.py": 5},
        "the deleter map holds exactly each version's xmax: nothing "
        "outside the heap touches it"),
    DeclaredSites(
        "`.known_dead`", _attribute("known_dead"), {"access/scan.py": 2},
        "one entry filter: IndexRangeScan._live, shared by both walk "
        "directions, and fetch_visible are the only readers of the "
        "deleter map"),
    DeclaredSites(
        "`.visibility_epoch`", _attribute("visibility_epoch"),
        {"lo/chunked.py": 2, "lo/metadata.py": 2, "txn/xlog.py": 4},
        "one epoch gate per descriptor: ChunkedObject._refresh_committed "
        "(and the open that seeds it) and write_size's re-read under the "
        "size lock are the only readers; the commit log keeps the count"),
    DeclaredSites(
        "`.btree_roots`", _attribute("btree_roots"),
        {"storage/buffer.py": 3, "access/btree.py": 3},
        "one root per B-tree file, kept by the pool: dropped with the file "
        "and the pool, filled by _read_meta from page 0, and forgotten by "
        "_write_meta, the only page-0 writer after create, before its pin"),
    DeclaredSites(
        "`._active`", _attribute("_active"), {"txn/manager.py": 7},
        "the active-transaction table is the transaction manager's: "
        "begin and _finish change it, snapshots and the horizon read it"),
    DeclaredSites(
        "`._ended = ...`", _assigned("_ended"), {"txn/manager.py": 2},
        "a kept snapshot is exact while no transaction has left the active "
        "set: the count moves where _active loses one, in _finish"),
    DeclaredSites(
        "`._inject(...)`", _call("_inject"), {"smgr/base.py": 3},
        "one fault plan over the storage tier: StorageManager's read, write "
        "and sync consult it before the medium does anything"),
    DeclaredSites(
        "`._check_read(...)`", _call("_check_read"), {"smgr/base.py": 2},
        "one block contract: StorageManager.read_blocks checks every read "
        "(a run whole, or block by block under a plan) for every manager"),
    DeclaredSites(
        "`._check_write(...)`", _call("_check_write"), {"smgr/base.py": 2},
        "one block contract: StorageManager.write_runs checks every write "
        "(the runs whole, or block by block under a plan) for every manager"),
    DeclaredSites(
        "`db.latch`", _attribute("latch", "db"),
        {"access/scan.py": 7, "access/archive.py": 1,
         "catalog/integrity.py": 2},
        "the engine latch is taken by the scan layer (its reads and "
        "IndexRangeScan.delete), the sweep and the integrity check only"),
)


@register
class DeclaredSitesRule(Rule):
    """Each pattern of :data:`DECLARED_SITES` occurs exactly where declared.

    A finding lands on each site beyond its module's count, in source
    order (an intended extra site carries ``# repro: allow(R010): why``),
    and at line 1 of a module holding fewer sites than declared: the
    site moved, and the table must say where to.
    """

    id = "R010"
    name = "declared-sites"
    summary = ("a single-site invariant (one xmax writer, one sweep, one "
               "archive reader, ...) occurs exactly where DECLARED_SITES "
               "says")

    def __init__(self, table: tuple[DeclaredSites, ...] = DECLARED_SITES):
        self.table = table

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        nodes = list(ast.walk(module.tree))
        for entry in self.table:
            found = sorted((n for n in nodes if entry.matches(n)),
                           key=lambda n: (n.lineno, n.col_offset))
            allowed = entry.sites.get(module.rel, 0)
            declared = ", ".join(f"{rel} ({n})"
                                 for rel, n in entry.sites.items())
            for node in found[allowed:]:
                yield self.finding(
                    module, node,
                    f"{entry.pattern} beyond its declared sites "
                    f"[{declared}] — {entry.why} (docs/invariants.md, R010)")
            if len(found) < allowed:
                yield Finding(
                    rule=self.id, path=module.display_path, line=1, col=0,
                    message=f"{entry.pattern}: {len(found)} of the {allowed} "
                            f"declared site(s) here — {entry.why}; if the "
                            f"site moved, update DECLARED_SITES")
