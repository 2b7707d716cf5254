"""The invariant rules: R005 (transaction scope) and R010 (declared sites).

R010 reads one table, :data:`DECLARED_SITES`: per row an AST matcher,
the exact number of sites each module may hold (zero elsewhere) and the
reason.  Raw heap/index reads, file opens, wall-clock reads, broad
swallowed exceptions and buffer-slice copies are rows, beside the
single-site rules (one xmax writer, one sweep, ...).  R005 is the one
structural rule: it judges a function's error path, not where a site
is.  Matching is lexical (no type inference), so each matcher documents
the lookalikes it skips.  docs/invariants.md has the long form.
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

    id = "R005"  # txn-scope

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


# -- R010: where each located pattern may occur, declared in one table --------------


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


_RAW_READS = frozenset({"fetch", "fetch_many", "search", "range_scan",
                        "range_scan_desc"})


def _raw_access(node: ast.AST) -> bool:
    """Matcher: a raw heap or B-tree read.  A ``db``/``database``
    receiver is the Database facade (its ``fetch`` goes through the
    scan layer), and ``search`` on ``re``, ``*_re``, ``*_rx``,
    ``*pattern`` or ``*regex`` is a regular expression."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in _RAW_READS):
        return False
    receiver = dotted(node.func.value)
    if receiver is None:
        return True
    last = receiver.rsplit(".", 1)[-1]
    if last in ("db", "database"):
        return False
    return not (node.func.attr == "search" and (
        receiver == "re" or last.endswith(("_re", "_rx", "pattern", "regex"))))


def _file_open(node: ast.AST) -> bool:
    """Matcher: builtin ``open``, ``os.open``/``os.fdopen``/``io.open``,
    and ``Path(...).open`` (the one form recognisable without types; a
    method named ``open`` on anything else is not a file open)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    if dotted(func) in ("os.open", "os.fdopen", "io.open"):
        return True
    return (isinstance(func, ast.Attribute) and func.attr == "open"
            and isinstance(func.value, ast.Call)
            and (dotted(func.value.func) or "").rsplit(".", 1)[-1] == "Path")


_CLOCK_READERS = {
    "time": frozenset({"time", "time_ns", "monotonic", "monotonic_ns",
                       "perf_counter", "perf_counter_ns", "localtime",
                       "gmtime"}),
    "datetime": frozenset({"now", "utcnow", "today"}),
    "date": frozenset({"today"}),
}


def _wall_clock(node: ast.AST) -> bool:
    """Matcher: ``time.time()``-style calls through the module, and
    ``from time import monotonic``-style imports of a reader (the import
    is the site, so every call through the bare name is covered)."""
    if isinstance(node, ast.ImportFrom):
        readers = _CLOCK_READERS.get(node.module or "", frozenset())
        return any(alias.name in readers for alias in node.names)
    chain = dotted(node.func) if isinstance(node, ast.Call) else None
    if chain is None or "." not in chain:
        return False
    base, attr = chain.rsplit(".", 1)
    return attr in _CLOCK_READERS.get(base.rsplit(".", 1)[-1], frozenset())


def _swallow(node: ast.AST) -> bool:
    """Matcher: a bare ``except:`` (any body), or ``except Exception`` /
    ``BaseException`` whose body only passes.  A narrow handler that
    passes (``except ValueError: pass``) is a decision, not a swallow."""
    if not isinstance(node, ast.ExceptHandler):
        return False
    if node.type is None:
        return True
    return ((dotted(node.type) or "").rsplit(".", 1)[-1]
            in ("Exception", "BaseException")
            and all(isinstance(stmt, ast.Pass)
                    or (isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant))
                    for stmt in node.body))


def _slice_copy(node: ast.AST) -> bool:
    """Matcher: ``bytes(<expr>[a:b])``; ``bytes(x)`` and ``bytes(n)``
    are not slice copies."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "bytes" and len(node.args) == 1
            and isinstance(node.args[0], ast.Subscript)
            and isinstance(node.args[0].slice, ast.Slice))


class DeclaredSites(NamedTuple):
    """One R010 row: what a site looks like, where it may occur, and why."""

    pattern: str
    matches: Callable[[ast.AST], bool]
    sites: dict[str, int]      #: module → exact site count; 0 elsewhere
    why: str                   #: docs/invariants.md (R010) has the long form


DECLARED_SITES = (
    DeclaredSites(
        "`.fetch`/`.fetch_many`/`.search`/`.range_scan[_desc](...)`",
        _raw_access, {"access/scan.py": 5, "access/btree.py": 1},
        "the scan descriptors own the latch and visibility: a raw heap or "
        "B-tree read is theirs (and search's own range_scan); db.fetch "
        "and regex search are not raw reads"),
    DeclaredSites(
        "`open(...)`, `os.open`/`os.fdopen`/`io.open`, `Path(...).open(...)`",
        _file_open,
        {"tools/dump.py": 8, "lo/nativefs.py": 4, "smgr/base.py": 3,
         "client.py": 2, "inversion/filesystem.py": 2,
         "inversion/monkey.py": 1, "bench/cli.py": 1},
        "block I/O goes through the smgr switch, where costs and fault "
        "plans see it (smgr/base.py's block files and append logs); the "
        "rest are host files: dump archives, lo_import/lo_export, "
        "import_tree/export_tree, the FileMonkey failure artifact, the "
        "bench report and nativefs's external objects"),
    DeclaredSites(
        "`time.time()`, `time.monotonic()`, `datetime.now()`, ... "
        "(called or imported)", _wall_clock, {"txn/locks.py": 2},
        "time comes from SimClock; the lock manager's two are a lock "
        "wait's real duration, since a blocked thread sleeps in real time "
        "while the simulated clock stands still"),
    DeclaredSites(
        "bare `except:`, or `except Exception: pass`", _swallow, {},
        "a swallowed failure is silent corruption (a page half-written, a "
        "lock never released): narrow the type or re-raise"),
    DeclaredSites(
        "`bytes(<buffer>[a:b])`", _slice_copy,
        {"compress/rle.py": 1, "compress/lzrw.py": 1, "lo/nativefs.py": 1,
         "smgr/raw.py": 1},
        "pages and the read path hand out memoryviews; a slice copy is "
        "where bytes leave a buffer for good (a compressor's payload, a "
        "raw medium's block, an external object's bytes)"),
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
        "one entry filter: IndexRangeScan._live's batches, for both walk "
        "directions, and fetch_visible's one-entry list are the only "
        "readers of the deleter map"),
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
        "one block contract: StorageManager.force, which every write goes "
        "through, checks it (the runs whole, or block by block under a plan)"),
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
    order, and at line 1 of a module holding fewer sites than declared:
    the site moved, and the table must say where to.
    """

    id = "R010"  # declared-sites

    def __init__(self, table: tuple[DeclaredSites, ...] = DECLARED_SITES):
        self.table = table

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        nodes = list(ast.walk(module.tree))
        for entry in self.table:
            found = sorted((n for n in nodes if entry.matches(n)),
                           key=lambda n: (n.lineno, n.col_offset))
            allowed = entry.sites.get(module.rel, 0)
            declared = ", ".join(f"{rel} ({n})" for rel, n
                                 in entry.sites.items()) or "none"
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
