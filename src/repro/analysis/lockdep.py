"""Interprocedural lock-order analysis: rules R008 and R009.

The per-module rules (R001, R003–R007) judge one file at a time; a lock
hierarchy cannot be checked that way, because the function that takes
the mutex and the function that blocks under it are usually in
different files.  This pass builds a lightweight whole-program view of
``src/repro``:

1. **Extraction** — every function body becomes an ordered event tree:
   heavyweight ``LockManager.acquire`` calls (tagged with the lock
   class of their resource expression), ``with`` blocks over classified
   scoped locks, branches, and outgoing calls.  Scoped ``with``
   expressions are classified by the per-module *mutex map* read from
   ``self.attr = LockdepMutex("<class>")`` / ``EngineLatch()``
   assignments — the constructor literal is the declaration — with a
   name heuristic (``...latch``) for the engine latch reached through
   properties.

2. **Call resolution** — lexical, no type inference: ``self.f`` binds
   to the enclosing class; bare names bind to same-module functions or
   class constructors; other receivers are matched through
   :data:`RECEIVER_HINTS` (the repo's naming idiom: ``db`` is always
   the Database, ``bufmgr`` the buffer pool, ...).  Unknown receivers
   bind within the defining module only — a global name match would
   conflate ``connections.append`` with ``VSegmentObject.append`` and
   drown the report in phantom chains.

3. **Summaries** — for each function, the transitive ordered list of
   heavy acquisitions and the transitive set of scoped acquisitions,
   memoized, cycle-cut, and capped.

4. **Checks** — walking each body with its lexical held-set:

   * **R008 (lock-order-inversion)**: a scoped lock acquired (directly
     or through calls) while a *higher-ranked* scoped lock is held,
     per the declared table in ``repro/txn/lockdep.py``; plus the
     ``inv_*`` heavyweight family acquired out of protocol order
     inside a ``with VALIDATOR.operation(...)`` block (branches are
     walked independently — only straight-line order counts; order is
     *not* checked across operation boundaries, because strict 2PL
     makes cross-operation edges legitimately inverted, exactly
     matching the runtime validator's semantics).
   * **R009 (blocking-under-mutex)**: a heavyweight ``acquire``
     reachable while any scoped lock is held.  A heavy-lock wait can
     park the thread until another transaction commits; under the
     latch or a mutex that is a convoy or a deadlock.

Findings land on the acquisition site (the innermost callee), with the
establishing call chain in the message, so a suppression sits next to
the code that actually takes the lock.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.core import Finding, ModuleInfo, ProjectRule, register
from repro.analysis.rules import dotted
from repro.txn.lockdep import HIERARCHY, INV_FAMILY

#: Receivers whose attribute calls resolve to LockManager.acquire.
_HEAVY_OWNERS = {"locks", "lock_manager", "lock_mgr"}

#: Receiver-name idioms -> substrings of the classes they denote.  A
#: call ``recv.method(...)`` resolves to methods of matching classes
#: only; receivers not listed resolve within their own module.
RECEIVER_HINTS: dict[str, tuple[str, ...]] = {
    "db": ("Database",),
    "database": ("Database",),
    "locks": ("LockManager",),
    "lock_manager": ("LockManager",),
    "lock_mgr": ("LockManager",),
    "relation": ("HeapRelation",),
    "rel": ("HeapRelation",),
    "heap": ("HeapRelation",),
    "archive": ("HeapRelation",),
    "index": ("BTree",),
    "btree": ("BTree",),
    "bufmgr": ("BufferManager",),
    "clog": ("CommitLog",),
    "tm": ("TransactionManager",),
    "clock": ("SimClock",),
    "catalog": ("Catalog",),
    "lo": ("LargeObjectManager",),
    "inversion": ("InversionFileSystem",),
    "fs": ("InversionFileSystem", "NativeFileSystem"),
    "session": ("Session",),
    "server": ("ReproServer",),
    "latch": ("EngineLatch",),
    "smgr": ("StorageManager", "BlockStore"),
    "switch": ("StorageManagerSwitch",),
    "journal": ("CatalogJournal",),
    "protocol": ("protocol",),
}

#: Caps keeping the fixpoint cheap and the output readable.
_SUMMARY_CAP = 48
_CHAIN_CAP = 10


# -- event extraction ---------------------------------------------------------------

# Events:
#   ("heavy", lock_class, node)
#   ("with", lock_class, node, [children])
#   ("opscope", node, [children])               (VALIDATOR.operation)
#   ("call", receiver or None, name, node)
#   ("branch", [ [events], [events], ... ])     (If / Try arms)


def _chain_parts(node: ast.AST) -> list[str] | None:
    path = dotted(node)
    return path.split(".") if path else None


def _classify_resource_expr(node: ast.AST) -> str:
    """Lock class of a LockManager resource expression, lexically."""
    if isinstance(node, ast.Tuple) and node.elts:
        first = node.elts[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            name = f"lock:{first.value}"
            if name in HIERARCHY:
                return name
    if isinstance(node, ast.Call):
        parts = _chain_parts(node.func)
        callee = parts[-1] if parts else ""
        if callee in ("lo_range", "lo_whole"):
            return "lock:largeobject"
        if callee == "RangeResource":
            if node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                name = f"lock:{node.args[0].value}"
                if name in HIERARCHY:
                    return name
            return "lock:largeobject"
    return "lock:other"


def _heavy_class(call: ast.Call) -> str | None:
    """If *call* is a ``LockManager.acquire``, its lock class."""
    parts = _chain_parts(call.func)
    if not parts or len(parts) < 2 or parts[-1] != "acquire":
        return None
    if parts[-2] not in _HEAVY_OWNERS:
        return None
    if len(call.args) >= 2:
        return _classify_resource_expr(call.args[1])
    return "lock:other"


def _mutex_map(tree: ast.Module) -> dict[str, str]:
    """attr/name -> scoped lock class, from constructor literals.

    ``self._mutex = LockdepMutex("mutex:xlog")`` declares ``_mutex`` as
    that class for the whole module; ``self._latch = EngineLatch()``
    declares the engine latch.  Per-module scoping is what lets two
    modules both call an attribute ``_mutex`` without confusion.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or \
                not isinstance(node.value, ast.Call):
            continue
        parts = _chain_parts(node.value.func)
        ctor = parts[-1] if parts else ""
        lock_class = None
        if ctor == "LockdepMutex":
            args = node.value.args
            if args and isinstance(args[0], ast.Constant) \
                    and isinstance(args[0].value, str):
                lock_class = args[0].value
        elif ctor == "EngineLatch":
            lock_class = "latch"
        if lock_class is None:
            continue
        for target in node.targets:
            name = target.attr if isinstance(target, ast.Attribute) \
                else (target.id if isinstance(target, ast.Name) else None)
            if name:
                table[name] = lock_class
    return table


def _classify_with_expr(expr: ast.AST,
                        mutex_map: dict[str, str]) -> str | None:
    """Scoped lock class of a ``with`` context expression, or None."""
    if isinstance(expr, ast.Call):
        parts = _chain_parts(expr.func)
        ctor = parts[-1] if parts else ""
        if ctor == "LockdepMutex":
            args = expr.args
            if args and isinstance(args[0], ast.Constant) \
                    and isinstance(args[0].value, str) \
                    and args[0].value in HIERARCHY:
                return args[0].value
        if ctor == "EngineLatch":
            return "latch"
        return None
    parts = _chain_parts(expr)
    if not parts:
        return None
    leaf = parts[-1]
    if leaf in mutex_map:
        return mutex_map[leaf]
    if "latch" in leaf:
        # Engine-latch property access (db.latch, self.db.latch).  The
        # buffer pool's `_latch` attribute is *not* caught here: its
        # LockdepMutex assignment puts it in the module's mutex map.
        return "latch"
    return None


@dataclass
class FunctionEntry:
    """One function/method with its extracted event tree."""

    module: ModuleInfo
    cls: str | None
    name: str
    node: ast.AST
    events: list = field(default_factory=list)

    @property
    def qualname(self) -> str:
        where = f"{self.cls}.{self.name}" if self.cls else self.name
        return f"{self.module.rel}::{where}"


def _is_operation_scope(expr: ast.expr) -> bool:
    """``with VALIDATOR.operation(...)`` / ``lockdep.VALIDATOR.operation``.

    These scopes are where the Inversion multi-lock protocol runs, and
    therefore where R008's inv_* order check applies (mirroring the
    runtime validator, which checks the family only inside them).
    """
    if not isinstance(expr, ast.Call):
        return False
    parts = _chain_parts(expr.func)
    return (bool(parts) and parts[-1] == "operation"
            and any(p in ("VALIDATOR", "validator", "lockdep")
                    for p in parts[:-1]))


def _extract_events(body: list[ast.stmt],
                    mutex_map: dict[str, str]) -> list:
    events: list = []
    for stmt in body:
        _extract_node(stmt, mutex_map, events)
    return events


def _extract_node(node: ast.AST, mutex_map: dict[str, str],
                  events: list) -> None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef, ast.Lambda)):
        return  # nested definitions get their own entries
    if isinstance(node, (ast.With, ast.AsyncWith)):
        wrappers = []
        opscope = False
        for item in node.items:
            # Calls inside the context expression run first (and a
            # classified expression is an acquisition, not a call).
            cls = _classify_with_expr(item.context_expr, mutex_map)
            if cls is not None:
                wrappers.append((cls, node))
            elif _is_operation_scope(item.context_expr):
                opscope = True
            else:
                _extract_node(item.context_expr, mutex_map, events)
        inner = _extract_events(node.body, mutex_map)
        if opscope:
            inner = [("opscope", node, inner)]
        for cls, at in reversed(wrappers):
            inner = [("with", cls, at, inner)]
        events.extend(inner)
        return
    if isinstance(node, ast.Call):
        heavy = _heavy_class(node)
        if heavy is not None:
            for arg in node.args:  # resource exprs may contain calls
                _extract_node(arg, mutex_map, events)
            events.append(("heavy", heavy, node))
            return
        parts = _chain_parts(node.func)
        if parts:
            # self.foo() -> receiver "self"; self.db.foo()/db.foo() ->
            # receiver "db"; foo() -> receiver None.
            receiver = parts[-2] if len(parts) >= 2 else None
            events.append(("call", receiver, parts[-1], node))
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            _extract_node(arg, mutex_map, events)
        return
    if isinstance(node, ast.If):
        arms = [_extract_events(node.body, mutex_map)]
        if node.orelse:
            arms.append(_extract_events(node.orelse, mutex_map))
        _extract_node(node.test, mutex_map, events)
        events.append(("branch", arms))
        return
    if isinstance(node, (ast.Try,)):
        arms = [_extract_events(node.body, mutex_map)]
        for handler in node.handlers:
            arms.append(_extract_events(handler.body, mutex_map))
        if node.orelse:
            arms.append(_extract_events(node.orelse, mutex_map))
        events.append(("branch", arms))
        if node.finalbody:
            events.extend(_extract_events(node.finalbody, mutex_map))
        return
    for child in ast.iter_child_nodes(node):
        _extract_node(child, mutex_map, events)


# -- the whole-program view ---------------------------------------------------------

class _Acq:
    """One (transitively reachable) acquisition, with its provenance."""

    __slots__ = ("lock_class", "entry", "node", "chain")

    def __init__(self, lock_class: str, entry: "FunctionEntry",
                 node: ast.AST, chain: tuple):
        self.lock_class = lock_class
        self.entry = entry
        self.node = node
        self.chain = chain  # qualnames, summarized function downward


class Project:
    """Extraction + call resolution + summaries over all modules."""

    def __init__(self, modules: list[ModuleInfo]):
        self.functions: list[FunctionEntry] = []
        self.by_name: dict[str, list[FunctionEntry]] = {}
        self.classes: dict[str, list[str]] = {}  # class -> module rels
        for module in modules:
            mutex_map = _mutex_map(module.tree)
            self._extract_module(module, mutex_map)
        for fn in self.functions:
            self.by_name.setdefault(fn.name, []).append(fn)
        self._heavy_memo: dict[int, list[_Acq]] = {}
        self._scoped_memo: dict[int, list[_Acq]] = {}
        self._stack: set[int] = set()

    def _extract_module(self, module: ModuleInfo,
                        mutex_map: dict[str, str]) -> None:
        def visit(node: ast.AST, cls: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    self.classes.setdefault(child.name, []).append(
                        module.rel)
                    visit(child, child.name)
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    entry = FunctionEntry(
                        module=module, cls=cls, name=child.name,
                        node=child,
                        events=_extract_events(child.body, mutex_map))
                    self.functions.append(entry)
                    visit(child, cls)
                else:
                    visit(child, cls)

        visit(module.tree, None)

    # -- call resolution ------------------------------------------------

    def resolve(self, caller: FunctionEntry, receiver: str | None,
                name: str) -> list[FunctionEntry]:
        """Candidate callees for ``receiver.name(...)`` in *caller*.

        Unknown receivers bind within the defining module only: a
        global name match would conflate ``connections.append`` (a
        list) with ``VSegmentObject.append`` or ``ast.walk`` with
        ``InversionFileSystem.walk`` and drown the report in phantom
        chains.  Cross-module propagation therefore flows through
        ``self``, bare names, constructors, and the idiomatic
        receivers in :data:`RECEIVER_HINTS` — which the codebase uses
        consistently for everything that actually takes locks.
        """
        candidates = self.by_name.get(name, [])
        if not candidates:
            if name in self.classes:  # constructor call
                return [fn for fn in self.by_name.get("__init__", [])
                        if fn.cls == name]
            return []
        if receiver == "self" and caller.cls is not None:
            own = [fn for fn in candidates
                   if fn.cls == caller.cls
                   and fn.module is caller.module]
            if own:
                return own
            # Possibly inherited: any class in the same module.
            return [fn for fn in candidates if fn.cls is not None
                    and fn.module is caller.module]
        if receiver is None:
            local = [fn for fn in candidates
                     if fn.cls is None and fn.module is caller.module]
            if local:
                return local
            if name in self.classes:
                return [fn for fn in self.by_name.get("__init__", [])
                        if fn.cls == name]
            return []
        hints = RECEIVER_HINTS.get(receiver)
        if hints is not None:
            return [fn for fn in candidates if fn.cls is not None
                    and any(h in fn.cls for h in hints)]
        return [fn for fn in candidates
                if fn.module is caller.module and fn.cls is not None]

    # -- transitive summaries -------------------------------------------

    def heavy_summary(self, fn: FunctionEntry) -> list[_Acq]:
        """Ordered heavy acquisitions reachable from *fn* (capped)."""
        return self._summary(fn, self._heavy_memo, want_heavy=True)

    def scoped_summary(self, fn: FunctionEntry) -> list[_Acq]:
        """Scoped acquisitions reachable from *fn* (capped)."""
        return self._summary(fn, self._scoped_memo, want_heavy=False)

    def _summary(self, fn: FunctionEntry, memo: dict,
                 want_heavy: bool) -> list[_Acq]:
        key = id(fn)
        if key in memo:
            return memo[key]
        if key in self._stack:
            return []  # recursion: cut the cycle
        self._stack.add(key)
        out: list[_Acq] = []

        def walk(events: list) -> None:
            for ev in events:
                if len(out) >= _SUMMARY_CAP:
                    return
                kind = ev[0]
                if kind == "heavy" and want_heavy:
                    out.append(_Acq(ev[1], fn, ev[2], (fn.qualname,)))
                elif kind == "with":
                    if not want_heavy:
                        out.append(_Acq(ev[1], fn, ev[2],
                                        (fn.qualname,)))
                    walk(ev[3])
                elif kind == "opscope":
                    walk(ev[2])
                elif kind == "branch":
                    for arm in ev[1]:
                        walk(arm)
                elif kind == "call":
                    for callee in self.resolve(fn, ev[1], ev[2]):
                        for acq in (self.heavy_summary(callee)
                                    if want_heavy
                                    else self.scoped_summary(callee)):
                            if len(acq.chain) >= _CHAIN_CAP:
                                continue
                            out.append(_Acq(
                                acq.lock_class, acq.entry, acq.node,
                                (fn.qualname,) + acq.chain))
                            if len(out) >= _SUMMARY_CAP:
                                return

        walk(fn.events)
        self._stack.discard(key)
        memo[key] = out
        return out


def _rank(lock_class: str) -> int:
    return HIERARCHY[lock_class].rank


def _via(chain: tuple) -> str:
    return f" via {' -> '.join(chain)}" if len(chain) > 1 else ""


# -- R008: lock-order inversion -----------------------------------------------------

@register
class LockOrderInversionRule(ProjectRule):
    id = "R008"
    name = "lock-order-inversion"
    summary = ("scoped locks must be acquired in declared-rank order, "
               "and the inv_* family in protocol order "
               "(repro/txn/lockdep.py)")

    def check_project(self,
                      modules: list[ModuleInfo]) -> Iterator[Finding]:
        project = Project(modules)
        seen: set[tuple] = set()
        for fn in project.functions:
            yield from self._scan_scoped(project, fn, fn.events, [],
                                         seen)
            yield from self._scan_inv_order(project, fn, seen)

    def _emit(self, seen: set, acq: _Acq, against: str, message: str):
        key = (acq.entry.module.display_path, acq.node.lineno,
               acq.lock_class, against)
        if key in seen:
            return None
        seen.add(key)
        return self.finding(acq.entry.module, acq.node, message)

    def _scan_scoped(self, project: Project, fn: FunctionEntry,
                     events: list, held: list, seen: set):
        """Lexical walk: check every scoped acquisition against the
        highest-ranked scoped lock currently held."""
        for ev in events:
            kind = ev[0]
            if kind == "with":
                if held:
                    worst = max(held, key=lambda h: _rank(h[0]))
                    if _rank(ev[1]) < _rank(worst[0]):
                        acq = _Acq(ev[1], fn, ev[2], (fn.qualname,))
                        found = self._emit(
                            seen, acq, worst[0],
                            f"{ev[1]} (rank {_rank(ev[1])}) acquired "
                            f"while holding {worst[0]} (rank "
                            f"{_rank(worst[0])}); the declared order "
                            f"requires {ev[1]} first")
                        if found:
                            yield found
                yield from self._scan_scoped(project, fn, ev[3],
                                             held + [(ev[1], ev[2])],
                                             seen)
            elif kind == "opscope":
                yield from self._scan_scoped(project, fn, ev[2],
                                             held, seen)
            elif kind == "branch":
                for arm in ev[1]:
                    yield from self._scan_scoped(project, fn, arm,
                                                 held, seen)
            elif kind == "call" and held:
                worst = max(held, key=lambda h: _rank(h[0]))
                for callee in project.resolve(fn, ev[1], ev[2]):
                    for acq in project.scoped_summary(callee):
                        if _rank(acq.lock_class) < _rank(worst[0]):
                            found = self._emit(
                                seen, acq, worst[0],
                                f"{acq.lock_class} (rank "
                                f"{_rank(acq.lock_class)}) acquired "
                                f"while {fn.qualname} holds "
                                f"{worst[0]} (rank {_rank(worst[0])})"
                                f"{_via((fn.qualname,) + acq.chain)}")
                            if found:
                                yield found

    def _scan_inv_order(self, project: Project, fn: FunctionEntry,
                        seen: set):
        """inv_* protocol order inside each operation scope.

        Strict 2PL makes cross-operation edges legitimately inverted
        (``stat(a)`` then ``rename(b)`` hold nothing across the
        boundary), so — exactly like the runtime validator — the family
        is checked only within ``with VALIDATOR.operation(...)``
        blocks, where the multi-lock protocol actually runs.  Within a
        scope, branch arms are walked independently from the same
        incoming watermark (exclusive arms are not a sequence) and the
        merged watermark is the maximum across arms; a nested scope
        restarts the protocol with a fresh watermark.
        """
        findings = []

        def expanded(events: list, out: list) -> None:
            for ev in events:
                kind = ev[0]
                if kind == "heavy":
                    out.append(("acq",
                                _Acq(ev[1], fn, ev[2], (fn.qualname,))))
                elif kind == "with":
                    expanded(ev[3], out)
                elif kind == "opscope":
                    scan_scope(ev[2])  # nested: fresh watermark
                elif kind == "branch":
                    arms = []
                    for arm in ev[1]:
                        sub: list = []
                        expanded(arm, sub)
                        arms.append(sub)
                    out.append(("branch", arms))
                elif kind == "call":
                    for callee in project.resolve(fn, ev[1], ev[2]):
                        for acq in project.heavy_summary(callee):
                            out.append(("acq", _Acq(
                                acq.lock_class, acq.entry, acq.node,
                                (fn.qualname,) + acq.chain)))

        def scan(seq: list, watermark: tuple) -> tuple:
            for item in seq:
                if item[0] == "branch":
                    merged = watermark
                    for arm in item[1]:
                        arm_mark = scan(arm, watermark)
                        if arm_mark[0] > merged[0]:
                            merged = arm_mark
                    watermark = merged
                    continue
                acq = item[1]
                if acq.lock_class not in INV_FAMILY:
                    continue
                rank = _rank(acq.lock_class)
                if rank < watermark[0]:
                    found = self._emit(
                        seen, acq, watermark[1],
                        f"{acq.lock_class} acquired after "
                        f"{watermark[1]} in one locking sequence; the "
                        f"Inversion protocol order is "
                        f"{' -> '.join(INV_FAMILY)}"
                        f"{_via(acq.chain)}")
                    if found:
                        findings.append(found)
                elif rank > watermark[0]:
                    watermark = (rank, acq.lock_class)
            return watermark

        def scan_scope(events: list) -> None:
            seq: list = []
            expanded(events, seq)
            scan(seq, (-1, ""))

        def find_scopes(events: list) -> None:
            for ev in events:
                kind = ev[0]
                if kind == "opscope":
                    scan_scope(ev[2])
                elif kind == "with":
                    find_scopes(ev[3])
                elif kind == "branch":
                    for arm in ev[1]:
                        find_scopes(arm)

        find_scopes(fn.events)
        yield from findings


# -- R009: blocking under a mutex ---------------------------------------------------

@register
class BlockingUnderMutexRule(ProjectRule):
    id = "R009"
    name = "blocking-under-mutex"
    summary = ("no heavyweight LockManager acquisition may be "
               "reachable while the engine latch or any mutex is held")

    def check_project(self,
                      modules: list[ModuleInfo]) -> Iterator[Finding]:
        project = Project(modules)
        seen: set[tuple] = set()
        for fn in project.functions:
            yield from self._scan(project, fn, fn.events, None, seen)

    def _scan(self, project: Project, fn: FunctionEntry, events: list,
              held, seen: set):
        for ev in events:
            kind = ev[0]
            if kind == "with":
                yield from self._scan(project, fn, ev[3],
                                      held or (ev[1], ev[2]), seen)
            elif kind == "opscope":
                yield from self._scan(project, fn, ev[2], held, seen)
            elif kind == "branch":
                for arm in ev[1]:
                    yield from self._scan(project, fn, arm, held, seen)
            elif held is None:
                continue
            elif kind == "heavy":
                acq = _Acq(ev[1], fn, ev[2], (fn.qualname,))
                yield from self._emit(
                    seen, acq,
                    f"heavyweight {ev[1]} acquired while {fn.qualname} "
                    f"holds {held[0]}; a heavy-lock wait can park the "
                    f"thread until another transaction commits")
            elif kind == "call":
                for callee in project.resolve(fn, ev[1], ev[2]):
                    for acq in project.heavy_summary(callee):
                        yield from self._emit(
                            seen, acq,
                            f"heavyweight {acq.lock_class} acquired "
                            f"while {fn.qualname} holds {held[0]}"
                            f"{_via((fn.qualname,) + acq.chain)}")

    def _emit(self, seen: set, acq: _Acq, message: str):
        key = (acq.entry.module.display_path, acq.node.lineno)
        if key in seen:
            return
        seen.add(key)
        yield self.finding(acq.entry.module, acq.node, message)
