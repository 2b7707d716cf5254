"""Lockdep: the declared lock hierarchy and its runtime validator.

The engine has five interacting synchronization layers — strict-2PL
heavyweight locks, byte-range LO locks, the engine latch, Inversion
path locks, and a handful of short-critical-section mutexes.  Their
ordering rules used to live only as prose in DESIGN.md §"Locking
discipline".  This module turns them into data:

* :data:`HIERARCHY` declares every lock *class* with a rank and a
  domain.  Lower rank = acquired earlier (outermost).  The runtime
  validator checks against this one table and ``python -m
  repro.analysis --doc`` prints it into docs/invariants.md, so the
  checked order and the documented order cannot drift apart.

* :class:`LockdepValidator` is the lock-order check.  When armed
  (``REPRO_LOCKDEP=1``, set suite-wide by ``tests/conftest.py``) every
  instrumented acquisition records ``(lock class, thread, held set)``
  into a global order graph and is checked *before it can block*:

  - acquiring a *scoped* lock (latch or mutex) ranked below one the
    thread already holds raises :class:`~repro.errors.LockOrderError`
    with both stacks;
  - acquiring a *heavyweight* lock (``LockManager``) while the thread
    holds any scoped lock raises — heavy waits can park a thread for a
    whole transaction, which must never happen under a mutex or the
    engine latch;
  - inside an *operation scope* (pushed by the Inversion path-locking
    helpers), the ``inv_*`` heavyweight family must be acquired in its
    declared protocol order.  The scope is per locking attempt: strict
    2PL keeps earlier operations' locks until commit, so cross
    operation "inversions" within one transaction are expected and are
    recorded but not raised.

* :class:`LockdepMutex` wraps ``threading.Lock``/``RLock`` and carries
  its lock-class name as a constructor literal, e.g.
  ``self._mutex = LockdepMutex("mutex:xlog")``; the engine latch is
  ``LockdepMutex("latch", reentrant=True)``.  That one string is
  read by two consumers: the runtime checks here and the hierarchy
  table in docs.  Built while the validator is disarmed, it is the bare
  lock.

Observed edges are exported through ``db.statistics()["lockdep"]`` so
stress tests can assert the runtime graph stays inside the declared
hierarchy (:func:`check_edges`).
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass

from repro.errors import LockOrderError

__all__ = [
    "HIERARCHY",
    "INV_FAMILY",
    "LockClass",
    "LockdepMutex",
    "LockdepValidator",
    "VALIDATOR",
    "check_edges",
    "classify_resource",
    "declared_allows",
]


# ---------------------------------------------------------------------------
# The declared hierarchy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LockClass:
    """One row of the lock-hierarchy table.

    ``domain`` is ``"heavy"`` for LockManager resources (held per-xid
    until commit) or ``"scoped"`` for latch/mutex classes (held
    per-thread, released on block exit).  ``rank`` orders acquisition:
    lower rank must be taken first.  Scoped ranks are totally ordered;
    heavy ranks order only the ``inv_*`` family (within one locking
    attempt) — other heavy-vs-heavy orderings are arbitrated by the
    deadlock detector, not by this table.
    """

    name: str
    rank: int
    domain: str
    summary: str


def _table(*rows: tuple[str, int, str, str]) -> dict[str, LockClass]:
    table = {}
    for name, rank, domain, summary in rows:
        table[name] = LockClass(name, rank, domain, summary)
    return table


#: Every lock class in the engine, outermost first.  This is the single
#: source of truth for the runtime validator; docs/invariants.md embeds
#: the same table (``python -m repro.analysis --doc``).
HIERARCHY: dict[str, LockClass] = _table(
    # -- heavyweight (LockManager) classes: per-xid, strict 2PL --------
    ("lock:inv_dirmove", 10, "heavy",
     "global directory-move token; first lock of a cross-directory "
     "dir rename"),
    ("lock:inv_entry", 11, "heavy",
     "one (parent, name) directory slot; taken before the tree locks "
     "that guard its chain"),
    ("lock:inv_tree", 12, "heavy",
     "one directory subtree, shared along every parent chain in "
     "ascending id order"),
    ("lock:inv_stat", 13, "heavy",
     "one file's FILESTAT row; innermost Inversion lock"),
    ("lock:largeobject", 20, "heavy",
     "byte-range LO write lock (rangelock.py); whole-object for "
     "truncate/unlink"),
    ("lock:losize", 21, "heavy",
     "one LO's size row in pg_largeobject"),
    ("lock:relation", 22, "heavy",
     "table-level DML lock taken by db.insert/delete/replace"),
    ("lock:other", 29, "heavy",
     "any heavyweight resource not otherwise classified"),
    # -- scoped classes: per-thread latch and mutexes ------------------
    ("latch", 40, "scoped",
     "the engine latch (Database.latch); serializes structural "
     "mutation; never held across a heavy-lock wait"),
    ("mutex:server", 42, "scoped",
     "server connection registry (server/server.py)"),
    ("mutex:txn", 45, "scoped",
     "transaction-manager active-set mutex; calls into the commit log "
     "while held"),
    ("mutex:xlog", 50, "scoped",
     "commit-log record/xid mutex"),
    ("mutex:lo_registry", 55, "scoped",
     "LO manager descriptor/cursor registries"),
    ("mutex:oid", 60, "scoped",
     "catalog OID allocator"),
    ("mutex:buffer", 65, "scoped",
     "buffer-pool frame table latch; calls the storage manager while "
     "held"),
    ("mutex:smgr", 70, "scoped",
     "sharded storage-manager topology lock; charges the clock while "
     "held"),
    ("mutex:clock", 90, "scoped",
     "simulated clock; innermost lock in the engine"),
)

#: The Inversion path-locking family, in protocol order.  Checked at
#: runtime only inside an operation scope (one path-locking attempt).
INV_FAMILY = ("lock:inv_dirmove", "lock:inv_entry", "lock:inv_tree",
              "lock:inv_stat")


def classify_resource(resource: object) -> str:
    """Map a LockManager resource to its lock class name.

    Resources are either :class:`~repro.txn.rangelock.RangeResource`
    instances (classified by namespace) or plain tuples whose first
    element is a namespace string (``("relation", name)``,
    ``("inv_tree", dir_id)``, ...).
    """
    namespace = getattr(resource, "namespace", None)
    if namespace is None and isinstance(resource, tuple) and resource:
        namespace = resource[0]
    if isinstance(namespace, str):
        name = f"lock:{namespace}"
        if name in HIERARCHY:
            return name
    return "lock:other"


def declared_allows(held: str, acquired: str) -> bool:
    """Whether the declared hierarchy permits ``held -> acquired``.

    Scoped-under-scoped must be non-decreasing in rank (same rank =
    re-entrant or sibling instances, allowed).  Heavy-under-scoped is
    never allowed.  Heavy-to-anything is unconstrained here: heavy
    ordering across operations is the deadlock detector's job, and the
    ``inv_*`` protocol order is enforced per operation scope, not per
    edge (strict 2PL makes cross-operation edges within one
    transaction legitimately "inverted").
    """
    a = HIERARCHY.get(held)
    b = HIERARCHY.get(acquired)
    if a is None or b is None:
        return False
    if a.domain == "scoped":
        if b.domain == "heavy":
            return False
        return b.rank >= a.rank
    return True


def check_edges(edges: dict[str, int]) -> list[str]:
    """Validate an observed-edge dict against the declared hierarchy.

    ``edges`` is the ``db.statistics()["lockdep"]["edges"]`` mapping,
    keyed ``"held -> acquired"``.  Returns the offending keys (empty
    when the runtime graph is a subgraph of the declared order).
    """
    bad = []
    for key in edges:
        held, _, acquired = key.partition(" -> ")
        if not declared_allows(held.strip(), acquired.strip()):
            bad.append(key)
    return sorted(bad)


# ---------------------------------------------------------------------------
# Runtime validator
# ---------------------------------------------------------------------------

def _call_site(skip: int, depth: int) -> tuple:
    """A cheap partial stack: up to ``depth`` caller frames.

    Captured on every instrumented acquisition, so this walks raw frame
    objects instead of building a ``StackSummary`` (no line-text lookup,
    no allocation beyond the result tuple).
    """
    frames = []
    try:
        frame = sys._getframe(skip)
    except ValueError:  # pragma: no cover - shallow stack
        return ()
    while frame is not None and len(frames) < depth:
        code = frame.f_code
        frames.append((code.co_filename, frame.f_lineno, code.co_name))
        frame = frame.f_back
    return tuple(frames)


def _render_site(site: tuple) -> str:
    if not site:
        return "    <no acquisition stack recorded>"
    return "\n".join(f'    File "{f}", line {ln}, in {fn}'
                     for f, ln, fn in site)


class _Held:
    """One scoped lock a thread currently holds."""

    __slots__ = ("name", "rank", "instance", "site", "depth")

    def __init__(self, name: str, rank: int, instance: int, site: tuple):
        self.name = name
        self.rank = rank
        self.instance = instance
        self.site = site
        self.depth = 1  # re-entrant acquisitions of the same instance


class _OpScope:
    """One Inversion locking attempt: watermark over the inv family."""

    __slots__ = ("label", "rank", "name", "site")

    def __init__(self, label: str):
        self.label = label
        self.rank = -1       # highest inv rank acquired so far
        self.name = ""       # ...and its class name
        self.site = ()       # ...and where


class LockdepValidator:
    """Global runtime lock-order validator (one per process).

    Disarmed (the default outside the test suite) a scoped lock is the
    bare ``threading`` lock and every heavyweight hook is a single
    attribute check.  Armed, scoped state lives in
    ``threading.local`` so the hot path takes no shared lock; the edge
    graph is a plain dict mutated under the GIL (counts are
    best-effort under contention, keys are not).
    """

    #: frames kept per acquisition site; violations render these.
    stack_depth = 6

    def __init__(self) -> None:
        self.armed = False
        self._tls = threading.local()
        self._edges: dict[str, int] = {}
        self._heavy_mutex = threading.Lock()
        self._heavy_held: dict[int, dict[str, int]] = {}  # xid -> class -> n
        self._violations = 0

    # -- arming --------------------------------------------------------

    def arm(self) -> None:
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    def reset(self) -> None:
        """Clear the observed graph (held-state is left to unwind)."""
        self._edges = {}
        with self._heavy_mutex:
            self._heavy_held = {}
        self._violations = 0

    # -- per-thread state ----------------------------------------------

    def _scoped(self) -> list:
        stack = getattr(self._tls, "scoped", None)
        if stack is None:
            stack = self._tls.scoped = []
        return stack

    def _ops(self) -> list:
        ops = getattr(self._tls, "ops", None)
        if ops is None:
            ops = self._tls.ops = []
        return ops

    # -- edges ---------------------------------------------------------

    def _record_edge(self, held: str, acquired: str) -> None:
        key = f"{held} -> {acquired}"
        edges = self._edges
        edges[key] = edges.get(key, 0) + 1

    def edges(self) -> dict[str, int]:
        return dict(self._edges)

    def as_dict(self) -> dict:
        """The ``db.statistics()["lockdep"]`` payload."""
        return {
            "armed": self.armed,
            "edges": self.edges(),
            "violations": self._violations,
        }

    # -- scoped (latch / mutex) hooks ----------------------------------

    def scoped_check(self, name: str, instance: int, reentrant: bool) -> None:
        """Validate taking scoped lock ``name`` *before* blocking on it.

        Raises :class:`LockOrderError` if the calling thread already
        holds a scoped lock of higher rank, or this instance unless it is
        *reentrant* (a reentrant one cannot block: always allowed).
        """
        stack = self._scoped()
        if not stack:
            return
        for held in stack:
            if held.instance == instance:
                if reentrant:
                    return  # cannot deadlock
                self._violations += 1
                raise LockOrderError(f"self-deadlock: {name} is not reentrant"
                                     f" and already held, acquired at:\n"
                                     f"{_render_site(held.site)}")
        rank = HIERARCHY[name].rank
        for held in stack:
            self._record_edge(held.name, name)
        worst = max(stack, key=lambda h: h.rank)
        if rank < worst.rank:
            self._violations += 1
            raise LockOrderError(
                f"lock-order inversion: acquiring {name} "
                f"(rank {rank}) while holding {worst.name} "
                f"(rank {worst.rank}); the hierarchy requires "
                f"{name} first.\n"
                f"  {worst.name} was acquired at:\n"
                f"{_render_site(worst.site)}\n"
                f"  {name} is being acquired at:\n"
                f"{_render_site(_call_site(2, self.stack_depth))}")

    def scoped_acquired(self, name: str, instance: int) -> None:
        """Record that the calling thread now holds ``name``."""
        stack = self._scoped()
        for held in stack:
            if held.instance == instance:
                held.depth += 1
                return
        stack.append(_Held(name, HIERARCHY[name].rank, instance,
                           _call_site(2, self.stack_depth)))

    def scoped_released(self, instance: int) -> None:
        stack = getattr(self._tls, "scoped", None)
        if not stack:
            return
        for i in range(len(stack) - 1, -1, -1):
            if stack[i].instance == instance:
                stack[i].depth -= 1
                if stack[i].depth == 0:
                    del stack[i]
                return

    def scoped_held(self) -> list[str]:
        """Class names of scoped locks held by the calling thread."""
        return [h.name for h in self._scoped()]

    def holds(self, instance: int) -> bool:
        """Whether the calling thread holds the scoped lock ``instance``."""
        return any(h.instance == instance for h in self._scoped())

    # -- operation scopes (Inversion path-locking attempts) ------------

    class _Operation:
        __slots__ = ("_validator", "_scope")

        def __init__(self, validator: "LockdepValidator", label: str):
            self._validator = validator
            self._scope = _OpScope(label)

        def __enter__(self):
            self._validator._ops().append(self._scope)
            return self._scope

        def __exit__(self, exc_type, exc, tb):
            ops = self._validator._ops()
            if ops and ops[-1] is self._scope:
                ops.pop()
            elif self._scope in ops:  # pragma: no cover - defensive
                ops.remove(self._scope)

    def operation(self, label: str) -> "LockdepValidator._Operation":
        """Open a locking-attempt scope for the ``inv_*`` order check.

        Within the scope, acquisitions of the Inversion family must be
        non-decreasing in declared rank.  Each retry of a path-locking
        loop opens a fresh scope: the retry legitimately starts over
        (still holding the previous attempt's 2PL locks), and only the
        per-attempt order is the protocol.
        """
        return LockdepValidator._Operation(self, label)

    # -- heavyweight (LockManager) hooks -------------------------------

    def heavy_acquiring(self, xid: int, resource: object) -> None:
        """Validate a LockManager acquisition before it can block."""
        name = classify_resource(resource)
        scoped = self._scoped()
        if scoped:
            for held in scoped:
                self._record_edge(held.name, name)
            worst = max(scoped, key=lambda h: h.rank)
            self._violations += 1
            raise LockOrderError(
                f"blocking-under-mutex: acquiring heavyweight {name} "
                f"({resource!r}) while holding scoped lock "
                f"{worst.name}; a heavy-lock wait can park this thread "
                f"until another transaction commits, so it must never "
                f"be entered while holding the latch or a mutex.\n"
                f"  {worst.name} was acquired at:\n"
                f"{_render_site(worst.site)}\n"
                f"  {name} is being acquired at:\n"
                f"{_render_site(_call_site(2, self.stack_depth))}")
        with self._heavy_mutex:
            held_classes = self._heavy_held.setdefault(xid, {})
            for held_name in held_classes:
                if held_name != name:
                    self._record_edge(held_name, name)
            held_classes[name] = held_classes.get(name, 0) + 1
        ops = getattr(self._tls, "ops", None)
        if ops and name in INV_FAMILY:
            scope = ops[-1]
            rank = HIERARCHY[name].rank
            if rank < scope.rank:
                self._violations += 1
                raise LockOrderError(
                    f"lock-order inversion in Inversion locking attempt "
                    f"{scope.label!r}: acquiring {name} (rank {rank}) "
                    f"after {scope.name} (rank {scope.rank}); the "
                    f"path-locking protocol is "
                    f"{' -> '.join(INV_FAMILY)}.\n"
                    f"  {scope.name} was acquired at:\n"
                    f"{_render_site(scope.site)}\n"
                    f"  {name} is being acquired at:\n"
                    f"{_render_site(_call_site(2, self.stack_depth))}")
            if rank > scope.rank:
                scope.rank = rank
                scope.name = name
                scope.site = _call_site(2, self.stack_depth)

    def heavy_released_all(self, xid: int) -> None:
        """Forget ``xid``'s held classes (2PL release at txn end)."""
        with self._heavy_mutex:
            self._heavy_held.pop(xid, None)


#: The process-wide validator.  Armed explicitly (tests/conftest.py) or
#: by the environment at import time.  ``Database`` arms its engine-latch
#: tripwire off the same switch.
VALIDATOR = LockdepValidator()

if os.environ.get("REPRO_LOCKDEP", "") not in ("", "0"):
    VALIDATOR.arm()


# ---------------------------------------------------------------------------
# LockdepMutex
# ---------------------------------------------------------------------------

class LockdepMutex:
    """A ``threading.Lock``/``RLock`` that declares its lock class.

    The constructor literal — ``LockdepMutex("mutex:xlog")`` — is the
    contract: the runtime validator checks it on every acquisition.

    The armed state is read once, at construction.  Built while the
    validator is disarmed, ``LockdepMutex(...)`` *is* the plain
    ``threading.Lock``/``RLock``: no wrapper, no per-acquire test.
    Built armed, it is this validating wrapper, which checks and records
    every acquisition for its whole life, so :meth:`held` always agrees
    with the validator's per-thread held stack.
    """

    __slots__ = ("_lock", "name", "reentrant")

    def __new__(cls, name: str, *, reentrant: bool = False):
        if name not in HIERARCHY or HIERARCHY[name].domain != "scoped":
            raise ValueError(f"unknown scoped lock class {name!r} "
                             f"(declare it in repro/txn/lockdep.py)")
        lock = threading.RLock() if reentrant else threading.Lock()
        if not VALIDATOR.armed:
            return lock
        self = super().__new__(cls)
        self.name = name
        self._lock = lock
        self.reentrant = reentrant
        return self

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        VALIDATOR.scoped_check(self.name, id(self), self.reentrant)
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            VALIDATOR.scoped_acquired(self.name, id(self))
        return acquired

    def release(self) -> None:
        self._lock.release()
        VALIDATOR.scoped_released(id(self))

    def held(self) -> bool:
        """Whether the calling thread holds this lock (re-entrantly or not)."""
        return VALIDATOR.holds(id(self))

    def __enter__(self) -> "LockdepMutex":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LockdepMutex({self.name!r})"
