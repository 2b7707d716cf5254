"""The transaction manager: begin / commit / abort with force-at-commit.

Commit follows the POSTGRES storage-system recipe (no WAL):

1. flush every relation file the transaction dirtied, in block order
   (:meth:`~repro.storage.buffer.BufferManager.flush_file`);
2. append the commit record — with the commit *timestamp* used by time
   travel — to ``pg_log``.

If the process dies between 1 and 2 the transaction simply never committed:
its tuples are on disk but stamped with an xid whose status is aborted, so
no reader ever sees them.  Abort is therefore free — release locks, run the
abort hooks, and walk away.

Hooks exist because two of the paper's large-object implementations
(u-file and p-file, §6.1–6.2) live *outside* the database and "the database
cannot guarantee transaction semantics" for them; the hooks let the
large-object manager at least unlink files allocated by a transaction that
aborted.
"""

from __future__ import annotations

import enum
import threading
import weakref
from typing import TYPE_CHECKING, Callable

from repro.errors import NoActiveTransaction, SimulatedCrash, TransactionError
from repro.txn.lockdep import LockdepMutex
from repro.txn.locks import LockManager
from repro.txn.snapshot import Snapshot
from repro.txn.xlog import CommitLog

if TYPE_CHECKING:
    # Runtime imports would close an import cycle now that the storage
    # and sim layers import repro.txn.lockdep (whose parent package
    # imports this module); both names are type-only here.
    from repro.sim.clock import SimClock
    from repro.storage.buffer import BufferManager


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One unit of work; created by :meth:`TransactionManager.begin`."""

    def __init__(self, xid: int, manager: "TransactionManager"):
        self.xid = xid
        self.manager = manager
        self.state = TxnState.ACTIVE
        #: (smgr, fileid) pairs dirtied by this transaction.
        self.touched: list[tuple[object, str]] = []
        self._touched_keys: set[tuple[str, str]] = set()
        #: Run at the start of commit, before pages are forced — open
        #: large-object descriptors flush their write buffers here.
        self.before_commit: list[Callable[[], None]] = []
        self.on_commit: list[Callable[[], None]] = []
        self.on_abort: list[Callable[[], None]] = []
        #: Large-object oid -> [size-row rewrites by this transaction]
        #: (repro.lo.metadata.write_size), a cell its descriptors share.
        self.size_writes: dict[int, list[int]] = {}
        #: The xid bound of this transaction's first current snapshot
        #: (:meth:`TransactionManager.horizon`), kept while it is active;
        #: ``None`` until it takes one.  Later snapshots never bound
        #: lower, so the first one speaks for them all.
        self.xid_bound: int | None = None
        #: ``(TransactionManager._ended, snapshot)`` of the last current
        #: snapshot this transaction took: exact until a transaction
        #: leaves the active set (see :meth:`TransactionManager.snapshot`).
        self.kept_snapshot: tuple[int, Snapshot | None] = (-1, None)

    def touch(self, smgr, fileid: str) -> None:
        """Record that this transaction dirtied *fileid* on *smgr*."""
        key = (smgr.smgr_id, fileid)
        if key not in self._touched_keys:
            self._touched_keys.add(key)
            self.touched.append((smgr, fileid))

    @property
    def is_active(self) -> bool:
        return self.state == TxnState.ACTIVE

    def require_active(self) -> None:
        if self.state != TxnState.ACTIVE:
            raise TransactionError(
                f"transaction {self.xid} is {self.state.value}")

    def commit(self) -> None:
        self.manager.commit(self)

    def abort(self) -> None:
        self.manager.abort(self)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state == TxnState.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Transaction(xid={self.xid}, {self.state.value})"


class TransactionManager:
    """Allocates xids, drives commit/abort, and builds snapshots."""

    def __init__(self, clog: CommitLog, bufmgr: BufferManager,
                 locks: LockManager, clock: SimClock):
        self.clog = clog
        self.bufmgr = bufmgr
        self.locks = locks
        self.clock = clock
        self._active: dict[int, Transaction] = {}
        #: Guards the active-transaction table: sessions begin/commit/abort
        #: concurrently, and snapshots must see a consistent active set.
        #: Ordered before mutex:xlog — begin() allocates the xid while
        #: holding it (see the hierarchy table in repro/txn/lockdep.py).
        self._mutex = LockdepMutex("mutex:txn")
        #: Live snapshots no transaction owns (detached or time-travel),
        #: ``id -> (weakref, xid bound, as_of)``: each is registered for
        #: as long as the scan or descriptor holding it keeps it.
        self._views: dict[int, tuple] = {}
        #: Transactions that have left ``_active``, advanced under the
        #: mutex where they leave: a current snapshot taken at count N
        #: decides every xid as a fresh one would while the count is N.
        self._ended = 0

    # -- lifecycle ----------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a new transaction.

        The xid is allocated and registered in the active table under one
        critical section, and ``snapshot()`` reads the ceiling and the
        active set under the same mutex, so a snapshot never observes a
        ceiling above the new xid without also seeing it active: the new
        transaction stays invisible until it commits *after* the snapshot
        exists.
        """
        with self._mutex:
            xid = self.clog.allocate_xid()
            txn = Transaction(xid, self)
            self._active[xid] = txn
        return txn

    def commit(self, txn: Transaction) -> None:
        """Force dirty pages, then make the commit durable and visible.

        A failure anywhere before the commit record — a ``before_commit``
        hook, a page write, a sync — **aborts** the transaction: locks are
        released, abort hooks run, and the original exception propagates.
        The one exception is :class:`SimulatedCrash` from the
        fault-injection harness, which models the process dying and must
        not trigger cleanup a dead process could never run.
        """
        txn.require_active()
        try:
            for hook in txn.before_commit:
                hook()
            for smgr, fileid in txn.touched:
                if smgr.exists(fileid):  # file may have been dropped again
                    self.bufmgr.flush_file(smgr, fileid)
        except SimulatedCrash:
            raise
        except BaseException:
            # Abort rather than leave the session wedged ACTIVE with locks
            # held.  If an abort hook also fails, its error propagates with
            # the original failure attached as context.
            self.abort(txn)
            raise
        self.clog.set_committed(txn.xid, self.clock.now())
        txn.state = TxnState.COMMITTED
        self._finish(txn, txn.on_commit)

    def abort(self, txn: Transaction) -> None:
        """Abandon the transaction; its tuples become permanent garbage."""
        txn.require_active()
        self.clog.set_aborted(txn.xid)
        txn.state = TxnState.ABORTED
        self._finish(txn, txn.on_abort)

    def _finish(self, txn: Transaction, hooks: list[Callable[[], None]]) -> None:
        with self._mutex:
            self._active.pop(txn.xid, None)
            self._ended += 1    # before the release: a woken waiter re-looks
        self.locks.release_all(txn.xid)
        failures = []
        for hook in hooks:
            try:
                hook()
            except Exception as exc:  # hooks must all run
                failures.append(exc)
        if failures:
            raise TransactionError(
                f"{len(failures)} end-of-transaction hook(s) failed: "
                f"{failures[0]}") from failures[0]

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self, txn: Transaction | None = None,
                 as_of: float | None = None,
                 until: float | None = None) -> Snapshot:
        """Visibility snapshot for *txn* (or a detached reader).

        ``as_of`` alone reads a past instant; ``as_of`` + ``until`` reads
        every version alive at any point in the interval (POSTQUEL's
        ``CLASS["t1", "t2"]``).

        A transaction's current snapshot is kept and handed back while no
        transaction has left the active set since it was taken: a
        transaction that began since has an xid at or above its ceiling,
        invisible to it as to a fresh one, so the two decide every xid
        alike.  The key is the count :meth:`_finish` moves after the
        commit log records the outcome, not ``CommitLog.visibility_epoch``,
        which moves while the committer is still active.
        """
        if as_of is None and txn is not None:
            # Outside the mutex: a count that moves after this read is a
            # transaction still finishing, and this statement is
            # concurrent with it — it may order itself first.
            ended, kept = txn.kept_snapshot
            if ended == self._ended and until is None:
                return kept
        xid = txn.xid if txn is not None else 0
        # Ceiling, active set and registration in one hold: begin() draws
        # xids under this mutex, so no transaction slips between the
        # ceiling and the active set, and no sweep's horizon falls between
        # what the snapshot saw and its registration.
        with self._mutex:
            ceiling = self.clog.next_xid
            active = frozenset(x for x in self._active if x != xid)
            snapshot = Snapshot(xid=xid, active_xids=active, as_of=as_of,
                                until=until, xid_ceiling=ceiling)
            if as_of is not None or txn is None:
                views, key = self._views, id(snapshot)
                views[key] = (weakref.ref(snapshot,
                                          lambda _: views.pop(key, None)),
                              min((ceiling, *active)), as_of)
            else:
                if txn.xid_bound is None:
                    txn.xid_bound = min((ceiling, *active))
                txn.kept_snapshot = (self._ended, snapshot)
        return snapshot

    def horizon(self, caller: float | None, archiving: bool = False
                ) -> tuple[float | None, Snapshot]:
        """What a sweep may remove without a live reader losing a row:
        ``(time, view)``.  A deleter's versions go only if *view* sees the
        deletion and it committed before *time*.

        *view* is the sweep's own snapshot, its ceiling lowered to the
        least bound of every live current snapshot (an active
        transaction's first, or an unowned one): below its bound — the
        least of its active xids and its ceiling — a snapshot sees every
        committed deletion.  A deleter still active when *view* is taken
        is kept even if it commits mid-sweep, since a snapshot taken then
        may count it active.  *time* is the least of *caller* and, unless
        the sweep is *archiving* (time travel reads the archive too),
        every live time-travel snapshot's ``as_of``.
        """
        times = [] if caller is None else [caller]
        with self._mutex:
            ceiling = self.clog.next_xid
            active = frozenset(self._active)
            bounds = [txn.xid_bound for txn in self._active.values()
                      if txn.xid_bound is not None]
            # A copy: a dying snapshot's callback may pop from the table
            # (even from this thread, if a collection runs mid-loop).
            for _ref, bound, as_of in self._views.copy().values():
                if as_of is None:
                    bounds.append(bound)
                elif not archiving:
                    times.append(as_of)
        return (min(times, default=None),
                Snapshot(xid=0, active_xids=active,
                         xid_ceiling=min((ceiling, *bounds))))

    def active_count(self) -> int:
        """Number of transactions currently in progress."""
        with self._mutex:
            return len(self._active)

    def require_transaction(self, txn: Transaction | None) -> Transaction:
        """Validate that *txn* is a live transaction (helper for callers)."""
        if txn is None:
            raise NoActiveTransaction(
                "this operation must run inside a transaction")
        txn.require_active()
        return txn
