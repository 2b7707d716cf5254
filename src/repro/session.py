"""Per-session state: the transaction cursor and open descriptors.

A :class:`~repro.db.Database` is shared by every thread in the process;
everything that belongs to *one* caller — which transaction is current,
which large objects it has open — lives on a :class:`Session` instead.
Create one per thread (or per logical connection) with
:meth:`Database.session`:

>>> from repro.db import Database
>>> db = Database()
>>> s = db.session()
>>> _ = db.create_class("EMP", [("name", "text"), ("age", "int4")])
>>> _ = s.begin()
>>> _ = s.insert("EMP", ("Joe", 30))
>>> s.commit()
>>> [t.values for t in s.scan("EMP")]
[('Joe', 30)]

Sessions are deliberately *not* thread-safe: one thread, one session.
The shared core underneath (buffer pool, lock manager, commit log) is
what carries the concurrency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.access.tuples import TID, HeapTuple
from repro.errors import (
    LargeObjectError,
    NoActiveTransaction,
    TransactionError,
)
from repro.txn.manager import Transaction

if TYPE_CHECKING:
    from repro.db import Database
    from repro.lo.interface import LargeObject


class Session:
    """One caller's handle on a shared :class:`~repro.db.Database`.

    Tracks the current transaction and every large object opened through
    it, in the one descriptor table (``fd`` → handle) that the libpq-style
    front end and the server both address; :meth:`commit` and
    :meth:`rollback` close those descriptors first (flushing write
    buffers), exactly as that front end does.
    """

    def __init__(self, db: "Database"):
        self.db = db
        self.txn: Transaction | None = None
        self._handles: dict[int, "LargeObject"] = {}
        self._next_fd = 1

    # -- transactions -------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self.txn is not None and self.txn.is_active

    def begin(self) -> Transaction:
        """Start this session's transaction."""
        if self.in_transaction:
            raise TransactionError("transaction already in progress")
        self.txn = self.db.begin()
        return self.txn

    def commit(self) -> None:
        """Close open descriptors, then commit the current transaction."""
        txn = self.require_transaction()
        self.close_objects()
        try:
            txn.commit()
        finally:
            self.txn = None

    def rollback(self) -> None:
        """Close open descriptors, then abort the current transaction.

        This is also how a :class:`~repro.errors.DeadlockError` victim
        recovers: abort releases its locks, letting the survivors run.
        """
        txn = self.require_transaction()
        try:
            self.close_objects()
        finally:
            self.txn = None
            txn.abort()

    def require_transaction(self) -> Transaction:
        if not self.in_transaction:
            raise NoActiveTransaction(
                "this session has no transaction in progress")
        return self.txn

    # -- DML bound to the session's transaction -----------------------------------

    def insert(self, class_name: str, values: tuple) -> TID:
        return self.db.insert(self.require_transaction(), class_name, values)

    def delete(self, class_name: str, tid: TID) -> None:
        self.db.delete(self.require_transaction(), class_name, tid)

    def replace(self, class_name: str, tid: TID, values: tuple) -> TID:
        return self.db.replace(self.require_transaction(), class_name, tid,
                               values)

    def scan(self, class_name: str, as_of: float | None = None,
             until: float | None = None) -> Iterator[HeapTuple]:
        return self.db.scan(class_name, txn=self.txn, as_of=as_of,
                            until=until)

    def fetch(self, class_name: str, tid: TID,
              as_of: float | None = None) -> HeapTuple | None:
        return self.db.fetch(class_name, tid, txn=self.txn, as_of=as_of)

    def execute(self, query: str):
        """Run a mini-POSTQUEL statement in this session's transaction."""
        return self.db.execute(query, txn=self.txn)

    # -- large objects ------------------------------------------------------------

    def lo_create(self, impl: str = "fchunk", smgr: str | None = None,
                  compression: str = "none",
                  path: str | None = None) -> str:
        """Create a large object; returns its designator."""
        return self.db.lo.create(self.require_transaction(), impl,
                                 smgr=smgr, compression=compression,
                                 path=path)

    def lo_open(self, designator: str, mode: str = "r",
                as_of: float | None = None) -> "LargeObject":
        """Open a large object, tracked for close-on-commit/rollback
        under a fresh descriptor number (``handle.fd``).

        However the handle closes — by the user (even when its final
        flush raises), at commit, at rollback — its fd names nothing
        afterwards, so nothing re-closes it and unlink does not count it
        as a live descriptor.
        """
        handle = self.db.lo.open(designator, self.require_transaction(),
                                 mode, as_of=as_of)
        fd = handle.fd = self._next_fd
        self._next_fd += 1
        self._handles[fd] = handle
        handle.on_close.append(lambda: self._handles.pop(fd, None))
        return handle

    def handle(self, fd: int) -> "LargeObject":
        """The open handle that descriptor *fd* names."""
        handle = self._handles.get(fd)
        if handle is None:
            raise LargeObjectError(f"bad large-object descriptor {fd!r}")
        return handle

    def lo_unlink(self, designator: str) -> None:
        self.db.lo.unlink(self.require_transaction(), designator)

    def close_objects(self) -> None:
        """Close every large object opened through this session — all of
        them even if a final flush fails; the first error is re-raised."""
        first_error = None
        for handle in list(self._handles.values()):
            try:
                handle.close()
            except Exception as exc:
                first_error = first_error or exc
        if first_error is not None:
            raise first_error

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Abort any open transaction and release the session's state."""
        if self.in_transaction:
            self.rollback()
        else:
            self.close_objects()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (f"xid={self.txn.xid}" if self.in_transaction
                 else "idle")
        return f"Session({state}, {len(self._handles)} open objects)"
