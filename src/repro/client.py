"""The front-end large-object library (the paper's §4 client interface).

POSTGRES applications manipulated large objects through a small C library
whose descendants still ship with PostgreSQL today (``lo_creat``,
``lo_open``, ``lo_lseek``, ...).  This module provides that exact calling
convention over a :class:`~repro.db.Database`, for code ported from (or
to) the historical API:

>>> from repro.db import Database
>>> from repro.client import LargeObjectApi
>>> db = Database()
>>> api = LargeObjectApi(db)
>>> api.begin()
>>> oid = api.lo_creat()
>>> fd = api.lo_open(oid, api.INV_WRITE)
>>> api.lo_write(fd, b"hello")
5
>>> api.lo_lseek(fd, 0, 0)
0
>>> api.lo_read(fd, 5)
b'hello'
>>> api.lo_close(fd)
>>> api.commit()

Descriptors are small integers scoped to the API object's session (its
one descriptor table); the mode flags ``INV_READ`` / ``INV_WRITE`` are the
historical names.
"""

from __future__ import annotations

from repro.adt.types import normalize_storage
from repro.db import Database
from repro.errors import LargeObjectError, NoActiveTransaction
from repro.lo.manager import designator_oid
from repro.session import Session
from repro.txn.manager import Transaction


class LargeObjectApi:
    """libpq-style large-object calls over one database connection.

    The connection state — current transaction, open descriptors — lives
    on a :class:`~repro.session.Session`; this class only translates the
    historical calling convention (integer descriptors, mode bits) onto
    it.  One ``LargeObjectApi`` per thread, like one libpq connection.
    """

    #: Historical inversion-API mode bits.
    INV_READ = 0x40000
    INV_WRITE = 0x20000

    def __init__(self, db: Database):
        self.db = db
        self._session = Session(db)

    # -- transaction plumbing (lo_* calls require one, as in PostgreSQL) ----

    def begin(self) -> None:
        """Start the connection's transaction."""
        if self._session.in_transaction:
            raise LargeObjectError("transaction already in progress")
        self._session.begin()

    def commit(self) -> None:
        self._require_txn()
        self._session.commit()

    def rollback(self) -> None:
        self._require_txn()
        self._session.rollback()

    def _require_txn(self) -> Transaction:
        if not self._session.in_transaction:
            raise NoActiveTransaction(
                "large-object calls must run inside begin()/commit()")
        return self._session.txn

    # -- object lifecycle ------------------------------------------------------

    def lo_creat(self, impl: str = "fchunk",
                 compression: str = "none") -> int:
        """Create a large object; returns its oid."""
        self._require_txn()
        if normalize_storage(impl) not in ("fchunk", "vsegment"):
            raise LargeObjectError(
                f"lo_creat supports chunked implementations, not {impl}")
        return designator_oid(
            self._session.lo_create(impl, compression=compression))

    def lo_unlink(self, oid: int) -> None:
        """Destroy a large object."""
        self._require_txn()
        self._session.lo_unlink(f"lo:{oid}")

    # -- descriptors ------------------------------------------------------------

    def lo_open(self, oid: int, mode: int) -> int:
        """Open object *oid*; returns a descriptor number."""
        if not mode & (self.INV_READ | self.INV_WRITE):
            raise LargeObjectError(f"bad lo_open mode {mode:#x}")
        open_mode = "rw" if mode & self.INV_WRITE else "r"
        self._require_txn()
        return self._session.lo_open(f"lo:{oid}", open_mode).fd

    def lo_close(self, fd: int) -> None:
        self._session.handle(fd).close()

    # -- I/O -----------------------------------------------------------------------

    def lo_read(self, fd: int, nbytes: int) -> bytes:
        return self._session.handle(fd).read(nbytes)

    def lo_write(self, fd: int, data: bytes) -> int:
        return self._session.handle(fd).write(data)

    def lo_lseek(self, fd: int, offset: int, whence: int = 0) -> int:
        return self._session.handle(fd).seek(offset, whence)

    def lo_tell(self, fd: int) -> int:
        return self._session.handle(fd).tell()

    def lo_truncate(self, fd: int, length: int) -> None:
        """Resize the object (PostgreSQL added this call much later)."""
        self._session.handle(fd).truncate(length)

    # -- conveniences (lo_import / lo_export, as in psql) ---------------------------

    def lo_import(self, path: str, impl: str = "fchunk") -> int:
        """Load a real local file into a new large object."""
        oid = self.lo_creat(impl)
        fd = self.lo_open(oid, self.INV_WRITE)
        try:
            # repro: allow(R003): lo_import reads a *host* file into the
            # database (paper §3) — not an engine data path.
            with open(path, "rb") as source:
                while True:
                    piece = source.read(1 << 16)
                    if not piece:
                        break
                    self.lo_write(fd, piece)
        finally:
            self.lo_close(fd)
        return oid

    def lo_export(self, oid: int, path: str) -> int:
        """Write a large object out to a real local file; returns bytes."""
        fd = self.lo_open(oid, self.INV_READ)
        total = 0
        try:
            # repro: allow(R003): lo_export writes a *host* file — not an
            # engine data path.
            with open(path, "wb") as target:
                while True:
                    piece = self.lo_read(fd, 1 << 16)
                    if not piece:
                        break
                    target.write(piece)
                    total += len(piece)
        finally:
            self.lo_close(fd)
        return total
