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

Like libpq's ``lo_*``, every call is a request to the backend: this is
the wire client (:class:`~repro.server.ServerClient`) with an in-process
transport, each request run by :func:`repro.server.server.serve` on the
API object's own :class:`~repro.session.Session` — no socket, and the
engine's own exception object on failure.  Descriptors are small
integers scoped to that session; the mode flags ``INV_READ`` /
``INV_WRITE`` are the historical names.
"""

from __future__ import annotations

from repro.adt.types import normalize_storage
from repro.db import Database
from repro.errors import LargeObjectError
from repro.lo.manager import designator_oid
from repro.server.client import ServerClient
from repro.server.server import serve
from repro.session import Session


class LargeObjectApi(ServerClient):
    """libpq-style large-object calls over one in-process connection.

    Everything but the transport and the historical spellings (oids,
    mode bits, ``lo_creat``/``lo_lseek``/``lo_import``/``lo_export``)
    is :class:`~repro.server.ServerClient`'s, cursor included.  One
    ``LargeObjectApi`` per thread, like one libpq connection.
    """

    #: Historical inversion-API mode bits.
    INV_READ = 0x40000
    INV_WRITE = 0x20000

    def __init__(self, db: Database):
        self.db = db
        self._session = Session(db)
        self._cursors: dict[int, list] = {}

    def _call(self, cmd: str, body: bytes = b"",
              **fields) -> tuple[dict, bytes]:
        return serve(self._session, {"cmd": cmd, **fields}, body)

    def close(self) -> None:
        """End the connection (rolls back any open transaction)."""
        self._cursors.clear()
        self._session.close()

    def begin(self) -> None:
        """Start the connection's transaction."""
        if self._session.in_transaction:
            raise LargeObjectError("transaction already in progress")
        super().begin()

    # -- the historical spellings ------------------------------------------------

    def lo_creat(self, impl: str = "fchunk",
                 compression: str = "none") -> int:
        """Create a large object; returns its oid."""
        self._session.require_transaction()
        if normalize_storage(impl) not in ("fchunk", "vsegment"):
            raise LargeObjectError(
                f"lo_creat supports chunked implementations, not {impl}")
        return designator_oid(self.lo_create(impl, compression))

    def lo_unlink(self, oid: int) -> None:
        """Destroy a large object."""
        super().lo_unlink(f"lo:{oid}")

    def lo_open(self, oid: int, mode: int) -> int:
        """Open object *oid*; returns a descriptor number."""
        if not mode & (self.INV_READ | self.INV_WRITE):
            raise LargeObjectError(f"bad lo_open mode {mode:#x}")
        return super().lo_open(f"lo:{oid}",
                               "rw" if mode & self.INV_WRITE else "r")

    lo_lseek = ServerClient.lo_seek

    # -- conveniences (lo_import / lo_export, as in psql) ---------------------------

    def lo_import(self, path: str, impl: str = "fchunk") -> int:
        """Load a real local file into a new large object."""
        oid = self.lo_creat(impl)
        fd = self.lo_open(oid, self.INV_WRITE)
        try:
            # lo_import reads a *host* file into the database (paper §3)
            # — not an engine data path.
            with open(path, "rb") as source:
                for piece in iter(lambda: source.read(1 << 16), b""):
                    self.lo_write(fd, piece)
        finally:
            self.lo_close(fd)
        return oid

    def lo_export(self, oid: int, path: str) -> int:
        """Write a large object out to a real local file; returns bytes."""
        fd = self.lo_open(oid, self.INV_READ)
        total = 0
        try:
            # lo_export writes a *host* file — not an engine data path.
            with open(path, "wb") as target:
                for piece in iter(lambda: self.lo_read(fd, 1 << 16), b""):
                    total += target.write(piece)
        finally:
            self.lo_close(fd)
        return total
