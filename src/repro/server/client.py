"""``ServerClient``: the blocking client half of the repro protocol.

One :class:`ServerClient` is one connection is one server-side
:class:`~repro.session.Session`.  Calls block until the server
replies; an ``ok: false`` reply re-raises the server-side exception
class (looked up by name in :mod:`repro.errors`) with the original
message, so ``except DeadlockError: rollback-and-retry`` loops work
unchanged against a remote server.

The wire is positioned (:mod:`repro.server.protocol`) and the cursor
is held here: ``lo_read``/``lo_write`` are ``lo_pread``/``lo_pwrite`` at
a per-descriptor position, so ``lo_seek`` + ``lo_read`` is one round
trip, ``lo_tell`` none, and only ``SEEK_END`` asks the server (one
``lo_size``).  ``round_trips`` counts the frames sent.  A transport
error inside a call closes the connection: the stream would be one reply
out of step, so later calls raise ``ConnectionError``.

>>> from repro.db import Database
>>> from repro.server import ReproServer, ServerClient
>>> db = Database()
>>> with ReproServer(db) as server:
...     with ServerClient(*server.address) as c:
...         c.begin()
...         lo = c.lo_create("fchunk")
...         fd = c.lo_open(lo, "rw")
...         _ = c.lo_write(fd, b"hello, inversion")
...         c.lo_close(fd)
...         c.commit()
...         c.begin()
...         fd = c.lo_open(lo)
...         data = c.lo_read(fd, 5)
...         c.rollback()
>>> data
b'hello'
>>> db.close()
"""

from __future__ import annotations

import socket

from repro import errors
from repro.errors import LargeObjectError, ReproError
from repro.lo.interface import SEEK_SET, seek_target
from repro.server import protocol


class ServerClient:
    """A blocking connection to a :class:`~repro.server.ReproServer`."""

    def __init__(self, host: str, port: int, timeout: float | None = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        #: Request frames sent so far (each is answered by one reply).
        self.round_trips = 0
        #: fd → [designator, position]: the cursor of every open descriptor.
        self._cursors: dict[int, list] = {}

    # -- plumbing ----------------------------------------------------------------

    def _call(self, cmd: str, body: bytes = b"",
              **fields) -> tuple[dict, bytes]:
        """One request/reply round trip; raises the mapped engine error."""
        if self._sock is None:
            raise ConnectionError("connection is closed")
        try:
            protocol.send_message(self._sock, {"cmd": cmd, **fields}, body)
            self.round_trips += 1
            header, reply_body = protocol.recv_message(self._sock)
        except (OSError, protocol.ProtocolError):
            self._hang_up()  # or the next call reads this call's late reply
            raise
        if header.get("ok"):
            return header, reply_body
        raise self._map_error(header)

    @staticmethod
    def _map_error(header: dict) -> ReproError:
        name = header.get("error", "ReproError")
        message = header.get("message", "server error")
        if name == "ProtocolError":
            return protocol.ProtocolError(message)
        cls = getattr(errors, name, None)
        if not (isinstance(cls, type) and issubclass(cls, ReproError)):
            cls = ReproError
        return cls(message)

    # -- connection --------------------------------------------------------------

    def ping(self) -> bool:
        header, _ = self._call("ping")
        return bool(header.get("pong"))

    def stats(self) -> dict:
        """The server database's ``statistics()`` snapshot."""
        header, _ = self._call("stats")
        return header["stats"]

    def close(self) -> None:
        """End the connection (rolls back any open transaction)."""
        try:
            self._call("close")
        except (ReproError, OSError):
            pass  # already closed, or best effort: EOF rolls back anyway
        self._hang_up()

    def _hang_up(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- transactions ------------------------------------------------------------

    def begin(self) -> int:
        """Start this connection's transaction; returns its xid."""
        header, _ = self._call("begin")
        return header["xid"]

    def commit(self) -> None:
        self._cursors.clear()  # commit and rollback close every descriptor
        self._call("commit")

    def rollback(self) -> None:
        self._cursors.clear()
        self._call("rollback")

    # -- queries -----------------------------------------------------------------

    def execute(self, query: str) -> dict:
        """Run a mini-POSTQUEL statement; returns a plain-dict result.

        Keys mirror :class:`~repro.ql.executor.QueryResult`:
        ``columns``, ``rows`` (tuples, ``bytes`` values restored),
        ``count``, ``temporaries``.
        """
        header, _ = self._call("execute", query=query)
        return {
            "columns": header["columns"],
            "rows": protocol.decode_rows(header["rows"]),
            "count": header["count"],
            "temporaries": set(header["temporaries"]),
        }

    # -- large objects -----------------------------------------------------------

    def lo_create(self, impl: str = "fchunk",
                  compression: str = "none",
                  smgr: str | None = None) -> str:
        header, _ = self._call("lo_create", impl=impl,
                               compression=compression, smgr=smgr)
        return header["designator"]

    def lo_unlink(self, designator: str) -> None:
        self._call("lo_unlink", designator=designator)

    def lo_open(self, designator: str, mode: str = "r") -> int:
        header, _ = self._call("lo_open", designator=designator, mode=mode)
        self._cursors[header["fd"]] = [designator, 0]
        return header["fd"]

    def lo_close(self, fd: int) -> None:
        try:
            self._call("lo_close", fd=fd)
        finally:
            self._cursors.pop(fd, None)

    def _cursor(self, fd: int) -> list:
        try:
            return self._cursors[fd]
        except KeyError:
            raise LargeObjectError(
                f"bad large-object descriptor {fd!r}") from None

    def lo_pread(self, fd: int, offset: int, nbytes: int = -1) -> bytes:
        """Positioned read (-1 = to EOF); the cursor does not move."""
        _, body = self._call("lo_pread", fd=fd, offset=offset, nbytes=nbytes)
        return body

    def lo_pwrite(self, fd: int, offset: int, data: bytes) -> int:
        """Positioned write; the cursor does not move."""
        header, _ = self._call("lo_pwrite", bytes(data), fd=fd, offset=offset)
        return header["nbytes"]

    def lo_read(self, fd: int, nbytes: int = -1) -> bytes:
        cursor = self._cursor(fd)
        data = self.lo_pread(fd, cursor[1], nbytes)
        cursor[1] += len(data)
        return data

    def lo_write(self, fd: int, data: bytes) -> int:
        cursor = self._cursor(fd)
        written = self.lo_pwrite(fd, cursor[1], data)
        cursor[1] += written
        return written

    def lo_append(self, fd: int, data: bytes) -> int:
        """EOF-stable append (lands exactly once under concurrency)."""
        cursor = self._cursor(fd)
        header, _ = self._call("lo_append", bytes(data), fd=fd)
        if header["nbytes"]:  # an empty append moves nothing
            cursor[1] = header["pos"]
        return header["nbytes"]

    def lo_seek(self, fd: int, offset: int, whence: int = SEEK_SET) -> int:
        """Move the cursor; only ``SEEK_END`` sends anything (``lo_size``)."""
        cursor = self._cursor(fd)
        cursor[1] = seek_target(cursor[0], offset, whence, cursor[1],
                                lambda: self.lo_size(fd))
        return cursor[1]

    def lo_tell(self, fd: int) -> int:
        return self._cursor(fd)[1]

    def lo_size(self, fd: int) -> int:
        header, _ = self._call("lo_size", fd=fd)
        return header["size"]

    def lo_truncate(self, fd: int, size: int | None = None) -> int:
        """Resize to *size* bytes (default: the cursor's position)."""
        if size is None:
            size = self._cursor(fd)[1]
        header, _ = self._call("lo_truncate", fd=fd, size=size)
        return header["size"]
