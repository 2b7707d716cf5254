"""``ReproServer``: one connection, one session, one shared engine.

The threaded server maps each accepted socket to a daemon thread
running :meth:`ReproServer._serve_connection`, which owns exactly one
:class:`~repro.session.Session`.  Every connection thread calls into
the same shared :class:`~repro.db.Database`; isolation and mutual
exclusion come from the engine's lock manager and MVCC, not from any
serialization in the server.  In particular, two connections writing
disjoint byte ranges of one large object run genuinely in parallel
under the range-granular write locks (``txn/rangelock.py``), while
overlapping writers block each other — exactly the behaviour the
in-process threaded tests exercise, now across a process boundary.

Failure handling mirrors a real backend: an engine error aborts only
the offending *command* (the client receives ``ok: false`` with the
exception class name and may retry or roll back); a vanished client
rolls back its open transaction via ``Session.close()``.
"""

from __future__ import annotations

import socket
import threading
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.server import protocol
from repro.session import Session
from repro.txn.lockdep import LockdepMutex

if TYPE_CHECKING:
    from repro.db import Database


class ReproServer:
    """A threaded socket front-end over one :class:`~repro.db.Database`.

    >>> from repro.db import Database
    >>> from repro.server import ReproServer, ServerClient
    >>> db = Database()
    >>> with ReproServer(db) as server:
    ...     with ServerClient(*server.address) as client:
    ...         client.ping()
    True
    >>> db.close()

    Port 0 (the default) lets the OS pick a free port; read the bound
    address from :attr:`address` after :meth:`start`.  Entering the
    context manager starts the server; leaving it stops it (the
    database itself stays open — the caller owns it).
    """

    def __init__(self, db: "Database", host: str = "127.0.0.1",
                 port: int = 0):
        self.db = db
        self.host = host
        self.port = port
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._conn_lock = LockdepMutex("mutex:server")
        self._connections: dict[int, socket.socket] = {}
        self._conn_threads: list[threading.Thread] = []
        self._next_conn = 0

    # -- lifecycle ---------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound; valid after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[:2]

    def start(self) -> tuple[str, int]:
        """Bind, listen, and spawn the accept loop; returns the address."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen()
        self._listener = listener
        self._stopping.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-server-accept",
            daemon=True)
        self._accept_thread.start()
        return self.address

    def stop(self) -> None:
        """Close the listener and every live connection; join threads."""
        if self._listener is None:
            return
        self._stopping.set()
        listener, self._listener = self._listener, None
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does (and is refused on some platforms).
        try:
            listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=10.0)
            self._accept_thread = None
        with self._conn_lock:
            live = list(self._connections.values())
        for conn in live:
            # Shutdown wakes the handler's blocking recv; its finally
            # block rolls back the session and closes the socket.
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in self._conn_threads:
            thread.join(timeout=10.0)
        self._conn_threads = []

    def __enter__(self) -> "ReproServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- accept / serve ----------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopping.is_set():
            try:
                conn, _addr = listener.accept()
            except OSError:  # listener closed by stop()
                return
            with self._conn_lock:
                conn_id = self._next_conn
                self._next_conn += 1
                self._connections[conn_id] = conn
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn, conn_id),
                    name=f"repro-server-conn-{conn_id}", daemon=True)
                # Forget handlers that have returned, so the list is
                # bounded by live connections, not connections ever served.
                self._conn_threads = [t for t in self._conn_threads
                                      if t.is_alive()]
                self._conn_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket, conn_id: int) -> None:
        """Run one connection's command loop until EOF or ``close``."""
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        session = Session(self.db)  # also the connection's fd table
        try:
            while not self._stopping.is_set():
                try:
                    header, body = protocol.recv_message(conn)
                except (ConnectionError, OSError):
                    return  # client hung up; finally rolls back
                if not self._dispatch(conn, session, header, body):
                    return
        finally:
            session.close()  # aborts any open transaction
            try:
                conn.close()
            except OSError:
                pass
            with self._conn_lock:
                self._connections.pop(conn_id, None)

    def _dispatch(self, conn: socket.socket, session: Session,
                  header: dict, body: bytes) -> bool:
        """Run one command; returns False when the connection should end."""
        cmd = header.get("cmd")
        try:
            if cmd not in COMMANDS:
                raise ReproError(f"unknown command {cmd!r}")
            handler, required = COMMANDS[cmd]
            for field in required:
                if field not in header:
                    raise protocol.ProtocolError(f"{cmd} needs {field!r}")
            target = session.handle(header["fd"]) if "fd" in required \
                else session
            reply = handler(target, header, body)
            if isinstance(reply, bytes):
                protocol.send_message(conn, {"ok": True}, reply)
            else:
                protocol.send_message(conn, {"ok": True, **(reply or {})})
            return cmd != "close"
        except (ReproError, OSError, ValueError, KeyError, TypeError) as exc:
            # Engine errors fail the command, not the connection: the
            # client decides whether to retry, roll back, or give up (a
            # DeadlockError victim *must* roll back).  Anything else is a
            # malformed request or a dead socket: report if we can, then
            # drop the connection — the stream may be out of sync.
            engine = isinstance(exc, ReproError)
            name = type(exc).__name__
            try:
                protocol.send_message(conn, {
                    "ok": False,
                    "error": name if engine else "ProtocolError",
                    "message": str(exc) if engine else f"{name}: {exc}",
                })
            except OSError:
                return False
            return engine


def _execute(session: Session, header: dict, body: bytes) -> dict:
    result = session.execute(header["query"])
    return {
        "columns": result.columns,
        "rows": protocol.encode_rows(result.rows),
        "count": result.count,
        "temporaries": sorted(result.temporaries),
    }


#: The wire's verbs, declared once: verb → (handler, required header
#: fields).  A verb that requires ``fd`` addresses an open descriptor and
#: its handler gets that handle (``session.handle(fd)``); any other gets
#: the connection's :class:`Session`; then ``(header, body)``.  A handler
#: returns the reply's header fields (a dict), its body (bytes), or None.
COMMANDS = {
    "ping": (lambda s, h, b: {"pong": True}, ()),
    "close": (lambda s, h, b: None, ()),  # _dispatch ends the connection
    "stats": (lambda s, h, b: {"stats": s.db.statistics()}, ()),
    "begin": (lambda s, h, b: {"xid": s.begin().xid}, ()),
    "commit": (lambda s, h, b: s.commit(), ()),
    "rollback": (lambda s, h, b: s.rollback(), ()),
    "execute": (_execute, ("query",)),
    "lo_create": (lambda s, h, b: {"designator": s.lo_create(
        h.get("impl", "fchunk"), smgr=h.get("smgr"),
        compression=h.get("compression", "none"))}, ()),
    "lo_unlink": (lambda s, h, b: s.lo_unlink(h["designator"]),
                  ("designator",)),
    "lo_open": (lambda s, h, b: {"fd": s.lo_open(
        h["designator"], h.get("mode", "r")).fd}, ("designator",)),
    "lo_pread": (lambda o, h, b: o.pread(h["offset"], h["nbytes"]),
                 ("fd", "offset", "nbytes")),
    "lo_pwrite": (lambda o, h, b: {"nbytes": o.pwrite(h["offset"], b)},
                  ("fd", "offset")),
    "lo_append": (lambda o, h, b: {"nbytes": o.append(b), "pos": o.tell()},
                  ("fd",)),
    "lo_size": (lambda o, h, b: {"size": o.size()}, ("fd",)),
    # int(): a null size would truncate to the server-side position, 0.
    "lo_truncate": (lambda o, h, b: {"size": o.truncate(int(h["size"]))},
                    ("fd", "size")),
    "lo_close": (lambda o, h, b: o.close(), ("fd",)),
}
