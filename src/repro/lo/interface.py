"""The file-oriented large-object interface (§4 of the paper).

    "The application can then open the large object, seek to any byte
    location, and read any number of bytes.  The application need not
    buffer the entire object; it can manage only the bytes it actually
    needs at one time."

Every implementation — u-file, p-file, f-chunk, v-segment — subclasses
:class:`LargeObject`, so client code (including the Inversion file system
and user-defined functions) is implementation-agnostic.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod

from repro.errors import InvalidSeek, ObjectClosedError, ReadOnlyObject

SEEK_SET = os.SEEK_SET
SEEK_CUR = os.SEEK_CUR
SEEK_END = os.SEEK_END


def seek_target(designator: str, offset: int, whence: int = SEEK_SET,
                pos: int = 0, size=None) -> int:
    """Where ``seek(offset, whence)`` lands from *pos*: the whence rules,
    once, for local handles and ``ServerClient`` cursors.  *size* is called
    only under ``SEEK_END`` (a remote descriptor pays a round trip for it).
    """
    if whence == SEEK_SET:
        target = offset
    elif whence == SEEK_CUR:
        target = pos + offset
    elif whence == SEEK_END:
        target = size() + offset
    else:
        raise InvalidSeek(f"bad whence {whence!r}")
    if target < 0:
        raise InvalidSeek(
            f"seek to negative offset {target} in {designator!r}")
    return target


class LargeObject(ABC):
    """An open large-object descriptor with file semantics.

    Descriptors keep a position; :meth:`read` and :meth:`write` advance it
    and are :meth:`pread` / :meth:`pwrite` at that position — the one body
    that reads and the one that writes, which the server calls directly.
    Subclasses implement the positioned primitives ``_read_at`` /
    ``_write_at`` / ``_size``; the base class owns position bookkeeping,
    mode enforcement, and close-state checks.
    """

    def __init__(self, designator: str, writable: bool):
        self.designator = designator
        self.writable = writable
        self._pos = 0
        self._closed = False
        #: Descriptor number in the session that opened it, if one did.
        self.fd: int | None = None
        #: Callbacks run exactly once when the descriptor closes; the
        #: session uses this to forget the handle, the manager to retire
        #: its open-descriptor registration (which unlink checks).
        self.on_close: list = []

    # -- primitive operations (implementation-specific) -----------------------

    @abstractmethod
    def _read_at(self, offset: int, nbytes: int) -> bytes:
        """Up to *nbytes* bytes starting at *offset* (short at EOF)."""

    @abstractmethod
    def _write_at(self, offset: int, data: bytes) -> None:
        """Store *data* at *offset*, extending the object if needed."""

    @abstractmethod
    def _size(self) -> int:
        """Current object size in bytes."""

    def _truncate(self, size: int) -> None:
        """Cut or (sparsely) extend the object to *size* bytes."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support truncate")

    def _close(self) -> None:
        """Implementation-specific close work (default: none)."""

    # -- file interface ----------------------------------------------------------

    def pread(self, offset: int, nbytes: int = -1) -> bytes:
        """Read up to *nbytes* at *offset* (-1 = to EOF); no position moves."""
        self._check_open()
        if offset < 0:
            seek_target(self.designator, offset)  # raises InvalidSeek
        if nbytes < 0:
            nbytes = max(0, self._size() - offset)
        return self._read_at(offset, nbytes)

    def pwrite(self, offset: int, data: bytes) -> int:
        """Write *data* at *offset*; returns bytes written, moves nothing."""
        self._check_writable()
        if offset < 0:
            seek_target(self.designator, offset)  # raises InvalidSeek
        data = bytes(data)
        if data:
            self._write_at(offset, data)
        return len(data)

    def read(self, nbytes: int = -1) -> bytes:
        """Read up to *nbytes* from the current position (-1 = to EOF)."""
        data = self.pread(self._pos, nbytes)
        self._pos += len(data)
        return data

    def write(self, data: bytes) -> int:
        """Write *data* at the current position; returns bytes written."""
        written = self.pwrite(self._pos, data)
        self._pos += written
        return written

    def seek(self, offset: int, whence: int = SEEK_SET) -> int:
        """Move the position; returns the new absolute position."""
        self._check_open()
        self._pos = seek_target(self.designator, offset, whence,
                                self._pos, self._size)
        return self._pos

    def tell(self) -> int:
        """Current position."""
        self._check_open()
        return self._pos

    def truncate(self, size: int | None = None) -> int:
        """Resize the object to *size* bytes (default: current position).

        Shrinking discards the tail — historically, not physically, on the
        chunked implementations: the pre-truncate contents stay readable
        through time travel.  Growing pads with zeros.  Returns the new
        size.  (An extension beyond the paper's §4 interface, which had no
        truncate; POSTGRES gained ``lo_truncate`` much later.)
        """
        self._check_writable()
        if size is None:
            size = self._pos
        if size < 0:
            raise InvalidSeek(f"cannot truncate to {size} bytes")
        self._truncate(size)
        return size

    def size(self) -> int:
        """Current object size in bytes."""
        self._check_open()
        return self._size()

    def append(self, data: bytes) -> int:
        """Write *data* at end-of-file; returns the bytes written.

        The base implementation is :meth:`pwrite` at the current size,
        leaving the position after the data (an empty append moves
        nothing).  :class:`~repro.lo.chunked.ChunkedObject` overrides it
        to re-resolve the EOF *under* the write range lock, so concurrent
        appenders land exactly once instead of overwriting each other at
        a stale EOF.
        """
        self._check_writable()
        end = self._size()
        written = self.pwrite(end, data)
        if written:
            self._pos = end + written
        return written

    def close(self) -> None:
        """Release the descriptor.  Idempotent.  A failing final flush
        propagates, but still leaves the descriptor closed and its
        ``on_close`` callbacks run (e.g. the open-descriptor registry)."""
        if not self._closed:
            try:
                self._close()
            finally:
                self._closed = True
                callbacks, self.on_close = self.on_close, []
                for callback in callbacks:
                    callback()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ObjectClosedError(
                f"large object {self.designator!r} is closed")

    def _check_writable(self) -> None:
        self._check_open()
        if not self.writable:
            raise ReadOnlyObject(
                f"large object {self.designator!r} is open read-only")

    # -- conveniences ----------------------------------------------------------------

    def read_exact(self, nbytes: int) -> bytes:
        """Read exactly *nbytes* or raise on a short read."""
        data = self.read(nbytes)
        if len(data) != nbytes:
            raise EOFError(
                f"wanted {nbytes} bytes from {self.designator!r}, "
                f"got {len(data)}")
        return data

    def copy_from(self, source: "LargeObject",
                  buffer_size: int = 1 << 16) -> int:
        """Append *source* (from its current position) into this object."""
        total = 0
        while True:
            chunk = source.read(buffer_size)
            if not chunk:
                return total
            total += self.write(chunk)

    def __enter__(self) -> "LargeObject":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"pos={self._pos}"
        return f"{type(self).__name__}({self.designator!r}, {state})"
