"""The repro wire protocol: length-prefixed binary header + binary body.

Every message — request or response — is one frame::

    +----------------+----------------+----------------+-----------+
    | header length  | body length    | header         | body      |
    | uint32, BE     | uint32, BE     | (binary)       | raw bytes |
    +----------------+----------------+----------------+-----------+

The body carries bulk large-object data as raw bytes.  Every header key
is declared once, with its type, in ``FIELDS``.  A header is a u32 key
mask (bit *i*: the *i*-th key is present), one ``struct`` of the i64 and
bool fields present, then each text field present as a u32 length and
that much UTF-8 (``0xFFFFFFFF`` for ``None``), all in declaration order.
The only nested values, ``stats`` and the ``execute`` result's lists, are
*structured* text fields: JSON, ``bytes`` tagged ``{"__b64__": "..."}``.

A value that does not fit its key's type raises :class:`ProtocolError`
before a byte is sent, so the stream stays in step.  So does, on
receipt, a truncated field, a length past the header's end, an
undeclared mask bit (a JSON-era header's leading ``{`` sets one),
trailing bytes, bad UTF-8 or bad JSON.

The wire is *positioned*: the data verbs are ``lo_pread(fd, offset,
nbytes)`` and ``lo_pwrite(fd, offset)`` + body, beside ``lo_append``,
``lo_size``, ``lo_truncate(fd, size)`` and ``lo_close``.  There is no
seek or tell verb — the cursor is the client's, so a seek-then-read is
one frame each way, and a transport error in between ends the
connection.  Every verb, with the header fields it requires, is declared
in ``COMMANDS`` of :mod:`repro.server.server`.

Responses always carry ``ok``: ``True`` plus reply fields on success,
``False`` plus ``error`` (exception class name) and ``message`` on
failure.  :mod:`repro.server.client` maps error names back onto the
:mod:`repro.errors` hierarchy.
"""

from __future__ import annotations

import base64
import functools
import json
import socket
import struct

from repro.errors import ReproError

#: Frame prefix: header length, body length (both unsigned 32-bit BE).
_PREFIX = struct.Struct("!II")

#: Upper bound on either frame part — a corrupted prefix otherwise asks
#: ``recv`` for gigabytes.  64 MiB comfortably covers the test corpus.
MAX_PART = 64 << 20

#: Header field types; the fixed-width two are their struct codes.
I64, BOOL, TEXT, STRUCTURED = "q", "?", "text", "structured"

#: Every header key with its type; a key's place is its mask bit.  At
#: most 24 keys, so that the 0x7b opening a JSON-era header is undeclared.
FIELDS = {
    "cmd": TEXT, "fd": I64, "offset": I64, "nbytes": I64, "size": I64,
    "query": TEXT, "designator": TEXT, "mode": TEXT, "impl": TEXT,
    "compression": TEXT, "smgr": TEXT,
    "ok": BOOL, "error": TEXT, "message": TEXT, "pong": BOOL, "xid": I64,
    "pos": I64, "count": I64, "columns": STRUCTURED, "rows": STRUCTURED,
    "temporaries": STRUCTURED, "stats": STRUCTURED,
}
_BIT = {name: 1 << place for place, name in enumerate(FIELDS)}
_U32 = struct.Struct("!I")
_NONE = 0xFFFFFFFF


class ProtocolError(ReproError):
    """A malformed or oversized frame, or a header value off its type."""


_JSON_OUT = json.JSONEncoder(separators=(",", ":"), default=lambda data: {
    "__b64__": base64.b64encode(data).decode("ascii")}).encode  # bytes only
_JSON_IN = json.JSONDecoder(object_hook=lambda obj: base64.b64decode(
    obj["__b64__"]) if "__b64__" in obj else obj).decode


class _Layout:
    """One key set's header: which fields, in which order, how packed."""

    def __init__(self, mask: int):
        names = [name for name in FIELDS if mask & _BIT[name]]
        self.fixed = [name for name in names if FIELDS[name] in (I64, BOOL)]
        self.bools = [name for name in self.fixed if FIELDS[name] == BOOL]
        self.texts = [(name, FIELDS[name] == STRUCTURED)
                      for name in names if name not in self.fixed]
        self.head = struct.Struct("!I" + "".join(map(FIELDS.get, self.fixed)))
        self.mask = mask

    def encode(self, header: dict) -> bytes:
        try:
            for name in self.bools:  # struct's "?" takes any object
                if type(header[name]) is not bool:
                    raise TypeError(f"{name!r} is not a bool")
            parts = [self.head.pack(self.mask, *map(header.__getitem__, self.fixed))]
            for name, structured in self.texts:
                value = header[name]
                if structured:
                    value = _JSON_OUT(value)
                elif value is None:
                    parts.append(_U32.pack(_NONE))
                    continue
                data = value.encode()  # AttributeError unless a str
                parts += (_U32.pack(len(data)), data)
        except (struct.error, TypeError, ValueError, AttributeError) as exc:
            raise ProtocolError(f"header {header!r} does not fit its "
                                f"declared types: {exc}") from None
        return b"".join(parts)

    def decode(self, raw: bytes) -> dict:
        header = dict(zip(self.fixed, self.head.unpack_from(raw)[1:]))
        pos = self.head.size
        for name, structured in self.texts:
            (size,) = _U32.unpack_from(raw, pos)
            pos += 4
            if size == _NONE:
                header[name] = None
                continue
            text = raw[pos:pos + size].decode()
            header[name] = _JSON_IN(text) if structured else text
            pos += size
        if pos != len(raw):  # a lying length, or trailing bytes
            raise ProtocolError(f"header fields span {pos} of {len(raw)} bytes")
        return header


@functools.lru_cache(maxsize=256)
def _by_mask(mask: int) -> _Layout:
    if mask >> len(FIELDS):  # a JSON-era peer's "{" lands here
        raise ProtocolError(f"header mask {mask:#010x} sets undeclared keys")
    return _Layout(mask)


def send_message(sock: socket.socket, header: dict,
                 body: bytes = b"") -> None:
    """Serialize *header*/*body* into one frame and send it."""
    try:
        layout = _by_mask(sum(map(_BIT.__getitem__, header)))
    except KeyError as exc:
        raise ProtocolError(f"undeclared header field {exc}") from None
    raw = layout.encode(header)
    if len(raw) > MAX_PART or len(body) > MAX_PART:
        raise ProtocolError(
            f"frame part too large ({len(raw)}/{len(body)} bytes, "
            f"max {MAX_PART})")
    sock.sendall(_PREFIX.pack(len(raw), len(body)) + raw + body)


def recv_message(sock: socket.socket) -> tuple[dict, bytes]:
    """Read one frame — the prefix, then header and body together.

    Raises :class:`ConnectionError` (via :func:`recv_exact`) when the
    peer hangs up or stalls mid-frame, :class:`ProtocolError` on a
    malformed frame, and ``TimeoutError`` only if no byte of one came.
    """
    header_len, body_len = _PREFIX.unpack(recv_exact(sock, _PREFIX.size))
    if header_len > MAX_PART or body_len > MAX_PART:
        raise ProtocolError(
            f"frame prefix claims {header_len}/{body_len} bytes "
            f"(max {MAX_PART}) — stream out of sync?")
    try:
        rest = recv_exact(sock, header_len + body_len)
        raw = rest[:header_len]
        return (_by_mask(_U32.unpack_from(raw)[0]).decode(raw),
                rest[header_len:])
    except TimeoutError:  # the prefix came, the rest did not
        raise ConnectionError("peer stalled after a frame prefix") from None
    except (struct.error, ValueError, TypeError) as exc:
        raise ProtocolError(f"bad frame header: {exc}") from exc


def recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    """Read exactly *nbytes*; raises ``ConnectionError`` on EOF or on a
    timeout once some of them arrived (``TimeoutError`` if none did)."""
    # MSG_WAITALL: one recv per MiB on a blocking socket; one with a
    # timeout may still return short, hence the loop.
    parts = []
    remaining = nbytes
    try:
        while remaining:
            piece = sock.recv(min(remaining, 1 << 20), socket.MSG_WAITALL)
            if not piece:
                raise ConnectionError(
                    f"peer closed mid-frame ({nbytes - remaining}/{nbytes} "
                    f"bytes received)")
            parts.append(piece)
            remaining -= len(piece)
        return b"".join(parts)
    except TimeoutError:
        if remaining == nbytes:
            raise
        raise ConnectionError(
            f"peer stalled mid-frame ({nbytes - remaining}/{nbytes} bytes "
            f"received)") from None


def encode_rows(rows: list[tuple]) -> list[list]:
    """Result rows as a structured value (``bytes`` in them are tagged)."""
    return [list(row) for row in rows]


def decode_rows(rows: list[list]) -> list[tuple]:
    return [tuple(row) for row in rows]
