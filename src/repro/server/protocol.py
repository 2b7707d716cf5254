"""The repro wire protocol: length-prefixed JSON header + binary body.

Every message — request or response — is one frame::

    +----------------+----------------+----------------+-----------+
    | header length  | body length    | header (JSON)  | body      |
    | uint32, BE     | uint32, BE     | UTF-8          | raw bytes |
    +----------------+----------------+----------------+-----------+

The JSON header carries the command (or reply fields); the body carries
bulk large-object data so ``lo_pread``/``lo_pwrite`` payloads move as raw
bytes instead of being base64-inflated inside JSON.  Small binary
values that *do* appear inside headers (query result rows may contain
``bytes``) are tagged: ``{"__b64__": "<base64>"}``.

The wire is *positioned*: the data verbs are ``lo_pread(fd, offset,
nbytes)`` and ``lo_pwrite(fd, offset)`` + body, beside ``lo_append``,
``lo_size``, ``lo_truncate(fd, size)`` and ``lo_close``.  There is no
seek or tell verb — the cursor is the client's, so a seek-then-read is
one frame each way, and a transport error in between ends the
connection.  Every verb, with the header fields it requires, is declared
in ``COMMANDS`` of :mod:`repro.server.server`.

Responses always carry ``"ok"``: ``true`` plus reply fields on
success, ``false`` plus ``"error"`` (exception class name) and
``"message"`` on failure.  :mod:`repro.server.client` maps error names
back onto the :mod:`repro.errors` hierarchy.
"""

from __future__ import annotations

import base64
import json
import socket
import struct

from repro.errors import ReproError

#: Frame prefix: header length, body length (both unsigned 32-bit BE).
_PREFIX = struct.Struct("!II")

#: Upper bound on either frame part — a corrupted prefix otherwise asks
#: ``recv`` for gigabytes.  64 MiB comfortably covers the test corpus.
MAX_PART = 64 << 20


class ProtocolError(ReproError):
    """The peer sent a malformed or oversized frame."""


def send_message(sock: socket.socket, header: dict,
                 body: bytes = b"") -> None:
    """Serialize *header*/*body* into one frame and send it."""
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(raw) > MAX_PART or len(body) > MAX_PART:
        raise ProtocolError(
            f"frame part too large ({len(raw)}/{len(body)} bytes, "
            f"max {MAX_PART})")
    sock.sendall(_PREFIX.pack(len(raw), len(body)) + raw + body)


def recv_message(sock: socket.socket) -> tuple[dict, bytes]:
    """Read one frame — the prefix, then header and body together.

    Raises :class:`ConnectionError` (via :func:`recv_exact`) when the
    peer hangs up cleanly between frames, :class:`ProtocolError` on a
    malformed frame.
    """
    header_len, body_len = _PREFIX.unpack(recv_exact(sock, _PREFIX.size))
    if header_len > MAX_PART or body_len > MAX_PART:
        raise ProtocolError(
            f"frame prefix claims {header_len}/{body_len} bytes "
            f"(max {MAX_PART}) — stream out of sync?")
    rest = recv_exact(sock, header_len + body_len)
    try:
        header = json.loads(rest[:header_len])
    except ValueError as exc:
        raise ProtocolError(f"bad frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError(
            f"frame header must be a JSON object, got {type(header).__name__}")
    return header, rest[header_len:]


def recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    """Read exactly *nbytes*; raises ``ConnectionError`` on EOF."""
    # MSG_WAITALL: one recv per MiB on a blocking socket; one with a
    # timeout may still return short, hence the loop.
    parts = []
    remaining = nbytes
    while remaining:
        piece = sock.recv(min(remaining, 1 << 20), socket.MSG_WAITALL)
        if not piece:
            raise ConnectionError(
                f"peer closed mid-frame ({nbytes - remaining}/{nbytes} "
                f"bytes received)")
        parts.append(piece)
        remaining -= len(piece)
    return b"".join(parts)


# -- bytes-in-JSON tagging (query result rows may contain bytes) ------------------


def encode_value(value):
    """JSON-safe form of one result value (bytes become a b64 tag)."""
    if isinstance(value, bytes):
        return {"__b64__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    return value


def decode_value(value):
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict) and "__b64__" in value:
        return base64.b64decode(value["__b64__"])
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def encode_rows(rows: list[tuple]) -> list[list]:
    return [[encode_value(v) for v in row] for row in rows]


def decode_rows(rows: list[list]) -> list[tuple]:
    return [tuple(decode_value(v) for v in row) for row in rows]
