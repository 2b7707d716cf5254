"""Run-length compressors.

:class:`ZeroRunCompressor` squeezes runs of zero bytes — the dominant
redundancy in the benchmark's synthetic media frames (and in real sparse
data: zero padding, silence in audio, black borders in images).  It is
written around :meth:`bytes.find` and a compiled pattern, so a run's two
ends are found at C speed and it is usable on multi-megabyte transfers.

:class:`ByteRunCompressor` is a classic generic RLE over runs of *any*
byte; simpler and slower, it exists for tests and small data.

Both produce self-describing images with a store-raw fallback, so any
input round-trips and incompressible data costs at most a 1-byte header.
"""

from __future__ import annotations

import re
import struct

from repro.compress.base import Compressor, register_compressor
from repro.errors import CompressionError

_RAW = 0x00
_PACKED = 0x01
_U32 = struct.Struct("<I")

#: Zero runs shorter than this are left as literals (token overhead).
_MIN_ZERO_RUN = 16

#: Where a zero run ends (``*_re``: how lint rule R001 knows a regex).
_nonzero_re = re.compile(rb"[^\x00]")


class ZeroRunCompressor(Compressor):
    """RLE over runs of zero bytes, literals passed through verbatim.

    Image format: 1 method byte, then tokens:
    ``'L' + u32 length + bytes`` (literal) or ``'Z' + u32 length`` (zeros).
    """

    name = "zero-rle"

    def compress(self, data: bytes) -> bytes:
        data = bytes(data)
        probe = b"\x00" * _MIN_ZERO_RUN
        parts = [bytes([_PACKED])]
        packed_size = 1
        pos = 0
        n = len(data)
        while pos < n:
            hit = data.find(probe, pos)
            if hit < 0:
                hit = n
            if hit > pos:  # literal up to the run (or the end)
                literal = data[pos:hit]
                parts.append(b"L" + _U32.pack(len(literal)) + literal)
                packed_size += 5 + len(literal)
                pos = hit
            if pos >= n:
                break
            match = _nonzero_re.search(data, pos)
            run_end = match.start() if match else n
            parts.append(b"Z" + _U32.pack(run_end - pos))
            packed_size += 5
            pos = run_end
        if packed_size >= n + 1:
            return bytes([_RAW]) + data
        return b"".join(parts)

    def decompress(self, data: bytes) -> bytes:
        if not data:
            raise CompressionError("empty zero-rle image")
        method = data[0]
        if method == _RAW:
            return bytes(data[1:])
        if method != _PACKED:
            raise CompressionError(f"bad zero-rle method byte {method:#x}")
        out = bytearray()
        pos = 1
        n = len(data)
        while pos < n:
            token = data[pos:pos + 1]
            (length,) = _U32.unpack_from(data, pos + 1)
            pos += 5
            if token == b"L":
                chunk = data[pos:pos + length]
                if len(chunk) != length:
                    raise CompressionError("truncated zero-rle literal")
                out += chunk
                pos += length
            elif token == b"Z":
                out += bytes(length)
            else:
                raise CompressionError(
                    f"bad zero-rle token {token!r} at offset {pos - 5}")
        return bytes(out)


class ByteRunCompressor(Compressor):
    """Generic RLE: ``(count u8, byte)`` pairs, runs capped at 255.

    Quadratically slower than :class:`ZeroRunCompressor` on large inputs;
    intended for small data and for exercising a second real algorithm in
    tests.
    """

    name = "byte-rle"

    def compress(self, data: bytes) -> bytes:
        data = bytes(data)
        out = bytearray([_PACKED])
        pos = 0
        n = len(data)
        while pos < n:
            byte = data[pos]
            run = 1
            while run < 255 and pos + run < n and data[pos + run] == byte:
                run += 1
            out.append(run)
            out.append(byte)
            pos += run
        if len(out) >= n + 1:
            return bytes([_RAW]) + data
        return bytes(out)

    def decompress(self, data: bytes) -> bytes:
        if not data:
            raise CompressionError("empty byte-rle image")
        if data[0] == _RAW:
            return bytes(data[1:])
        if data[0] != _PACKED:
            raise CompressionError(f"bad byte-rle method byte {data[0]:#x}")
        if (len(data) - 1) % 2:
            raise CompressionError("odd byte-rle body length")
        out = bytearray()
        for i in range(1, len(data), 2):
            out += bytes([data[i + 1]]) * data[i]
        return bytes(out)


register_compressor("zero-rle", ZeroRunCompressor)
register_compressor("byte-rle", ByteRunCompressor)
