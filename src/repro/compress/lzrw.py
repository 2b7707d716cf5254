"""Dictionary compression via :mod:`zlib` (DEFLATE).

The paper's tailored compression algorithms are long gone; DEFLATE stands
in as the "good but expensive" end of the spectrum.  Wrapped with the
store-raw fallback so adversarial inputs still round-trip with bounded
expansion.
"""

from __future__ import annotations

import zlib

from repro.compress.base import Compressor, register_compressor
from repro.errors import CompressionError

_RAW = 0x00
_DEFLATE = 0x02


class ZlibCompressor(Compressor):
    """DEFLATE with a 1-byte method header and raw fallback."""

    name = "zlib"

    def compress(self, data: bytes) -> bytes:
        data = bytes(data)
        packed = zlib.compress(data)
        if len(packed) + 1 >= len(data) + 1:
            return bytes([_RAW]) + data
        return bytes([_DEFLATE]) + packed

    def decompress(self, data: bytes) -> bytes:
        if not data:
            raise CompressionError("empty zlib image")
        method = data[0]
        if method == _RAW:
            return bytes(data[1:])
        if method != _DEFLATE:
            raise CompressionError(f"bad zlib method byte {method:#x}")
        try:
            return zlib.decompress(data[1:])
        except zlib.error as exc:
            raise CompressionError(f"corrupt zlib image: {exc}") from exc


register_compressor("zlib", ZlibCompressor)
