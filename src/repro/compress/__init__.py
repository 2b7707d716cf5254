"""Compression for large ADTs.

The paper attaches compression to large types through their input/output
conversion routines (§3): the input routine compresses, the output routine
uncompresses, and — because f-chunk and v-segment apply the routines per
chunk / per segment rather than per object — "just-in-time" uncompression
of only the byte ranges actually read is possible (§6.3, §6.4).

All compressors here are genuinely lossless.  The paper's two algorithms
("30 % at 8 instructions/byte", "50 % at 20 instructions/byte") are
reproduced by pairing a real compressor with
:class:`~repro.compress.costed.CostedCompressor`, which charges the stated
CPU price to the simulation clock, and with benchmark data whose
compressible fraction yields the stated ratio (see
:mod:`repro.bench.datasets`).
"""

from repro.compress.base import (
    Compressor,
    available_compressors,
    get_compressor,
    register_compressor,
)
from repro.compress.costed import CostedCompressor
from repro.compress.null import NullCompressor
from repro.compress.rle import ZeroRunCompressor
from repro.compress.lzrw import ZlibCompressor

__all__ = [
    "Compressor",
    "NullCompressor",
    "ZeroRunCompressor",
    "ZlibCompressor",
    "CostedCompressor",
    "register_compressor",
    "get_compressor",
    "available_compressors",
]
