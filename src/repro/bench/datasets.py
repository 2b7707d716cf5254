"""Synthetic media frames with a controlled compressible fraction.

The paper's §9.2 compression algorithms "achieved 30 % compression on
4096-byte frames" (8 instructions/byte) and "50 % compression"
(20 instructions/byte).  Those algorithms are lost; we reproduce their
*effect* by generating frames whose redundancy is exactly the target
fraction — a literal region that run-length coding cannot squeeze followed
by a zero region it removes entirely — and pricing the CPU via
:class:`~repro.compress.costed.CostedCompressor`.  The achieved ratio of
``zero-rle`` on these frames lands within a percent of the target, and
every byte still round-trips losslessly.

Frames are deterministic in (frame number, seed), so replace operations
can write *different* bytes (generation counter) with identical
compressibility, and verification can recompute expected contents.
"""

from __future__ import annotations

import struct

_UNIT = struct.Struct("<IIHH4x")  # frame, generation, seed, salt; 16 bytes


def frame_bytes(frame_no: int, compressible_fraction: float = 0.0,
                frame_size: int = 4096, generation: int = 0,
                seed: int = 1993) -> bytes:
    """One deterministic frame.

    The first ``(1 - fraction)`` of the frame is an incompressible-to-RLE
    literal pattern unique to (frame, generation, seed); the rest is
    zeros.  ``fraction = 0.3`` therefore compresses to ~70 % under
    ``zero-rle``, matching the paper's "30 % compression".
    """
    if not 0.0 <= compressible_fraction <= 1.0:
        raise ValueError(
            f"compressible fraction must be in [0, 1], "
            f"got {compressible_fraction}")
    zero_len = int(frame_size * compressible_fraction)
    literal_len = frame_size - zero_len
    if literal_len == 0:
        return bytes(frame_size)
    unit = _UNIT.pack(frame_no & 0xFFFFFFFF, generation & 0xFFFFFFFF,
                      seed & 0xFFFF, (frame_no * 2654435761) & 0xFFFF)
    repeats = literal_len // len(unit) + 1
    literal = (unit * repeats)[:literal_len]
    return literal + bytes(zero_len)

