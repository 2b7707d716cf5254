"""The frozen reference kernel every timing is divided by.

This sandbox class changes speed by a quarter for minutes at a time, so a
raw wall-clock median says as much about the minute it was taken in as
about the code.  The kernel below does a fixed amount of the *kind* of
work the engine does -- page copies, CRCs, header packing, slicing, dict
traffic, 8 KB file I/O, socket round trips -- and is sampled between
timed operations.  Per replay, every timing is multiplied by
``REF_US / median(kernel samples of that replay)``, so values read as
"microseconds on the reference box".

The kernel imports nothing from ``repro`` and must not change when the
engine does: editing it, or ``REF_US``, re-bases every metric and is a
benchmark change, never part of a performance change.
"""

from __future__ import annotations

import os
import socket
import statistics
import struct
import time
import zlib

#: Median of one kernel execution, in microseconds, on the box this
#: benchmark was built on (2 vCPU, Python 3.11, ext4 page cache).
REF_US = 120.0

_PAGE_BYTES = 8192
_HEADER = struct.Struct("<IHHQ")
_SCRATCH_NAME = "refkernel.scratch"


class RefKernel:
    """One scratch file plus one socket pair, sampled with :meth:`sample`."""

    def __init__(self, directory: str):
        self._page = bytes(range(256)) * (_PAGE_BYTES // 256)
        self._buf = bytearray(_PAGE_BYTES)
        self._message = bytes(4096)
        self._table: dict[tuple[int, int], bytes] = {}
        self._path = os.path.join(directory, _SCRATCH_NAME)
        self._fd = os.open(self._path, os.O_RDWR | os.O_CREAT | os.O_TRUNC,
                           0o600)
        os.pwrite(self._fd, bytes(_PAGE_BYTES * 6), 0)
        self._near, self._far = socket.socketpair()
        self.samples: list[float] = []

    def sample(self) -> None:
        """Run the kernel once and record how long it took (seconds)."""
        buf, page, table = self._buf, self._page, self._table
        fd, near, far, message = self._fd, self._near, self._far, self._message
        start = time.perf_counter()
        for i in range(12):
            buf[:] = page
            crc = zlib.crc32(buf)
            _, flags, slots, lsn = _HEADER.unpack_from(buf, 0)
            _HEADER.pack_into(buf, 0, crc, flags, slots, lsn + i)
            table[(i, crc)] = bytes(buf[2048:6144])
            table.get((i, crc))
        for i in range(6):
            os.pwrite(fd, buf, i * _PAGE_BYTES)
            os.pread(fd, _PAGE_BYTES, i * _PAGE_BYTES)
        for _ in range(4):
            near.sendall(message)
            far.recv(4096, socket.MSG_WAITALL)
            far.sendall(message)
            near.recv(4096, socket.MSG_WAITALL)
        self.samples.append(time.perf_counter() - start)

    def burst(self, count: int) -> None:
        for _ in range(count):
            self.sample()

    def median_us(self) -> float:
        return statistics.median(self.samples) * 1e6

    def close(self) -> None:
        self._near.close()
        self._far.close()
        os.close(self._fd)
        os.unlink(self._path)
