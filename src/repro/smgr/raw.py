"""The Figure 3 baseline: a special program on the raw WORM device.

§9.3: "Because there is no file system for the WORM, we have used in its
place a special purpose program which reads and writes the raw device.
This program provides an upper bound on how well an operating system WORM
jukebox file system could expect to do.  Also, this special program cannot
update frames, so we have restricted our attention to the read portion of
the benchmark."

:class:`RawWormDevice` is that program's device access: append-only writes,
byte-addressed reads, no cache, no atomicity, no recoverability — and
therefore no overhead either.
"""

from __future__ import annotations

from repro.errors import ReadOnlyObject, StorageManagerError
from repro.sim.clock import SimClock
from repro.sim.devices import DeviceModel, DevicePort, jukebox_device


class RawWormDevice:
    """Byte-addressed, append-only access to raw jukebox media."""

    def __init__(self, clock: SimClock, model: DeviceModel | None = None):
        self.model = model or jukebox_device()
        self.port = DevicePort(self.model, clock)
        self._data = bytearray()
        self._sealed = False

    @property
    def size(self) -> int:
        """Bytes written to the media so far."""
        return len(self._data)

    def append(self, data: bytes) -> int:
        """Append *data* to the media; returns the starting byte offset."""
        if self._sealed:
            raise ReadOnlyObject("raw WORM media has been sealed")
        offset = len(self._data)
        self._data.extend(data)
        self.port.charge_run("raw-worm", offset, len(data), 1, True)
        return offset

    def seal(self) -> None:
        """Finalize the media; further appends are rejected."""
        self._sealed = True

    def read(self, offset: int, nbytes: int) -> bytes:
        """Read *nbytes* starting at *offset*."""
        if offset < 0 or offset + nbytes > len(self._data):
            raise StorageManagerError(
                f"raw read [{offset}, {offset + nbytes}) outside media "
                f"of {len(self._data)} bytes")
        self.port.charge_run("raw-worm", offset, nbytes, 1, False)
        return bytes(self._data[offset:offset + nbytes])
