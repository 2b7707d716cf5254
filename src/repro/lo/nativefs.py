"""The "native file system" that u-file and p-file objects live in.

The paper benchmarks u-file and p-file against the Dynix fast file system.
This module is its substitute: byte-addressed files that charge the
magnetic-disk cost model per access — with **no** buffer pool, no tuple
headers, no index, and no transaction machinery, because that absence *is*
the baseline the DBMS implementations are compared against.

Files can be backed by real OS files (durable databases) or by process
memory (benchmark databases); the cost accounting is identical.
"""

from __future__ import annotations

import os
from functools import cached_property

from repro.errors import FileNotFound, StorageManagerError
from repro.sim.clock import SimClock
from repro.sim.devices import DeviceModel, DevicePort, magnetic_disk_device


class NativeFileSystem:
    """A flat namespace of byte-addressed native files."""

    def __init__(self, clock: SimClock, root: str | None = None,
                 model: DeviceModel | None = None):
        self.clock = clock
        self.root = root
        self.model = model or magnetic_disk_device()
        self._memory: dict[str, bytearray] = {}
        if root is not None:
            os.makedirs(root, exist_ok=True)

    @cached_property
    def port(self) -> DevicePort:
        """The device, built (and so counted by the clock) at first use."""
        return DevicePort(self.model, self.clock)

    # -- path mapping ------------------------------------------------------------

    def _os_path(self, name: str) -> str:
        safe = name.replace("/", "__").replace("..", "_")
        return os.path.join(self.root, safe)

    # -- namespace ----------------------------------------------------------------

    def exists(self, name: str) -> bool:
        if self.root is not None:
            return os.path.exists(self._os_path(name))
        return name in self._memory

    def create(self, name: str) -> None:
        """Create an empty file (idempotent)."""
        if self.root is not None:
            path = self._os_path(name)
            if not os.path.exists(path):
                with open(path, "wb"):
                    pass
        else:
            self._memory.setdefault(name, bytearray())

    def unlink(self, name: str) -> None:
        if self.root is not None:
            path = self._os_path(name)
            if os.path.exists(path):
                os.remove(path)
        else:
            self._memory.pop(name, None)

    def size(self, name: str) -> int:
        self._require(name)
        if self.root is not None:
            return os.path.getsize(self._os_path(name))
        return len(self._memory[name])

    def _require(self, name: str) -> None:
        if not self.exists(name):
            raise FileNotFound(f"native file {name!r} does not exist")

    # -- byte I/O ----------------------------------------------------------------------

    def read_at(self, name: str, offset: int, nbytes: int) -> bytes:
        """Up to *nbytes* at *offset* (short at EOF)."""
        self._require(name)
        if offset < 0 or nbytes < 0:
            raise StorageManagerError(
                f"bad read [{offset}, +{nbytes}) on {name!r}")
        if self.root is not None:
            with open(self._os_path(name), "rb") as fh:
                fh.seek(offset)
                data = fh.read(nbytes)
        else:
            data = bytes(self._memory[name][offset:offset + nbytes])
        if data:
            self.port.charge_run(name, offset, len(data), 1, False)
        return data

    def write_at(self, name: str, offset: int, data: bytes) -> None:
        """Write *data* at *offset*, zero-padding any gap past EOF."""
        self._require(name)
        if offset < 0:
            raise StorageManagerError(f"bad write offset {offset} on {name!r}")
        if self.root is not None:
            with open(self._os_path(name), "r+b") as fh:
                end = fh.seek(0, os.SEEK_END)
                if offset > end:
                    fh.write(bytes(offset - end))
                fh.seek(offset)
                fh.write(data)
        else:
            buf = self._memory[name]
            if offset > len(buf):
                buf.extend(bytes(offset - len(buf)))
            buf[offset:offset + len(data)] = data
        if data:
            self.port.charge_run(name, offset, len(data), 1, True)

    def truncate_at(self, name: str, size: int) -> None:
        """Resize a file: cut the tail or zero-extend."""
        self._require(name)
        if size < 0:
            raise StorageManagerError(f"bad truncate size {size}")
        current = self.size(name)
        if self.root is not None:
            with open(self._os_path(name), "r+b") as fh:
                fh.truncate(size)
        else:
            buf = self._memory[name]
            if size <= current:
                del buf[size:]
            else:
                buf.extend(bytes(size - current))
        self.port.charge_run(name, min(size, current),
                             max(1, abs(size - current)), 1, True)

    def stats(self) -> dict[str, int]:
        return self.port.stats()
