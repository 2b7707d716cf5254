"""Magnetic-disk storage manager: a thin veneer over the OS file system.

This is the paper's first manager — "storage of classes on local magnetic
disk … a thin veneer on top of the UNIX file system."  It is a
:class:`~repro.smgr.base.SingleNodeManager` over one
:class:`~repro.smgr.base.DiskBlockStore` — one real file per relation under
the database's data directory — so every physical access charges the
magnetic-disk cost model exactly as the classic one-device manager did.
"""

from __future__ import annotations

from repro.sim.clock import SimClock
from repro.sim.devices import DeviceModel, magnetic_disk_device
from repro.smgr.base import DiskBlockStore, SingleNodeManager


class DiskStorageManager(SingleNodeManager):
    """Relation files as ordinary OS files, one per relation, one node."""

    name = "disk"

    def __init__(self, directory: str, clock: SimClock,
                 model: DeviceModel | None = None):
        super().__init__("disk0", DiskBlockStore(directory),
                         model or magnetic_disk_device(), clock)
