"""Main-memory (NVRAM) storage manager.

The paper's second manager "allows relational data to be stored in
non-volatile random-access memory."  It is the simplest possible
single-node instance of the node-addressed layer
(:class:`~repro.smgr.base.SingleNodeManager`) over one
:class:`~repro.smgr.base.MemoryBlockStore`, so cost accounting is exactly
the classic one-device behavior (no positioning cost, memcpy-speed transfer
by default).
"""

from __future__ import annotations

from repro.sim.clock import SimClock
from repro.sim.devices import DeviceModel, nvram_device
from repro.smgr.base import MemoryBlockStore, SingleNodeManager


class MemoryStorageManager(SingleNodeManager):
    """Relation files as in-memory block maps on a single node."""

    name = "memory"

    def __init__(self, clock: SimClock, model: DeviceModel | None = None):
        store = MemoryBlockStore()
        super().__init__("memory0", store, model or nvram_device(), clock)
        #: The raw block map, exposed for white-box tests (page tearing).
        self._files = store._files
