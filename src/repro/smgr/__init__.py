"""User-defined storage managers (the paper's §7).

POSTGRES routes every relation file through a *storage manager switch*
modelled on the UNIX file-system switch: a small table of interface routines
(create / read / write / extend / nblocks / unlink / sync).  Any user can
register a new manager, and — because large objects and Inversion files are
ordinary relations — every new manager automatically supports them (§10).

Managers are built from a node-addressed layer (:mod:`repro.smgr.base`):
raw :class:`BlockStore` containers behind :class:`StorageNode` instances
(each with its own device cost model and failure state), routed by a
:class:`PlacementPolicy`.  The registrations shipped with this
reproduction:

* ``"disk"``   — local magnetic disk, a single-node veneer over OS files;
* ``"memory"`` — non-volatile main memory, single-node;
* ``"worm"``   — a write-once optical-disk jukebox, fronted by a
  magnetic-disk block cache (see :mod:`repro.smgr.cache`);
* ``"sharded"`` — blocks striped across N simulated nodes with R-of-N
  quorum replication, read-repair, and rebalancing
  (:mod:`repro.smgr.sharded`).

Scripted fault injection is not a manager: the switch holds the armed
:class:`~repro.sim.faults.FaultPlan` (``Database.inject_faults``) and
stamps it on every manager it hands out, so — by the same §10 argument —
a plan reaches every relation, large object and Inversion file.
"""

from repro.smgr.base import (BlockStore, DiskBlockStore, HashPlacement,
                             MemoryBlockStore, NodeAddressedManager,
                             PlacementPolicy, RangePlacement,
                             SingleNodeManager, SingleNodePlacement,
                             StorageManager, StorageManagerSwitch,
                             StorageNode)
from repro.smgr.cache import CachedStorageManager
from repro.smgr.disk import DiskStorageManager
from repro.smgr.memory import MemoryStorageManager
from repro.smgr.raw import RawWormDevice
from repro.smgr.sharded import (ShardedStorageManager, sharded_disk_manager,
                                sharded_memory_manager)
from repro.smgr.worm import WormStorageManager

__all__ = [
    "StorageManager",
    "StorageManagerSwitch",
    "BlockStore",
    "MemoryBlockStore",
    "DiskBlockStore",
    "StorageNode",
    "PlacementPolicy",
    "SingleNodePlacement",
    "HashPlacement",
    "RangePlacement",
    "NodeAddressedManager",
    "SingleNodeManager",
    "DiskStorageManager",
    "MemoryStorageManager",
    "WormStorageManager",
    "CachedStorageManager",
    "ShardedStorageManager",
    "sharded_memory_manager",
    "sharded_disk_manager",
    "RawWormDevice",
]
