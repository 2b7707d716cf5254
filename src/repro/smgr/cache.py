"""Magnetic-disk block cache and staging area in front of a WORM manager.

§9.3 of the paper: "the WORM storage manager in POSTGRES maintains a
magnetic disk cache of optical disk blocks."  The disk in front of the
jukebox plays three roles:

* **read cache** — a hit costs a magnetic-disk access instead of a jukebox
  access, which is what makes f-chunk "dramatically superior" to the raw
  device on random and 80/20-locality reads (Figure 3);
* **write staging** — heap pages are rewritten many times while they fill
  (new tuples, xmax stamps), which write-once media cannot absorb.  Writes
  land on the cache disk and stay there — the disk is stable storage, so
  :meth:`sync` (the force-at-commit path) is satisfied by the cache itself;
* **archival source** — :meth:`migrate` / :meth:`sync_all` write each
  staged block to the write-once media exactly once, in block order.
  After migration the write-once rule applies: a further write raises
  :class:`~repro.errors.WriteOnceViolation` from the backing manager,
  exactly as a real WORM would refuse.

The hot set lives in an LRU of ``capacity_blocks``; blocks evicted while
still unarchived spill to an unbounded *staged* area that models the rest
of the magnetic disk (reads from it cost disk accesses, not jukebox ones).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import StorageManagerError
from repro.sim.clock import SimClock
from repro.sim.devices import DeviceModel, DevicePort, magnetic_disk_device
from repro.smgr.base import StorageManager
from repro.storage.constants import PAGE_SIZE


class _CachedBlock:
    __slots__ = ("data", "dirty")

    def __init__(self, data: bytes, dirty: bool):
        self.data = data
        self.dirty = dirty


class CachedStorageManager(StorageManager):
    """Write-staging LRU disk cache wrapped around another storage manager."""

    def __init__(self, base: StorageManager, clock: SimClock,
                 capacity_blocks: int = 1024,
                 cache_model: DeviceModel | None = None):
        model = cache_model or magnetic_disk_device()
        super().__init__(model, clock)
        self.name = base.name
        self.base = base
        self.capacity_blocks = capacity_blocks
        self._lru: OrderedDict[tuple[str, int], _CachedBlock] = OrderedDict()
        #: Unarchived blocks evicted from the LRU (still on the cache disk).
        self._staged: dict[tuple[str, int], bytes] = {}
        #: Cache-side view of each file's length (>= the base's).
        self._nblocks: dict[str, int] = {}
        self.cache_port = DevicePort(model, clock)
        self.hits = 0
        self.misses = 0
        self.migrations = 0
        #: Cache-file slot per key, assigned in arrival order so that
        #: streaming inserts write the cache disk sequentially.
        self._slots: dict[tuple[str, int], int] = {}
        self._next_slot = 0

    # -- cache internals ----------------------------------------------------

    def _cache_offset(self, key: tuple[str, int]) -> int:
        """Cache-file offset for cost charging (arrival order)."""
        slot = self._slots.get(key)
        if slot is None:
            slot = self._next_slot
            self._next_slot += 1
            self._slots[key] = slot
        return slot * PAGE_SIZE

    def _charge_cache(self, key: tuple[str, int], is_write: bool) -> None:
        offset = self._cache_offset(key)
        if is_write:
            self.cache_port.charge_write("worm-cache", offset, PAGE_SIZE)
        else:
            self.cache_port.charge_read("worm-cache", offset, PAGE_SIZE)

    def _insert(self, key: tuple[str, int], data: bytes,
                dirty: bool) -> None:
        block = self._lru.get(key)
        if block is not None:
            self._lru.move_to_end(key)
            block.data = data
            block.dirty = block.dirty or dirty
        else:
            self._lru[key] = _CachedBlock(data, dirty)
        self._charge_cache(key, is_write=True)
        while len(self._lru) > self.capacity_blocks:
            victim_key, victim = self._lru.popitem(last=False)
            if victim.dirty:
                # Still unarchived: spill to the staging area (it is
                # already on the cache disk — no extra charge).
                self._staged[victim_key] = victim.data

    def invalidate(self, fileid: str) -> None:
        """Drop *clean* cached blocks of *fileid* (cold-start helper).

        Dirty and staged blocks are the only copy of unarchived data and
        are kept.
        """
        stale = [key for key, block in self._lru.items()
                 if key[0] == fileid and not block.dirty]
        for key in stale:
            del self._lru[key]

    # -- file lifecycle ---------------------------------------------------------

    def create(self, fileid: str) -> None:
        self.base.create(fileid)
        self._nblocks.setdefault(fileid, self.base.nblocks(fileid))

    def exists(self, fileid: str) -> bool:
        return self.base.exists(fileid)

    def unlink(self, fileid: str) -> None:
        for key in [k for k in self._lru if k[0] == fileid]:
            del self._lru[key]
        for key in [k for k in self._staged if k[0] == fileid]:
            del self._staged[key]
        self._nblocks.pop(fileid, None)
        self.base.unlink(fileid)

    def nblocks(self, fileid: str) -> int:
        known = self._nblocks.get(fileid)
        if known is None:
            known = self.base.nblocks(fileid)
            self._nblocks[fileid] = known
        return known

    def sync(self, fileid: str) -> None:
        """Force-at-commit: satisfied by the (stable) cache disk.

        Data moves to the write-once media only at archive time
        (:meth:`migrate` / :meth:`sync_all`), as in the POSTGRES jukebox
        manager.
        """
        if self.fault_plan is not None:
            self._inject("sync", fileid)
        self.nblocks(fileid)  # validate existence

    # -- archival ------------------------------------------------------------------

    def migrate(self, fileid: str) -> int:
        """Write every unarchived block of *fileid* to the media, in
        block order; returns the number migrated."""
        base_blocks = self.base.nblocks(fileid)
        total = self.nblocks(fileid)
        migrated = 0
        for blockno in range(base_blocks, total):
            key = (fileid, blockno)
            staged = self._staged.pop(key, None)
            if staged is not None:
                data = staged
                block = self._lru.get(key)
                if block is not None:
                    block.dirty = False
            else:
                block = self._lru.get(key)
                if block is None:
                    raise StorageManagerError(
                        f"unarchived block {blockno} of {fileid!r} "
                        f"lost from the cache")
                data = block.data
                block.dirty = False
            self.base.write_block(fileid, blockno, data)
            migrated += 1
        self.migrations += migrated
        return migrated

    def sync_all(self) -> None:
        """Archive every file's unarchived blocks (checkpoint to media)."""
        for fileid in sorted(self._nblocks):
            if self.base.exists(fileid):
                self.migrate(fileid)

    # -- block I/O -------------------------------------------------------------------

    def read_block(self, fileid: str, blockno: int) -> bytearray:
        if self.fault_plan is not None:
            self._inject("read", fileid, blockno)
        key = (fileid, blockno)
        block = self._lru.get(key)
        if block is not None:
            self.hits += 1
            self._lru.move_to_end(key)
            self._charge_cache(key, is_write=False)
            return bytearray(block.data)
        staged = self._staged.get(key)
        if staged is not None:
            # On the cache disk, outside the hot set: disk-speed read.
            self.hits += 1
            self._charge_cache(key, is_write=False)
            return bytearray(staged)
        self.misses += 1
        data = self.base.read_block(fileid, blockno)
        self._insert(key, bytes(data), dirty=False)
        return data

    def write_block(self, fileid: str, blockno: int, data: bytes) -> None:
        if self.fault_plan is not None:
            self._inject("write", fileid, blockno, data)
        self._check_block(data)
        current = self.nblocks(fileid)
        base_blocks = self.base.nblocks(fileid)
        if blockno < base_blocks:
            # Already on write-once media: let the base refuse loudly.
            self.base.write_block(fileid, blockno, data)
            return
        if blockno > current:
            raise StorageManagerError(
                f"write would leave a hole in {fileid!r}: block {blockno} "
                f"of {current}")
        key = (fileid, blockno)
        if key in self._staged:
            self._staged[key] = bytes(data)
            self._charge_cache(key, is_write=True)
        else:
            self._insert(key, bytes(data), dirty=True)
        self._nblocks[fileid] = max(current, blockno + 1)

    # -- introspection ---------------------------------------------------------

    def hit_rate(self) -> float:
        """Fraction of reads satisfied from the cache disk."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, int]:
        stats = self.base.stats()
        stats.update(cache_hits=self.hits, cache_misses=self.misses,
                     cached_blocks=len(self._lru),
                     staged_blocks=len(self._staged),
                     migrations=self.migrations)
        return stats
