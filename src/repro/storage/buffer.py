"""Buffer manager: a fixed pool of 8 KB frames with clock-sweep replacement.

Relations never touch storage managers directly; they pin pages here.  The
pool implements the pieces POSTGRES needed for its no-overwrite storage
system:

* **pin/unpin with usage counts** and clock-sweep victim selection;
* **dirty tracking with write-back on eviction**: an index of the dirty
  frames per file, so forcing a file costs what it dirtied, not a walk of
  the pool;
* **force-at-commit**: :meth:`BufferManager.flush_file` writes a relation's
  dirty pages (in block order, a run of consecutive blocks as one device
  request, so device writes stay sequential) — the transaction manager
  calls this at commit instead of keeping a WAL, per the POSTGRES
  storage-system design;
* **lazy file extension**: :meth:`allocate` creates a page in the pool
  without a device write; the device file grows when the page is first
  flushed.  A block below a flushed page that the device lacks and the
  pool no longer holds dirty is zero-filled, so the storage manager never
  sees a gap.
* **checksums**: pages are stamped before a device write and verified on
  read.

The pool charges a small CPU cost per lookup so simulated elapsed times
include buffer-management overhead (the paper's "special purpose program"
baseline explicitly has "no overhead for cache management").

The pool is shared by every concurrent session, so each operation
(lookup/pin, eviction, write-back, decoded-cache probe) runs under one
re-entrant latch.  The latch covers the pool's own bookkeeping; *page
content* mutation between pin and unpin is serialized one level up by the
database's engine latch.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.errors import BufferError_, ChecksumError
from repro.sim.clock import SimClock
from repro.sim.devices import CpuModel
from repro.storage.constants import PAGE_SIZE
from repro.storage.page import SlottedPage
from repro.txn.lockdep import LockdepMutex

if TYPE_CHECKING:  # avoid a circular import with repro.smgr.base
    from repro.smgr.base import StorageManager

#: CPU instructions charged for a pool hit / miss (lookup + header checks).
_HIT_INSTRUCTIONS = 1_000
_MISS_INSTRUCTIONS = 10_000
#: A decoded-object hit skips the pin *and* the re-parse: only a dict probe.
_DECODED_HIT_INSTRUCTIONS = 200

#: Usage count ceiling for the clock sweep (as in PostgreSQL).
_MAX_USAGE = 5

_ZERO_PAGE = bytes(PAGE_SIZE)


def _runs(blocknos: list[int]) -> Iterator[tuple[int, int]]:
    """``(first, last)`` of each maximal run of consecutive block numbers
    in *blocknos*, in list order."""
    start = 0
    for i, blockno in enumerate(blocknos):
        if i + 1 == len(blocknos) or blocknos[i + 1] != blockno + 1:
            yield blocknos[start], blockno
            start = i + 1


@dataclass
class BufferStats:
    """Counters exposed for benchmarks and tests."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    allocations: int = 0
    #: Blocks brought in ahead of demand by :meth:`BufferManager.prefetch`.
    prefetched: int = 0
    #: Pins satisfied by a block that prefetch (not demand) read in.
    prefetch_hits: int = 0
    #: Decoded-object side cache (B-tree nodes): serves without a pin.
    node_cache_hits: int = 0
    node_cache_misses: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class Buffer:
    """One pooled frame holding one page of one relation file."""

    smgr: "StorageManager"
    fileid: str
    blockno: int
    page: SlottedPage
    dirty: bool = False
    pin_count: int = 0
    usage: int = 1
    #: True until the first demand pin when prefetch read this block in.
    prefetched: bool = False

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.smgr.smgr_id, self.fileid, self.blockno)


class BufferManager:
    """Fixed-size pool of page buffers shared by all relations."""

    def __init__(self, pool_size: int = 256,
                 clock: SimClock | None = None,
                 cpu: CpuModel | None = None):
        if pool_size < 1:
            raise BufferError_(f"pool size must be >= 1, got {pool_size}")
        self.pool_size = pool_size
        self.clock = clock
        self.cpu = cpu if (cpu and clock) else None
        self.stats = BufferStats()
        #: Pool latch: page lookup/pin, eviction, write-back, and the
        #: decoded-object cache are shared by every session, so each pool
        #: operation runs atomically.  Re-entrant because flush paths nest
        #: (flush_all → flush_file) and one thread may pin while holding
        #: the latch through a ``page()`` block's nested pins.  Despite
        #: the attribute name this is the *pool* mutex (lock class
        #: ``mutex:buffer``), not the engine latch.
        self._latch = LockdepMutex("mutex:buffer", reentrant=True)
        #: Frames are keyed by the manager's stable ``smgr_id`` (plus file
        #: and block), never ``id(smgr)``: instance ids are reused by the
        #: allocator, so a re-registered manager could have aliased a dead
        #: predecessor's frames and served stale pages.
        self._frames: dict[tuple[str, str, int], Buffer] = {}
        #: The installed frames whose ``dirty`` flag is set, per file:
        #: ``(smgr_id, fileid) -> {blockno: Buffer}``, no empty entries.
        #: Kept at the three places the flag changes (:meth:`unpin`,
        #: :meth:`allocate`, :meth:`_writeback`) and the two that discard
        #: frames unwritten; the only source of a force set.
        self._dirty: dict[tuple[str, str], dict[int, Buffer]] = {}
        self._sweep_order: list[tuple[str, str, int]] = []
        self._hand = 0
        #: Pool-side view of each file's length, >= the device's nblocks.
        self._virtual_nblocks: dict[tuple[str, str], int] = {}
        #: Side cache of *decoded* page contents (B-tree nodes), keyed like
        #: frames.  Writers must update or drop entries on every page
        #: write; the pool drops them with the file.  LRU-bounded so it
        #: can never outgrow the pool it shadows.
        self._decoded: OrderedDict[tuple[str, str, int], object] = \
            OrderedDict()
        self._decoded_limit = max(64, pool_size)
        #: Monotone stamp written into each page header on write-back.  A
        #: page that has ever been written carries a nonzero LSN, which is
        #: what arms checksum verification on later reads (fresh all-zero
        #: pages are exempt) — so a torn device write is detected instead
        #: of served.
        self._next_lsn = 1

    # -- CPU accounting ------------------------------------------------------

    def _charge(self, instructions: int) -> None:
        if self.cpu is not None:
            self.cpu.charge(self.clock, instructions)

    # -- file length ---------------------------------------------------------

    def nblocks(self, smgr: "StorageManager", fileid: str) -> int:
        """Logical length of the file: device blocks plus unflushed tail."""
        with self._latch:
            key = (smgr.smgr_id, fileid)
            if key not in self._virtual_nblocks:
                self._virtual_nblocks[key] = smgr.nblocks(fileid)
            return self._virtual_nblocks[key]

    # -- pin / unpin -----------------------------------------------------------

    def pin(self, smgr: "StorageManager", fileid: str, blockno: int) -> Buffer:
        """Pin the page; reads it from the device on a pool miss."""
        with self._latch:
            key = (smgr.smgr_id, fileid, blockno)
            buf = self._frames.get(key)
            if buf is not None:
                self.stats.hits += 1
                if buf.prefetched:
                    self.stats.prefetch_hits += 1
                    buf.prefetched = False
                self._charge(_HIT_INSTRUCTIONS)
                buf.pin_count += 1
                buf.usage = min(buf.usage + 1, _MAX_USAGE)
                return buf

            self.stats.misses += 1
            self._charge(_MISS_INSTRUCTIONS)
            self._make_room()
            raw = smgr.read_block(fileid, blockno)
            page = SlottedPage(raw)
            if page.lsn != 0 and not page.verify_checksum():
                raise ChecksumError(
                    f"checksum mismatch reading block {blockno} of {fileid!r}")
            buf = Buffer(smgr=smgr, fileid=fileid, blockno=blockno,
                         page=page, pin_count=1)
            self._install(buf)
            return buf

    def rehit(self, buf: Buffer) -> Buffer:
        """Account a repeated pin of a buffer the caller already holds.

        Batched readers that keep one pin while consuming several tuples
        from the same page call this once per extra tuple, performing
        **exactly** the bookkeeping a redundant :meth:`pin` hit would have
        done — same hit counter, same instruction charge, same usage bump
        — minus the frame lookup and pin-count churn.  This is what keeps
        the simulated cost figures byte-identical to the unbatched path.
        """
        with self._latch:
            if buf.pin_count <= 0:
                raise BufferError_(
                    f"rehit of unpinned buffer {buf.fileid!r}:{buf.blockno}")
            self.stats.hits += 1
            if buf.prefetched:
                self.stats.prefetch_hits += 1
                buf.prefetched = False
            self._charge(_HIT_INSTRUCTIONS)
            buf.usage = min(buf.usage + 1, _MAX_USAGE)
            return buf

    def prefetch(self, smgr: "StorageManager", fileid: str,
                 blockno: int, count: int) -> int:
        """Read up to *count* blocks starting at *blockno* into the pool.

        Sequential readahead: the blocks arrive unpinned with low usage so
        they are cheap to evict if the guess was wrong, but a streaming
        reader finds them resident.  Returns how many were actually read.

        Reads are batched per physical device (``smgr.placement_groups``)
        so that a sharded file's readahead visits each node's blocks
        contiguously, and each run of consecutive blocks is one
        ``read_blocks`` request; for a single-device manager the grouping
        degenerates to the plain ascending order.
        """
        with self._latch:
            limit = min(blockno + count, smgr.nblocks(fileid))
            wanted = [block for block in range(max(0, blockno), limit)
                      if (smgr.smgr_id, fileid, block) not in self._frames]
            fetched = 0
            for group in smgr.placement_groups(fileid, wanted):
                for first, last in _runs(group):
                    # One request for the run; each block is charged as it
                    # is drawn, after the room made for it.
                    blocks = smgr.read_blocks(fileid, first, last - first + 1)
                    for block in range(first, last + 1):
                        self._charge(_MISS_INSTRUCTIONS)
                        self._make_room()
                        page = SlottedPage(next(blocks))
                        if page.lsn != 0 and not page.verify_checksum():
                            raise ChecksumError(
                                f"checksum mismatch prefetching block "
                                f"{block} of {fileid!r}")
                        buf = Buffer(smgr=smgr, fileid=fileid, blockno=block,
                                     page=page, pin_count=0, usage=1,
                                     prefetched=True)
                        self._install(buf)
                        fetched += 1
            self.stats.prefetched += fetched
            return fetched

    def allocate(self, smgr: "StorageManager", fileid: str,
                 special_size: int = 0) -> Buffer:
        """Append a fresh, pinned, dirty page to the file (no device I/O)."""
        with self._latch:
            self.stats.allocations += 1
            self._charge(_MISS_INSTRUCTIONS)
            self._make_room()
            blockno = self.nblocks(smgr, fileid)
            self._virtual_nblocks[(smgr.smgr_id, fileid)] = blockno + 1
            buf = Buffer(smgr=smgr, fileid=fileid, blockno=blockno,
                         page=SlottedPage(special_size=special_size),
                         dirty=True, pin_count=1)
            self._install(buf)
            self._dirty.setdefault((smgr.smgr_id, fileid), {})[blockno] = buf
            return buf

    # -- decoded-object side cache ---------------------------------------------

    def get_decoded(self, smgr: "StorageManager", fileid: str,
                    blockno: int) -> object | None:
        """The cached decoded form of a page, or ``None``.

        Access methods that parse page images into richer structures
        (the B-tree's node arrays) register the decoded form here and
        serve repeat reads without re-pinning or re-parsing.  The cache
        is shared pool-wide, so two handles on the same index file see
        one coherent copy.  Callers own coherence on writes: every page
        write must go through :meth:`put_decoded` or
        :meth:`drop_decoded`.
        """
        with self._latch:
            key = (smgr.smgr_id, fileid, blockno)
            obj = self._decoded.get(key)
            if obj is None:
                self.stats.node_cache_misses += 1
                return None
            self._decoded.move_to_end(key)
            self.stats.node_cache_hits += 1
            self._charge(_DECODED_HIT_INSTRUCTIONS)
            return obj

    def put_decoded(self, smgr: "StorageManager", fileid: str,
                    blockno: int, obj: object) -> None:
        """Install (or overwrite) the decoded form of a page."""
        with self._latch:
            key = (smgr.smgr_id, fileid, blockno)
            self._decoded[key] = obj
            self._decoded.move_to_end(key)
            while len(self._decoded) > self._decoded_limit:
                self._decoded.popitem(last=False)

    def drop_decoded(self, smgr: "StorageManager", fileid: str,
                     blockno: int | None = None) -> None:
        """Forget decoded pages of a file (one block, or all of them)."""
        with self._latch:
            if blockno is not None:
                self._decoded.pop((smgr.smgr_id, fileid, blockno), None)
                return
            stale = [key for key in self._decoded
                     if key[0] == smgr.smgr_id and key[1] == fileid]
            for key in stale:
                del self._decoded[key]

    def unpin(self, buf: Buffer, dirty: bool = False) -> None:
        """Release one pin; *dirty* marks the page as modified."""
        with self._latch:
            if buf.pin_count <= 0:
                raise BufferError_(
                    f"unpin of unpinned buffer {buf.fileid!r}:{buf.blockno}")
            buf.pin_count -= 1
            if dirty and not buf.dirty:
                buf.dirty = True
                if self._frames.get(buf.key) is buf:  # not dropped meanwhile
                    self._dirty.setdefault(
                        (buf.smgr.smgr_id, buf.fileid), {})[buf.blockno] = buf

    @contextmanager
    def page(self, smgr: "StorageManager", fileid: str, blockno: int,
             write: bool = False) -> Iterator[SlottedPage]:
        """Pin a page for the duration of a ``with`` block."""
        buf = self.pin(smgr, fileid, blockno)
        try:
            yield buf.page
        finally:
            self.unpin(buf, dirty=write)

    # -- replacement -------------------------------------------------------------

    def _install(self, buf: Buffer) -> None:
        self._frames[buf.key] = buf
        self._sweep_order.append(buf.key)

    def _make_room(self) -> None:
        if len(self._frames) < self.pool_size:
            return
        victim = self._pick_victim()
        if victim is None:
            raise BufferError_(
                f"buffer pool exhausted: all {self.pool_size} pages pinned")
        self._evict(victim)

    def _pick_victim(self) -> Buffer | None:
        """Clock sweep: decrement usage counts until a (0, unpinned) frame."""
        if not self._sweep_order:
            return None
        for _ in range(len(self._sweep_order) * (_MAX_USAGE + 1)):
            if self._hand >= len(self._sweep_order):
                self._hand = 0
            key = self._sweep_order[self._hand]
            buf = self._frames.get(key)
            if buf is None:
                # Stale entry left by drop_file; compact lazily.
                self._sweep_order.pop(self._hand)
                continue
            if buf.pin_count == 0:
                if buf.usage == 0:
                    self._sweep_order.pop(self._hand)
                    return buf
                buf.usage -= 1
            self._hand += 1
        return None

    def _evict(self, buf: Buffer) -> None:
        self.stats.evictions += 1
        if buf.dirty:
            # Write back every dirty page of the victim's file, in block
            # order, while we are positioned on that file anyway — the
            # elevator-style batching any real buffer manager does.  The
            # pages stay cached (clean), so later evictions are free.
            self._writeback_batch(buf.smgr, buf.fileid)
        del self._frames[buf.key]

    def _writeback_batch(self, smgr: "StorageManager", fileid: str,
                         per_device: bool = False) -> int:
        """Write every dirty page of one file; returns how many there were.

        Blocks the device already holds go first, ascending — in per-node
        batches (``smgr.placement_groups``) when *per_device*.  Everything
        from the device's tail up to the highest dirty block follows in
        global block order, holes included, because a manager never takes
        a write that would leave a gap.  Each run of consecutive blocks in
        that order is one request; for a single-device manager the order
        is the plain ascending one.
        """
        dirty = self._dirty.get((smgr.smgr_id, fileid))
        if not dirty:
            return 0
        count, top = len(dirty), max(dirty)
        device_end = smgr.nblocks(fileid)
        order = sorted(blockno for blockno in dirty if blockno < device_end)
        if per_device:
            order = [blockno
                     for group in smgr.placement_groups(fileid, order)
                     for blockno in group]
        order.extend(range(device_end, top + 1))
        for first, last in _runs(order):
            self._writeback(smgr, fileid, first, last)
        return count

    def _writeback(self, smgr: "StorageManager", fileid: str,
                   first: int, last: int) -> None:
        """Write blocks *first* … *last* of one file as one run: the dirty
        pages sealed in write order (nonzero LSN, then checksum), any
        other block as zeros.  Pages turn clean only once the manager has
        taken the whole run."""
        key = (smgr.smgr_id, fileid)
        dirty = self._dirty[key]
        run = [dirty.get(blockno) for blockno in range(first, last + 1)]
        images = []
        for buf in run:
            if buf is None:
                images.append(_ZERO_PAGE)
                continue
            self.stats.writebacks += 1
            buf.page.seal(self._next_lsn)
            self._next_lsn += 1
            images.append(buf.page.buf)
        smgr.write_blocks(fileid, first, images)
        for buf in run:
            if buf is not None:
                buf.dirty = False
                del dirty[buf.blockno]
        if not dirty:
            del self._dirty[key]

    # -- flushing ---------------------------------------------------------------

    def flush_file(self, smgr: "StorageManager", fileid: str) -> int:
        """Write all dirty pages of one file, then sync it.

        This is the force-at-commit path.  Returns the number of pages
        written.  The sync is unconditional: a file with no dirty pages
        left may still have unsynced device writes from eviction
        write-backs, and skipping the sync for it would leave a committed
        transaction's pages in the OS cache.
        """
        with self._latch:
            written = self._writeback_batch(smgr, fileid, per_device=True)
            smgr.sync(fileid)
            return written

    def flush_all(self) -> int:
        """Write every dirty page in the pool (checkpoint)."""
        with self._latch:
            written = 0
            for (_smgr_id, fileid), frames in sorted(
                    self._dirty.items(), key=lambda kv: kv[0][1]):
                smgr = next(iter(frames.values())).smgr
                written += self.flush_file(smgr, fileid)
            return written

    def drop_file(self, smgr: "StorageManager", fileid: str) -> None:
        """Discard (without writing) all buffered pages of a dropped file."""
        with self._latch:
            stale = [key for key, buf in self._frames.items()
                     if buf.smgr is smgr and buf.fileid == fileid]
            for key in stale:
                del self._frames[key]
            self._dirty.pop((smgr.smgr_id, fileid), None)
            self._virtual_nblocks.pop((smgr.smgr_id, fileid), None)
            self.drop_decoded(smgr, fileid)

    def pinned_count(self) -> int:
        """Number of frames with at least one pin (should be 0 at rest)."""
        with self._latch:
            return sum(1 for buf in self._frames.values()
                       if buf.pin_count > 0)

    def invalidate_all(self) -> None:
        """Flush everything, then empty the pool (cold-start benchmarks)."""
        with self._latch:
            if self.pinned_count():
                raise BufferError_("cannot invalidate while pages are pinned")
            self.flush_all()
            self._frames.clear()
            self._dirty.clear()
            self._sweep_order.clear()
            self._decoded.clear()
            self._hand = 0
