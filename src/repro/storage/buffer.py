"""Buffer manager: a fixed pool of 8 KB frames with clock-sweep replacement.

Relations never touch storage managers directly; they pin pages here.  The
pool implements the pieces POSTGRES needed for its no-overwrite storage
system:

* **pin/unpin with usage counts** and clock-sweep victim selection;
* **dirty tracking with write-back on eviction**: an index of the dirty
  frames per file, so forcing a file costs what it dirtied, not a walk of
  the pool;
* **force-at-commit**: :meth:`BufferManager.force` writes the dirty pages
  of the files a transaction touched (in block order, a run of consecutive
  blocks as one device request, so device writes stay sequential) and
  syncs each file, one storage-manager call per manager — the transaction
  manager calls this at commit instead of keeping a WAL, per the POSTGRES
  storage-system design;
* **lazy file extension**: :meth:`allocate` creates a page in the pool
  (:meth:`extend` installs a run of filled ones) without a device write;
  the device file grows when the page is first flushed.  Such a frame is
  dirty until a write-back takes it, so a file's dirty tail always runs
  unbroken from the device's end and a force never leaves a gap.
* **checksums**: a force seals its batch in C-level passes before the
  device write (a cost per file, not per page); reads verify.

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

from bisect import bisect_left
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, repeat
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Iterator

from repro.errors import BufferError_, ChecksumError
from repro.sim.clock import SimClock
from repro.sim.devices import CpuModel
from repro.storage.page import SlottedPage, intact_prefix, seal
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

#: A frame's page image; the endless arguments that turn a batch clean.
_PAGE_BUF, _DIRTY, _FALSE = attrgetter("page.buf"), repeat("dirty"), repeat(False)


def block_runs(blocknos: list[int], items: list) -> list:
    """``(first, run)`` of each maximal run of consecutive block numbers
    in the ascending list *blocknos*, *run* the run's share of *items*
    (parallel to *blocknos*): one no wider than its length is one run,
    *items* whole, found without a walk."""
    if blocknos and blocknos[-1] - blocknos[0] < len(blocknos):
        return [(blocknos[0], items)]
    runs, end = [], None
    for blockno, item in zip(blocknos, items):
        if blockno != end:
            run: list = []
            runs.append((blockno, run))
        run.append(item)
        end = blockno + 1
    return runs


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


class Buffer:
    """One pooled frame holding one page of one relation file."""

    __slots__ = ("smgr", "fileid", "blockno", "key", "page", "dirty",
                 "pin_count", "usage", "prefetched")

    def __init__(self, smgr: "StorageManager", fileid: str, blockno: int,
                 page: SlottedPage, dirty: bool = False, pin_count: int = 0,
                 usage: int = 1, prefetched: bool = False):
        self.smgr = smgr
        self.fileid = fileid
        self.blockno = blockno
        self.key = (smgr.smgr_id, fileid, blockno)   # built once
        self.page = page
        self.dirty = dirty
        self.pin_count = pin_count
        self.usage = usage
        #: True until the first demand pin when prefetch read this block in.
        self.prefetched = prefetched


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
        #: (flush_all → force) and one thread may pin while holding
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
        #: :meth:`extend` — :meth:`allocate` among its callers —
        #: :meth:`_written`) and :meth:`drop_file`, which discards
        #: frames unwritten; the only source of a force set.
        self._dirty: dict[tuple[str, str], dict[int, Buffer]] = {}
        #: The clock: every frame, in install order, and the sweep's hand.
        self._ring: list[Buffer] = []
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
        #: Each B-tree file's ``(root, height)`` as its meta page was last
        #: read or written (``BTree._read_meta`` / ``_write_meta``), keyed
        #: ``(smgr_id, fileid)``: every handle on a file descends from the
        #: one root here.  Dropped with the file and when the pool is
        #: emptied, so a cold start re-reads page 0 as it always did.
        self.btree_roots: dict[tuple[str, str], tuple[int, int]] = {}

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
                if buf.usage < _MAX_USAGE:
                    buf.usage += 1
                return buf

            self.stats.misses += 1
            self._charge(_MISS_INSTRUCTIONS)
            self._make_room()
            raw = smgr.read_block(fileid, blockno)
            if not intact_prefix([raw]):
                raise ChecksumError(f"checksum mismatch reading block "
                                    f"{blockno} of {fileid!r}")
            buf = Buffer(smgr, fileid, blockno, SlottedPage(raw), pin_count=1)
            self._frames[key] = buf
            self._ring.append(buf)
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
            if buf.usage < _MAX_USAGE:
                buf.usage += 1
            return buf

    def prefetch(self, smgr: "StorageManager", fileid: str,
                 blockno: int, count: int) -> int:
        """Read up to *count* blocks starting at *blockno* into the pool.

        Sequential readahead: the blocks arrive unpinned with low usage so
        they are cheap to evict if the guess was wrong, but a streaming
        reader finds them resident.  Returns how many were actually read.

        Each run of consecutive blocks is one ``read_blocks`` request,
        read, charged and checksummed whole; its frames are then installed
        (and counted) one at a time, each after the room made for it, up
        to the first torn block, which raises.
        """
        with self._latch:
            frames, ring, stats = self._frames, self._ring, self.stats
            charge, make_room = self._charge, self._make_room
            limit = min(blockno + count, smgr.nblocks(fileid))
            wanted = [block for block in range(max(0, blockno), limit)
                      if (smgr.smgr_id, fileid, block) not in frames]
            for first, run in block_runs(wanted, wanted):
                raws = smgr.read_blocks(fileid, first, len(run))
                torn = first + intact_prefix(raws)
                for block, raw in enumerate(raws, first):
                    charge(_MISS_INSTRUCTIONS)
                    make_room()
                    if block == torn:
                        raise ChecksumError(f"checksum mismatch reading "
                                            f"block {block} of {fileid!r}")
                    buf = Buffer(smgr, fileid, block, SlottedPage(raw),
                                 prefetched=True)
                    frames[buf.key] = buf
                    ring.append(buf)
                    stats.prefetched += 1
            return len(wanted)

    def allocate(self, smgr: "StorageManager", fileid: str) -> Buffer:
        """Append a fresh, pinned, dirty page to the file (no device I/O):
        :meth:`extend` by one empty page, pinned."""
        with self._latch:
            blockno = self.nblocks(smgr, fileid)
            self.extend(smgr, fileid, [SlottedPage()])
            buf = self._frames[(smgr.smgr_id, fileid, blockno)]
            buf.pin_count = 1
            return buf

    def extend(self, smgr: "StorageManager", fileid: str,
               pages: list[SlottedPage]) -> None:
        """Append *pages*, already filled, to the file as dirty, unpinned
        frames (no device I/O).

        One page at a time, in order: counted as an allocation, charged
        a miss, then installed after the room made for it — so victim
        choice and the clock are what one call per page would give.
        """
        with self._latch:
            key = (smgr.smgr_id, fileid)
            blockno = self.nblocks(smgr, fileid)
            stats, frames, ring = self.stats, self._frames, self._ring
            try:
                for page in pages:
                    stats.allocations += 1
                    self._charge(_MISS_INSTRUCTIONS)
                    self._make_room()
                    buf = Buffer(smgr, fileid, blockno, page, dirty=True)
                    frames[buf.key] = buf
                    ring.append(buf)
                    # Not hoisted: the room just made may have written
                    # this file back, which deletes its entry.
                    self._dirty.setdefault(key, {})[blockno] = buf
                    blockno += 1
            finally:
                self._virtual_nblocks[key] = blockno

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

    def _make_room(self) -> None:
        """If the pool is full, evict the first unpinned frame at usage 0
        the clock sweep meets round the ring from the hand, decrementing
        each unpinned frame it passes.  A dirty victim's whole file is
        written back first, in block order; those pages stay cached."""
        ring = self._ring
        if len(ring) < self.pool_size:
            return
        hand = self._hand
        for _ in range(_MAX_USAGE + 2):  # lap's rest, then _MAX_USAGE + 1 laps
            for hand, buf in enumerate(islice(ring, hand, None), hand):
                if not buf.pin_count:
                    if not buf.usage:
                        if buf.dirty:  # a refused write evicts nothing
                            self._writeback_batch(buf.smgr, buf.fileid)
                        del ring[hand]
                        self._hand = hand
                        self.stats.evictions += 1
                        del self._frames[buf.key]
                        return
                    buf.usage -= 1
            hand = 0
        raise BufferError_(
            f"buffer pool exhausted: all {self.pool_size} pages pinned")

    def _writeback_batch(self, smgr: "StorageManager", fileid: str) -> int:
        """Write every dirty page of an eviction victim's file, unsynced
        (the one-file :meth:`force`, less the sync); returns how many."""
        dirty = self._dirty[smgr.smgr_id, fileid]
        blocks = sorted(dirty)
        pages = [*map(_PAGE_BUF, map(dirty.__getitem__, blocks))]
        seal(pages, self._next_lsn)
        self._next_lsn += len(pages)
        smgr.write_runs(fileid, block_runs(blocks, pages))
        self._written(smgr, fileid)
        return len(pages)

    # -- flushing ---------------------------------------------------------------

    def force(self, files) -> int:
        """Force-at-commit: write each ``(smgr, fileid)`` of *files* and
        sync it, every page sealed first in one pass and each manager's
        files in one :meth:`~repro.smgr.base.StorageManager.force` call,
        in the order given (docs/invariants.md, "Force"); returns the
        pages written."""
        with self._latch:
            index, forces, images = self._dirty, {}, []
            for smgr, fileid in files:
                dirty, runs = index.get((smgr.smgr_id, fileid)), []
                if dirty:
                    blocks = sorted(dirty)
                    pages = [*map(_PAGE_BUF, map(dirty.__getitem__, blocks))]
                    images += pages
                    runs = block_runs(blocks, pages)
                elif not smgr.exists(fileid):
                    continue
                forces.setdefault(smgr, []).append((fileid, runs))
            seal(images, self._next_lsn)
            self._next_lsn += len(images)
            for smgr, batch in forces.items():
                smgr.force(batch, self._written)
            return len(images)

    def _written(self, smgr: "StorageManager", fileid: str) -> None:
        """The write of *fileid* on *smgr* returned: its pages turn clean."""
        frames = self._dirty.pop((smgr.smgr_id, fileid), {})
        any(map(setattr, frames.values(), _DIRTY, _FALSE))
        self.stats.writebacks += len(frames)

    def flush_all(self) -> int:
        """Force every file with dirty pages (checkpoint), by file id."""
        with self._latch:
            return self.force(sorted(
                ((next(iter(frames.values())).smgr, fileid)
                 for (_smgr_id, fileid), frames in self._dirty.items()),
                key=itemgetter(1)))

    def drop_file(self, smgr: "StorageManager", fileid: str) -> None:
        """Discard (without writing) all buffered pages of a dropped file;
        the hand moves back by those of its frames it had passed."""
        with self._latch:
            ring = self._ring
            gone = [at for at, buf in enumerate(ring)
                    if buf.smgr is smgr and buf.fileid == fileid]
            for at in gone:
                del self._frames[ring[at].key]
            ring[:] = [buf for buf in ring if buf.key in self._frames]
            self._hand -= bisect_left(gone, self._hand)
            self._dirty.pop((smgr.smgr_id, fileid), None)
            self._virtual_nblocks.pop((smgr.smgr_id, fileid), None)
            self.btree_roots.pop((smgr.smgr_id, fileid), None)
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
            self.flush_all()    # which empties the dirty index
            self._frames.clear()
            self._ring.clear()
            self._decoded.clear()
            self.btree_roots.clear()
            self._hand = 0
