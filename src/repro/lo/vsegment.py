"""Implementation 4: variable-length segments (§6.4).

    segment_ndx (locn, compressed_len, byte_pointer)

A v-segment object is a **segment index** mapping logical byte ranges to
compressed variable-length segments, whose contents are "concatenated
end-to-end and stored as a large ADT, chunked into 8K blocks using the
fixed-block storage scheme f-chunk".  Consequences, exactly as the paper
lists them:

* the unit of compression is a segment, not an 8 KB block, so **any**
  reduction in size is reflected in the stored object (unlike f-chunk,
  where savings under 50 % are wasted page space);
* the segment index is an ordinary no-overwrite class, so **time travel
  covers the index**, and segment contents are never overwritten (the
  store only grows), so **time travel covers the data** too;
* reads pay an extra hop — B-tree on ``locn`` → segment-index record →
  byte store — which is the ~25 % random-read penalty of §9.2.  The hop
  is a floor probe: a read fetches only the segment records it returns.

Overwrites never touch old bytes: the new data is compressed into fresh
segments appended to the store, and the affected index records are
replaced (old versions surviving for history).  Partially-overlapped edge
segments are merged read-modify-write style.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.access.scan import IndexRangeScan
from repro.access.tuples import HeapTuple
from repro.compress.base import Compressor
from repro.errors import LargeObjectError
from repro.lo.chunked import ChunkedObject
from repro.lo.fchunk import FChunkObject
from repro.storage.constants import CHUNK_PAYLOAD
from repro.txn.manager import Transaction
from repro.txn.snapshot import Snapshot

if TYPE_CHECKING:
    from repro.db import Database

#: Upper bound on one segment's uncompressed length: a record starting
#: further below an offset cannot reach it, which bounds the write-lock
#: padding and how far the overlap query's floor probe can walk down.
SEGMENT_MAX = 65536

#: Write range locks cover the mutated span padded by SEGMENT_MAX on both
#: sides (an edge segment that a write must merge read-modify-write style
#: starts within SEGMENT_MAX of the window, so two writes that would both
#: touch it always hold overlapping locks) and are rounded out to this
#: grain, bounding lock-manager trips for sequential loads.
LOCK_GRAIN_BYTES = 16 * SEGMENT_MAX

#: Decompressed segments kept per descriptor (up to ~256 KB).  Keyed by
#: the record's ``(xmin, byte_pointer)``: segment contents are immutable
#: and the store's append cursor never hands out an extent twice, so the
#: pair names one segment's bytes for good.  Its TID does not: a sweep
#: frees the slot for reuse and re-homes the record in the archive under
#: another (docs/invariants.md).
SEGMENT_CACHE_ENTRIES = 4


#: Above every chunk seqno (an ``int4``): where a byte store's floor
#: walk for its last chunk starts.
_LAST_SEQNO = 2**31 - 1


def store_size(db: "Database", index, relation,
               snapshot: Snapshot) -> int:
    """A byte store's size as of *snapshot*: where its last visible chunk
    ends.  One newest-first floor walk down the chunk index (``index``
    over ``relation``) — the walk a size-row probe is — so it costs one
    descent and one heap fetch however often the tail chunk was
    replaced.  A travelling snapshot's last chunk may be in the archive,
    so its walk finishes that key's run and merges the archive in."""
    scan = IndexRangeScan(db, index, relation, None, _LAST_SEQNO)
    if snapshot.as_of is None:
        last = scan.first(snapshot)
    else:
        found = scan.visible_from_floor(snapshot, _LAST_SEQNO)
        last = found[-1][1] if found else None
    if last is None:
        return 0
    return last.values[0] * CHUNK_PAYLOAD + len(last.values[1])


def segment_class_name(oid: int) -> str:
    """Name of the per-object segment-index class (``segment_ndx``)."""
    return f"lo_{oid}_seg"


def segment_index_name(oid: int) -> str:
    """Name of the B-tree on segment ``locn``."""
    return f"lo_{oid}_segidx"


class ByteStore(FChunkObject):
    """A v-segment's byte store: an uncompressed f-chunk object that keeps
    no ``pg_largeobject`` size row.

    The store only grows, and a segment record is what publishes each
    write, so a size row would only repeat where the last chunk ends
    (:func:`store_size`).  Only a writer asks for the size, and only to
    anchor the manager's append cursor and its own absence baseline, so
    once the cursor is anchored the writer takes the cursor instead: it
    is that end plus the extents handed out since, and no chunk at or
    past it exists.  Every committed segment's extent lies in committed
    chunks, so an anchor at that end hands no extent out twice, across
    crashes too.  :meth:`flush` writes the buffered chunk and no row.
    """

    def _committed_size(self) -> int:
        if self._committed is None:
            end = self.db.lo.store_cursor(self.oid)
            if end is None:   # the first writer since the database opened
                end = store_size(self.db, self.index, self.relation,
                                 self._snapshot())
            self._committed = end
        return self._committed

    def flush(self) -> None:
        if self._closed or self._pending_size is None:
            return
        self._flush_data()
        if self._unflushed:
            # The transaction's other descriptors of this store gate on
            # the count a size-row rewrite bumps: their tail and absence
            # baseline are stale now.
            self._own_writes[0] += 1
            self._unflushed = False


class VSegmentObject(ChunkedObject):
    """An open v-segment large object."""

    impl = "vsegment"
    _unit = "segment"

    def __init__(self, db: "Database", oid: int, compressor: Compressor,
                 store: ByteStore, txn: Transaction | None,
                 writable: bool, as_of: float | None = None):
        super().__init__(db, oid, compressor, txn, writable, as_of,
                         segment_class_name(oid), segment_index_name(oid))
        self.store = store
        # Descriptor-level LRU of decompressed segments (see
        # SEGMENT_CACHE_ENTRIES for why its keys never go stale — and
        # why there is no ``_committed_moved`` here).
        self._segment_cache: OrderedDict[tuple, bytes] = OrderedDict()

    # -- protocol hooks -------------------------------------------------------------

    def _lock_bounds(self, start: int, end: int) -> tuple[int, int]:
        grain = LOCK_GRAIN_BYTES
        return ((max(0, start - SEGMENT_MAX) // grain) * grain,
                ((max(end, start + 1) + SEGMENT_MAX + grain - 1)
                 // grain) * grain)

    def _flush_data(self) -> None:
        self.store.flush()

    def _close_data(self) -> None:
        self.store.close()

    # -- segment lookup --------------------------------------------------------------

    def _segments_overlapping(self, start: int, end: int) -> list[HeapTuple]:
        """Visible segment records intersecting ``[start, end)``, sorted:
        the last one starting at or before *start* (the floor) and those
        starting inside the window — visible segments of one snapshot
        are pairwise disjoint (docs/invariants.md)."""
        scan = IndexRangeScan(self.db, self.index, self.relation,
                              max(0, start - SEGMENT_MAX), end - 1,
                              unique=True, anomaly=self._anomaly)
        found = [tup for _key, tup
                 in scan.visible_from_floor(self._snapshot(), start)]
        if found and found[0].values[0] + found[0].values[1] <= start:
            del found[0]  # the floor ends in a hole before the window
        return found

    def _segment_bytes(self, record: HeapTuple) -> bytes:
        """Decompressed contents of one segment (LRU-cached)."""
        _locn, length, clen, ptr = record.values
        key = (record.xmin, ptr)
        cached = self._segment_cache.get(key)
        if cached is not None:
            self._cache_stats.segment_cache_hits += 1
            self._segment_cache.move_to_end(key)
            return cached
        self._cache_stats.segment_cache_misses += 1
        # _read_span, not _read_at: a record visible to our snapshot
        # proves its store extent exists, even when this (writable)
        # store descriptor's pending size lags another writer's
        # committed appends.  It skips the size row, so the epoch gate
        # ``_size`` would have run is run here: the store's cached tail
        # chunk may predate the append that holds this segment.
        self.store._refresh_committed()
        image = self.store._read_span(ptr, ptr + clen)
        data = self.compressor.decompress(image)
        if len(data) != length:
            raise LargeObjectError(
                f"large object {self.oid}: segment at {record.values[0]} "
                f"decompressed to {len(data)} bytes, index says {length}")
        self._segment_cache[key] = data  # a miss: lands at the MRU end
        while len(self._segment_cache) > SEGMENT_CACHE_ENTRIES:
            self._segment_cache.popitem(last=False)
        return data

    # -- reads ---------------------------------------------------------------------------

    def _read_at(self, offset: int, nbytes: int) -> bytes:
        size = self._size()
        if offset >= size or nbytes <= 0:
            return b""
        end = min(offset + nbytes, size)
        records = self._segments_overlapping(offset, end)
        if len(records) == 1:
            # Fast path: one segment fully covers the window — slice it
            # directly instead of splicing through a zero-filled buffer.
            locn, length, _clen, _ptr = records[0].values
            if locn <= offset and locn + length >= end:
                data = self._segment_bytes(records[0])
                return data[offset - locn:end - locn]
        out = bytearray(end - offset)  # holes read as zeros
        for record in records:
            locn, length, _clen, _ptr = record.values
            data = self._segment_bytes(record)
            lo = max(offset, locn)
            hi = min(end, locn + length)
            out[lo - offset:hi - offset] = data[lo - locn:hi - locn]
        return bytes(out)

    # -- writes ---------------------------------------------------------------------------

    def _write_at(self, offset: int, data: bytes) -> None:
        self.txn.require_active()
        # Lock a span covering the write *and* any gap it will zero-fill
        # from the current EOF (which can shrink while the lock request
        # waits out a committing truncate — hence the retry helper).
        self._lock_from_eof(len(data), offset)
        size = self._size()
        if offset > size:
            # Zero-fill the gap so the object is dense.
            data = bytes(offset - size) + data
            offset = size
        end = offset + len(data)

        if offset == size:
            # Pure append: every stored segment lies inside [0, size),
            # so the overlap scan cannot find anything — skip it.
            overlapped: list[HeapTuple] = []
        else:
            overlapped = self._segments_overlapping(offset, end)
        new_start = offset
        head = tail = b""
        if overlapped:
            first = overlapped[0]
            if first.values[0] < offset:
                head = self._segment_bytes(first)[:offset - first.values[0]]
                new_start = first.values[0]
            last = overlapped[-1]
            last_end = last.values[0] + last.values[1]
            if last_end > end:
                tail = self._segment_bytes(last)[end - last.values[0]:]
        for record in overlapped:
            self.db.delete(self.txn, self.relation.name, record.tid)

        merged = head + data + tail
        self._append_segments(new_start, merged)
        self._note_write(end)

    def _append_segments(self, locn: int, data: bytes) -> None:
        """Compress *data* into fresh segments appended to the store.

        The store "only grows", but its EOF as seen by this descriptor
        is stale under concurrency — two writers resolving ``seek(0,
        SEEK_END)`` to the same committed size would interleave their
        bytes.  The manager's append cursor hands out disjoint extents
        instead (for a single writer it degenerates to exactly the old
        EOF, byte-for-byte); the store's own chunk-range locks then cover
        the reserved extent via the ordinary write path.
        """
        for start in range(0, len(data), SEGMENT_MAX):
            piece = data[start:start + SEGMENT_MAX]
            image = self.compressor.compress(piece)
            ptr = self.db.lo.reserve_store_extent(
                self.store.oid, len(image),
                eof_hint=self.store.seek(0, 2))
            self.store.seek(ptr)
            self.store.write(image)
            self.db.insert(self.txn, self.relation.name,
                           (locn + start, len(piece), len(image), ptr))

    def _truncate(self, size: int) -> None:
        self.txn.require_active()
        self._lock_whole()
        current = self._size()
        if size >= current:
            self._note_truncate(size)  # sparse: reads zero-fill holes
            return
        # Delete every segment record past the cut; re-append the trimmed
        # prefix of the boundary segment as a fresh segment.  The store
        # only grows, so history stays intact.
        for record in self._segments_overlapping(size, current):
            locn = record.values[0]
            keep = b""
            if locn < size:
                keep = self._segment_bytes(record)[:size - locn]
            self.db.delete(self.txn, self.relation.name, record.tid)
            if keep:
                self._append_segments(locn, keep)
        self._note_truncate(size)
