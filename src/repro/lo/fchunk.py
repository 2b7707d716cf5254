"""Implementation 3: fixed-length data chunks (§6.3).

    create P (sequence-number = int4, data = byte[8000])

Each large object gets its own POSTGRES class of 8000-byte chunks with a
B-tree index on the sequence number.  Because chunks are ordinary tuples in
an ordinary class:

* the object is **protected** (DBMS-owned storage),
* **transactions** come for free (no-overwrite versioning + force at
  commit),
* **time travel** comes for free (old chunk versions survive a replace),
* an optional conversion routine compresses each chunk independently, so
  only the chunks covering a requested byte range are ever uncompressed
  ("just-in-time conversion").

The paper's space caveat is emergent here, not hard-coded: one
uncompressed chunk record exactly fills an 8 KB page, so a compressed
chunk only saves space if **two** compressed records fit on one page —
i.e. the compressor must at least halve the chunk (§6.3, Figure 1).

Write buffering
---------------
A writable descriptor keeps the chunk it is currently writing in memory
and materializes it as a tuple version only when the write moves to a
different chunk, the descriptor is closed, or the transaction commits
(via a before-commit hook).  This is semantically transparent — versions
are visible at commit granularity, so coalescing intra-transaction
rewrites of the same chunk changes nothing a reader can observe — and it
is what keeps a sequential load from writing every chunk twice.  At most
one writable descriptor per object per transaction should be open at a
time.

A chunk that one ``write`` covers wholly is never buffered: with the
call's other such chunks and the outgoing dirty buffer it reaches the
class as one *run* (``_flush_run``: ascending seqnos, one version each;
absent chunks as one ``insert_many``).  Only a whole chunk opens a run;
nothing is loaded from the class past an unflushed one (docs/invariants.md).

The object's byte size lives in the ``pg_largeobject`` system class, where
no-overwrite versioning makes it roll back on abort and travel in time
along with the chunks.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.access.scan import IndexProbe, IndexRangeScan, fetch_visible
from repro.access.tuples import TID, HeapTuple
from repro.compress.base import Compressor
from repro.lo.chunked import ChunkedObject
from repro.storage.constants import CHUNK_PAYLOAD
from repro.txn.manager import Transaction
from repro.txn.snapshot import Snapshot

if TYPE_CHECKING:
    from repro.db import Database


#: Decompressed chunks kept per descriptor (~64 KB): enough that
#: re-reads and short backward seeks never re-inflate, small enough to
#: stay irrelevant next to the buffer pool.
READ_CACHE_CHUNKS = 8

#: Write range locks are taken on chunk-aligned spans rounded out to this
#: many chunks (64 × 8000 B = 512 KB by default).  Chunk alignment is a
#: correctness requirement — the write buffer materializes whole-chunk
#: versions, so two writers sharing a chunk would lose updates;
#: coarsening beyond one chunk is a throughput choice: a sequential load
#: takes O(object / grain) lock-manager trips instead of one per chunk,
#: and writers only serialize when their spans land in the same grain.
LOCK_GRAIN_CHUNKS = 64

#: ``_where``'s third answer, "ask the index" (``None`` means *absent*).
_UNKNOWN = object()


def chunk_class_name(oid: int) -> str:
    """Name of the per-object chunk class (the paper's class ``P``)."""
    return f"lo_{oid}"


def chunk_index_name(oid: int) -> str:
    """Name of the B-tree on the chunk sequence number."""
    return f"lo_{oid}_seq"


class FChunkObject(ChunkedObject):
    """An open f-chunk large object."""

    impl = "fchunk"
    _unit = "chunk"

    def __init__(self, db: "Database", oid: int, compressor: Compressor,
                 txn: Transaction | None, writable: bool,
                 as_of: float | None = None,
                 chunk_payload: int = CHUNK_PAYLOAD):
        super().__init__(db, oid, compressor, txn, writable, as_of,
                         chunk_class_name(oid), chunk_index_name(oid))
        self.chunk_payload = chunk_payload
        # Write-buffer state (writable descriptors only).
        self._buf_seqno: int | None = None
        self._buf_data = bytearray()
        self._buf_dirty = False
        # Descriptor-level LRU of decompressed chunks, so streaming reads
        # uncompress each chunk once ("just-in-time" conversion without
        # repeating work for every frame in a chunk) and backward seeks
        # within the window never re-inflate.
        self._read_cache: OrderedDict[int, bytes] = OrderedDict()
        #: Writer's map seqno -> TID (or None = known absent); never
        #: consulted on a read-only descriptor.  Safe under range locking
        #: because ``_committed_moved`` drops every entry whenever any
        #: transaction commits or aborts.
        self._known_tids: dict[int, TID | None] = {}
        #: Chunks at or past here are absent unless the map says
        #: otherwise: never below the committed size (re-anchored by
        #: ``_committed_moved``) nor at or below a chunk this descriptor
        #: inserted (ratcheted by ``_flush_data``) — the map can forget
        #: an uncommitted chunk, the baseline must not.
        self._baseline_chunks = (self._chunks_in(self._pending_size)
                                 if writable else 0)

    # -- protocol hooks -------------------------------------------------------------

    def _chunks_in(self, size: int) -> int:
        return (size + self.chunk_payload - 1) // self.chunk_payload

    def _lock_bounds(self, start: int, end: int) -> tuple[int, int]:
        grain = self.chunk_payload * LOCK_GRAIN_CHUNKS
        return ((start // grain) * grain,
                ((max(end, start + 1) + grain - 1) // grain) * grain)

    def _committed_moved(self) -> None:
        self._known_tids.clear()
        self._read_cache.clear()
        if self.writable:  # only a writer keeps an absence baseline
            self._baseline_chunks = max(
                self._baseline_chunks,
                self._chunks_in(self._committed_size()))

    # -- chunk access -----------------------------------------------------------------

    def _where(self, seqno: int) -> "TID | None | object":
        """Where the visible version of chunk *seqno* is, as far as this
        writer can tell without the index: its TID, ``None`` (absent),
        or ``_UNKNOWN`` (ask the index — :meth:`_chunk_tuple`)."""
        # Epoch-gated: drops entries a concurrent commit could have
        # retired and re-anchors the absence baseline before either is
        # trusted below.
        self._refresh_committed()
        tid = self._known_tids.get(seqno, _UNKNOWN)
        if tid is _UNKNOWN and seqno >= self._baseline_chunks:
            # Past every committed chunk and every chunk this
            # descriptor inserted (docs/invariants.md).
            tid = self._known_tids[seqno] = None
        return tid

    def _chunk_tuple(self, seqno: int,
                     snapshot: Snapshot | None = None) -> HeapTuple | None:
        """The visible version of chunk *seqno*, or ``None`` (writable
        descriptors only).

        ``snapshot=None`` creates one lazily — an absent chunk is
        answered without one.
        """
        tid = self._where(seqno)
        if tid is None:
            return None
        if snapshot is None:
            snapshot = self._snapshot()
        if tid is not _UNKNOWN:
            tup = fetch_visible(self.db, self.relation, tid, snapshot)
            if tup is not None:
                return tup
            # Defensive: fall through to a real probe.
        candidates = IndexProbe(
            self.db, self.index, self.relation, seqno,
            unique=True, anomaly=self._anomaly).tuples(snapshot)
        tup = candidates[0] if candidates else None
        self._known_tids[seqno] = None if tup is None else tup.tid
        return tup

    # -- write buffer ------------------------------------------------------------------

    def _flush_data(self) -> None:
        """Materialize the buffered chunk (also on every chunk switch)."""
        if self._buf_dirty:
            self._flush_run({self._buf_seqno: bytes(self._buf_data)})
            self._buf_dirty = False

    def _flush_run(self, run: dict[int, bytes]) -> None:
        """Materialize *run* (seqno -> chunk bytes) in seqno order: the
        chunks the class lacks as one insert run, the rest replaced."""
        fresh = {}
        for seqno in sorted(run):
            row = (seqno, self.compressor.compress(run[seqno]))
            tid = self._where(seqno)
            if tid is _UNKNOWN:
                existing = self._chunk_tuple(seqno)
                tid = None if existing is None else existing.tid
            if tid is None:
                fresh[seqno] = row
            else:
                self._known_tids[seqno] = self.db.replace(
                    self.txn, self.relation.name, tid, row)
        if fresh:
            self._known_tids.update(zip(fresh, self.db.insert_many(
                self.txn, self.relation.name, list(fresh.values()))))
            self._baseline_chunks = max(self._baseline_chunks, max(fresh) + 1)

    def _drop_buffer(self) -> None:
        self._buf_seqno = None
        self._buf_data = bytearray()
        self._buf_dirty = False

    def _switch_buffer(self, seqno: int,
                       snapshot: Snapshot | None = None) -> None:
        """Point the write buffer at *seqno*, flushing the previous chunk."""
        if self._buf_seqno == seqno:
            return
        self._flush_data()
        # The write buffer supersedes any cached copy of this chunk.
        stored = self._read_cache.pop(seqno, None)
        if stored is None:
            tup = self._chunk_tuple(seqno, snapshot)
            if tup is not None:
                stored = self.compressor.decompress(tup.values[1])
        self._buf_seqno = seqno
        self._buf_data = bytearray(stored or b"")
        self._buf_dirty = False

    # -- reads ----------------------------------------------------------------------------

    def _read_at(self, offset: int, nbytes: int) -> bytes:
        size = self._size()
        if offset >= size or nbytes <= 0:
            return b""
        return self._read_span(offset, min(offset + nbytes, size))

    def _read_span(self, offset: int, end: int) -> bytes:
        """Gather exactly ``[offset, end)`` without consulting the size
        row (missing chunks read as zeros).

        The v-segment byte store reads through this: a segment record
        visible to the caller's snapshot proves its extent exists even
        when this store descriptor's pending size has not caught up with
        another writer's committed appends.
        """
        payload = self.chunk_payload
        first = offset // payload
        last = (end - 1) // payload
        # Gather the covered chunks in one pass: descriptor buffers first,
        # then one batched index range scan for whatever is left — never
        # one B-tree descent per chunk.  The snapshot is created only if a
        # scan actually runs (building one is pure bookkeeping but shows
        # up at one-per-read() rates).
        cache = self._read_cache
        parts: list = []
        missing: list[int] = []
        buffered = 0
        for seqno in range(first, last + 1):
            if seqno == self._buf_seqno:
                parts.append(bytes(self._buf_data))
                buffered = 1
                continue
            chunk = cache.get(seqno)
            if chunk is None:
                missing.append(seqno)
            else:
                cache.move_to_end(seqno)
            parts.append(chunk)
        stats = self._cache_stats
        if missing:
            stats.read_cache_misses += len(missing)
            # One range scan over the window, its heap blocks read ahead.
            lo, hi = missing[0], missing[-1]
            fetched = dict(IndexRangeScan(
                self.db, self.index, self.relation, lo, hi, unique=True,
                anomaly=self._anomaly).visible(self._snapshot(), wanted=(
                    None if hi - lo < len(missing) else set(missing))))
            decompress = self.compressor.decompress
            for seqno in missing:
                tup = fetched.get(seqno)
                chunk = b"" if tup is None else decompress(tup.values[1])
                if tup is not None:
                    cache[seqno] = chunk  # a miss: lands at the MRU end
                parts[seqno - first] = chunk
            while len(cache) > READ_CACHE_CHUNKS:
                cache.popitem(last=False)
        stats.read_cache_hits += len(parts) - len(missing) - buffered
        # Whole chunks are joined as they are; only the two ends are cut
        # (memoryview slices defer the copy to the join).  A short or
        # missing chunk inside the range reads as zeros.
        tail = end - last * payload
        if len(parts[-1]) < tail or (
                last > first and min(map(len, parts[:-1])) < payload):
            parts = [part.ljust(payload, b"\0") for part in parts]
        parts[-1] = memoryview(parts[-1])[:tail]
        parts[0] = memoryview(parts[0])[offset - first * payload:]
        return b"".join(parts)

    # -- writes ----------------------------------------------------------------------------

    def _write_at(self, offset: int, data: bytes) -> None:
        self.txn.require_active()
        payload = self.chunk_payload
        end = offset + len(data)
        # Declare the mutated range before buffering anything: overlapping
        # writers block here (strict 2PL), disjoint ones sail through.
        self._lock_span(offset, end)
        self._refresh_committed()
        run: dict[int, bytes] = {}   # pending whole chunks; later wins
        for seqno in range(offset // payload, (end - 1) // payload + 1):
            chunk_start = seqno * payload
            lo = max(offset, chunk_start)
            hi = min(end, chunk_start + payload)
            piece = data[lo - offset:hi - offset]
            if hi - lo == payload:
                # Wholly covered: opens a run; the dirty buffer rides along.
                if self._buf_dirty:
                    run[self._buf_seqno] = bytes(self._buf_data)
                self._drop_buffer()
                run[seqno] = piece
                self._read_cache.pop(seqno, None)
                continue
            if run:
                # Nothing is loaded from the class past an unflushed run.
                self._flush_run(run)
                run = {}
            self._switch_buffer(seqno)
            chunk_offset = lo - chunk_start
            if chunk_offset > len(self._buf_data):
                self._buf_data.extend(
                    bytes(chunk_offset - len(self._buf_data)))
            self._buf_data[chunk_offset:chunk_offset + len(piece)] = piece
            self._buf_dirty = True
        if run:
            self._flush_run(run)
        self._note_write(end)

    def _truncate(self, size: int) -> None:
        self.txn.require_active()
        # Truncate rewrites the object's extent wholesale: take [0, inf)
        # so no concurrent writer can be mid-flight past the cut.
        self._lock_whole()
        snapshot = self._snapshot()
        current = self._size()
        if size >= current:
            # Sparse extension: reads zero-fill short/missing chunks.
            self._note_truncate(size)
            return
        payload = self.chunk_payload
        cut = size % payload
        if cut:
            # The boundary chunk survives, trimmed: shorten it in the
            # write buffer so stale tail bytes can never resurface.
            boundary = size // payload
            self._switch_buffer(boundary, snapshot)
            del self._buf_data[cut:]
            self._buf_dirty = True
            first_doomed = boundary + 1
        else:
            first_doomed = size // payload
        # Delete whole chunks past the cut (their old versions remain
        # reachable through time travel): one scan that stamps them.
        if self._buf_seqno is not None and self._buf_seqno >= first_doomed:
            self._drop_buffer()
        last = (current - 1) // payload
        if first_doomed <= last:
            self._known_tids.update(dict.fromkeys(IndexRangeScan(
                self.db, self.index, self.relation, first_doomed, last,
                unique=True, anomaly=self._anomaly).delete(self.txn,
                                                           snapshot)))
        self._read_cache.clear()
        self._note_truncate(size)
