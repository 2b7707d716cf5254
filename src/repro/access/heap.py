"""Heap relations with no-overwrite versioning.

A heap relation ("class" in POSTGRES terms) is a file of slotted pages
holding :mod:`tuple versions <repro.access.tuples>`.  The write operations
follow the POSTGRES storage system:

* ``insert`` appends a new version stamped ``xmin = current xid``;
* ``delete`` stamps ``xmax`` on the existing version **in place** — the
  version stays on disk for time travel;
* ``replace`` is delete + insert of a new version *with the same oid*;
* ``vacuum`` is the only operation that physically removes versions, and
  only those dead before a caller-supplied horizon.

Every mutation records the relation file in the transaction's touched set
so commit can force it to stable storage.
"""

from __future__ import annotations

import operator
from itertools import compress, groupby
from typing import Callable, Iterator

from repro.access.schema import Schema
from repro.access.tuples import (
    TID,
    XMAX_OFFSET,
    HeapTuple,
    deserialize_tuple,
    read_stamps,
    serialize_tuple,
    xmax_patch,
)
from repro.errors import RelationError, TransactionError, TupleNotFound
from repro.smgr.base import StorageManager
from repro.storage.buffer import BufferManager, block_runs
from repro.storage.constants import INVALID_XID, MAX_TUPLE_SIZE, PAGE_SIZE
from repro.storage.fsm import FreeSpaceMap
from repro.storage.page import FRESH_FREE, SlottedPage
from repro.txn.manager import Transaction
from repro.txn.snapshot import Snapshot
from repro.txn.xlog import CommitLog, TxnStatus

_BLOCKNO = operator.itemgetter(0)   # of a TID
_TID = operator.itemgetter(1)       # of a (key, TID) index entry

#: Readahead window (blocks) for sequential scans: far enough ahead to
#: batch device reads, small enough not to wash streams out of the pool.
SCAN_PREFETCH_BLOCKS = 16


class HeapRelation:
    """One POSTGRES class stored as a heap of versioned tuples."""

    def __init__(self, name: str, schema: Schema, smgr: StorageManager,
                 bufmgr: BufferManager, clog: CommitLog,
                 oid_source: Callable[[], int], fileid: str | None = None):
        self.name = name
        self.schema = schema
        self.smgr = smgr
        self.bufmgr = bufmgr
        self.clog = clog
        self.oid_source = oid_source
        self.fileid = fileid or f"heap_{name}"
        self.fsm = FreeSpaceMap()
        #: Debug tripwire (see :mod:`repro.access.scan`): when the owning
        #: Database is built with lockdep armed it points this at the
        #: engine latch's ``held()``, and visibility reads verify the
        #: latch is taken.  ``None`` (standalone use, tests over a raw
        #: stack) disables the check.
        self.latch_probe: Callable[[], bool] | None = None
        #: Deleter map, ``TID`` -> stamped ``xmax``: set by :meth:`delete`
        #: and every read of a nonzero one, pruned by the sweep that frees
        #: the slot; as long as the pool (at least 256), oldest out first —
        #: forgetting costs a read (docs/invariants.md).
        self._deleters: dict[TID, int] = {}
        self._deleters_limit = max(256, bufmgr.pool_size)

    def _assert_latched(self, operation: str) -> None:
        if self.latch_probe is not None and not self.latch_probe():
            raise AssertionError(
                f"{self.name!r}.{operation} called without the engine "
                f"latch — go through the scan layer "
                f"(repro.access.scan) or take db.latch first")

    # -- lifecycle ----------------------------------------------------------------

    def create_storage(self) -> None:
        """Create the backing relation file (idempotent)."""
        self.smgr.create(self.fileid)

    def drop_storage(self) -> None:
        """Discard buffers and unlink the backing file."""
        self.bufmgr.drop_file(self.smgr, self.fileid)
        self.smgr.unlink(self.fileid)
        self.fsm.forget()
        self._deleters.clear()

    def nblocks(self) -> int:
        return self.bufmgr.nblocks(self.smgr, self.fileid)

    def byte_size(self) -> int:
        """Bytes the relation occupies (buffered tail included)."""
        return self.nblocks() * PAGE_SIZE

    # -- insert ---------------------------------------------------------------------

    def insert(self, txn: Transaction, values: tuple,
               oid: int | None = None) -> TID:
        """:meth:`insert_many` of one row; returns its TID."""
        return self.insert_many(txn, [values], oid)[0]

    def insert_many(self, txn: Transaction, rows,
                    oid: int | None = None) -> list[TID]:
        """Insert *rows* in order (all serialized and size-checked before
        the first is placed); returns their TIDs.  Pass *oid* when writing
        a new version of an existing object, else each row gets a fresh one.
        """
        txn.require_active()
        images = []
        for values in rows:
            image = serialize_tuple(
                self.schema, txn.xid,
                self.oid_source() if oid is None else oid, values)
            if len(image) > MAX_TUPLE_SIZE:
                raise RelationError(
                    f"tuple of {len(image)} bytes exceeds the page limit "
                    f"{MAX_TUPLE_SIZE} for relation {self.name!r} "
                    f"(store big values as large objects)")
            images.append(image)
        # Recorded before the first page changes: a commit after a caught
        # error must still force what was placed.
        txn.touch(self.smgr, self.fileid)
        return self._store(images)

    def insert_raw(self, image: bytes) -> TID:
        """Place a pre-serialized tuple image, preserving its stamps.

        Used by the archival vacuum to move versions between relations
        without rewriting their transaction history.  The caller owns
        durability (this is maintenance work, outside any transaction).
        """
        if len(image) > MAX_TUPLE_SIZE:
            raise RelationError(
                f"tuple image of {len(image)} bytes exceeds the page "
                f"limit for relation {self.name!r}")
        return self._store([image])[0]

    def _store(self, images: list[bytes]) -> list[TID]:
        """Place *images* in order: each on the page the free-space map
        names if it fits there (compacting the page if its room is
        fragmented), else on a fresh page built holding it.  A stretch of
        fresh pages reaches the pool as one :meth:`BufferManager.extend`,
        before the next pin, so pool operations keep the per-row order.
        """
        fsm, bufmgr, smgr, fileid = self.fsm, self.bufmgr, self.smgr, \
            self.fileid
        tids = []
        fresh: list[SlottedPage] = []
        end = -1    # the relation's length, read once a row needs it
        for image in images:
            size = len(image)
            target = fsm.find(size, end - 1)
            if target is None and end < 0:
                end = self.nblocks()
                target = fsm.find(size, end - 1)
            if target is not None:
                if fresh:
                    self._extend(fresh)
                    fresh = []
                buf = bufmgr.pin(smgr, fileid, target)
                page = buf.page
                fits = False
                try:
                    room = page.free_space()
                    fits = size <= room or page.can_fit(size)
                    if fits:
                        if size > room:
                            page.compact()
                        tids.append(TID(target, page.add_item(image)))
                        fsm.note_insert(target, page.free_space())
                finally:
                    bufmgr.unpin(buf, dirty=fits)
                if fits:
                    continue
                if end < 0:
                    end = self.nblocks()
            page = SlottedPage.holding(image)
            fresh.append(page)
            tids.append(TID(end, 0))
            fsm.note_insert(end, FRESH_FREE - size)
            end += 1
        if fresh:
            self._extend(fresh)
        return tids

    def _extend(self, pages: list[SlottedPage]) -> None:
        try:
            self.bufmgr.extend(self.smgr, self.fileid, pages)
        except BaseException:
            self.fsm.forget()   # it names pages the pool may not hold
            raise

    # -- point reads -------------------------------------------------------------------

    def fetch_any_version(self, tid: TID) -> HeapTuple:
        """The tuple at *tid* regardless of visibility."""
        return self._read((tid,), None)[0]

    def fetch(self, tid: TID, snapshot: Snapshot) -> HeapTuple | None:
        """The tuple at *tid* if visible to *snapshot*, else ``None``."""
        self._assert_latched("fetch")
        found = self._read((tid,), snapshot)
        return found[0] if found else None

    def known_dead(self, entries: list, snapshot: Snapshot) -> list:
        """*entries* (``(key, TID)`` pairs) less those the deleter map
        shows *snapshot* as deleted, so invisible: C-level passes per
        entry, ``sees_deletion`` once per distinct ``xmax``."""
        xmaxes = [*map(self._deleters.get, map(_TID, entries))]
        if not any(xmaxes):
            return entries
        live = dict.fromkeys(xmaxes, True)
        for xmax in live:
            if xmax is not None:
                live[xmax] = not snapshot.sees_deletion(xmax, self.clog)
        return [*compress(entries, map(live.__getitem__, xmaxes))]

    def _remember(self, tid: TID, xmax: int) -> None:
        deleters = self._deleters
        if deleters.get(tid) != xmax:   # an equal re-store only churns memory
            deleters[tid] = xmax
            if len(deleters) > self._deleters_limit:
                del deleters[next(iter(deleters))]

    # -- batched reads -----------------------------------------------------------------

    def prefetch_tids(self, tids) -> int:
        """Issue readahead for the blocks a TID batch is about to pin.

        Contiguous runs of two or more blocks become one
        :meth:`~repro.storage.buffer.BufferManager.prefetch` call each
        (readahead pays off exactly when the device would otherwise see
        a string of single-block demand reads); isolated blocks are left
        to demand paging.  Returns how many blocks were read ahead.
        """
        fetched = 0
        for first, last in block_runs(sorted(set(map(_BLOCKNO, tids)))):
            if last > first:
                fetched += self.bufmgr.prefetch(
                    self.smgr, self.fileid, first, last - first + 1)
        return fetched

    def fetch_many(self, tids: list[TID],
                   snapshot: Snapshot) -> list[HeapTuple]:
        """Visible tuples among *tids*, in input order (readahead is the
        caller's: :meth:`prefetch_tids`)."""
        self._assert_latched("fetch_many")
        return self._read(tids, snapshot)

    def _read(self, tids, snapshot: Snapshot | None) -> list[HeapTuple]:
        """The one pin-and-decode body: the tuples at *tids* visible to
        *snapshot* (all, for ``None``), in order; a same-block run shares
        one pin (then ``rehit``s); each nonzero ``xmax`` read is kept;
        visibility is decided once per distinct ``(xmin, xmax)`` stamp
        (a chunk run shares one), which only the snapshot settles."""
        out = []
        bufmgr, clog, schema = self.bufmgr, self.clog, self.schema
        visible: dict[tuple[int, int], bool] = {}
        buf = None
        try:
            for tid in tids:
                if buf is not None and buf.blockno == tid[0]:
                    bufmgr.rehit(buf)
                else:
                    if buf is not None:
                        bufmgr.unpin(buf)
                        buf = None
                    buf = bufmgr.pin(self.smgr, self.fileid, tid[0])
                try:
                    view = buf.page.item_view(tid[1])
                except Exception as exc:
                    raise TupleNotFound(
                        f"no tuple at {tid} in {self.name!r}") from exc
                xmin, xmax, _oid = read_stamps(view)
                if xmax:
                    self._remember(tid, xmax)
                if snapshot is not None:
                    seen = visible.get((xmin, xmax))
                    if seen is None:
                        seen = visible[xmin, xmax] = snapshot.is_visible(
                            xmin, xmax, clog)
                    if not seen:
                        continue
                out.append(deserialize_tuple(schema, view, tid))
        finally:
            if buf is not None:
                bufmgr.unpin(buf)
        return out

    # -- delete / replace ------------------------------------------------------------------

    def delete(self, txn: Transaction, tids,
               snapshot: Snapshot | None = None,
               fetch: bool = False) -> list[int | None]:
        """Stamp ``xmax = txn.xid`` on the versions at *tids* (with
        *snapshot*, those it sees); returns their oids in order, ``None``
        where none was stamped.  A same-block run shares one pin (*fetch*:
        price a read of each as a pin of its own); nothing is decoded.

        Rejects tuples already deleted by a live or committed transaction
        (a write-write conflict under no-wait 2PL); a stamp left by an
        *aborted* deleter is overwritten.
        """
        txn.require_active()
        self._assert_latched("delete")
        bufmgr, xid = self.bufmgr, txn.xid
        stamp = xmax_patch(xid)
        oids: list[int | None] = []
        # Before the first stamp, as in insert_many: a conflict raised
        # after earlier stamps must not keep them out of the commit's force.
        txn.touch(self.smgr, self.fileid)
        for blockno, run in groupby(tids, _BLOCKNO):
            buf = bufmgr.pin(self.smgr, self.fileid, blockno)
            dirty = False
            try:
                for tid in run:
                    if fetch:
                        bufmgr.rehit(buf)
                    try:
                        view = buf.page.item_view(slot := tid[1])
                    except Exception as exc:
                        raise TupleNotFound(f"no tuple at {TID(*tid)}"
                                            f" in {self.name!r}") from exc
                    xmin, xmax, oid = read_stamps(view)
                    if snapshot is not None and not snapshot.is_visible(
                            xmin, xmax, self.clog):
                        oids.append(None)
                        continue
                    if xmax != INVALID_XID and xmax != xid \
                            and self.clog.status(xmax) != TxnStatus.ABORTED:
                        raise TransactionError(
                            f"tuple {TID(*tid)} in {self.name!r} "
                            f"already deleted by transaction {xmax}")
                    # In place: the rest of a version never changes.
                    buf.page.patch_item(slot, XMAX_OFFSET, stamp)
                    dirty = True
                    self._remember(tid, xid)
                    oids.append(oid)
            finally:
                bufmgr.unpin(buf, dirty=dirty)
        return oids

    def replace(self, txn: Transaction, tid: TID, values: tuple) -> TID:
        """Write a new version of the tuple at *tid* (same oid)."""
        return self.insert_many(
            txn, [values], self.delete(txn, (tid,), fetch=True)[0])[0]

    # -- scans ------------------------------------------------------------------------------

    def scan_versions(self) -> Iterator[HeapTuple]:
        """Every stored version, visible or not (vacuum, debugging).

        Issues windowed readahead so a sequential scan's device reads
        arrive in batches instead of one demand miss per page.
        """
        self._assert_latched("scan_versions")
        for blockno in range(self.nblocks()):
            if blockno % SCAN_PREFETCH_BLOCKS == 0:
                self.bufmgr.prefetch(self.smgr, self.fileid, blockno,
                                     SCAN_PREFETCH_BLOCKS)
            with self.bufmgr.page(self.smgr, self.fileid, blockno) as page:
                # Decode from views while pinned; yield after the pin is
                # dropped so consumers never run with a page held.
                tuples = [deserialize_tuple(self.schema, page.item_view(s),
                                            TID(blockno, s))
                          for s in page.live_slots()]
            yield from tuples

    # -- vacuum ------------------------------------------------------------------------------

    def vacuum(self, horizon: float | None = None,
               removed_sink: list | None = None,
               archive_sink: Callable[[bytes], None] | None = None,
               readers: Snapshot = Snapshot(xid=0)) -> int:
        """The sweep: physically remove dead versions; returns how many.

        A version is dead if its inserter aborted, or its deleter committed
        — and, when *horizon* is given, committed **before** *horizon*
        (keeping history reachable by time travel after the horizon) — and
        *readers* sees the deletion (the sweep passes the live readers'
        bound, :meth:`TransactionManager.horizon
        <repro.txn.manager.TransactionManager.horizon>`; the default sees
        every committed one).

        *archive_sink* receives the raw image (stamps intact) of each
        version whose deleter committed; without one that history is
        discarded, which is what the paper's u-file/p-file implementations
        live with permanently.  An aborted inserter's versions were never
        visible and are never archived.  *removed_sink* collects every
        removed version decoded: freed slots are reused, so the caller
        (``Archiver.sweep``, holding the engine latch) prunes their index
        entries and bumps the visibility epoch — docs/invariants.md.
        """
        self._assert_latched("vacuum")
        removed = 0
        for blockno in range(self.nblocks()):
            buf = self.bufmgr.pin(self.smgr, self.fileid, blockno)
            dirty = False
            try:
                for slot in buf.page.live_slots():
                    view = buf.page.item_view(slot)
                    xmin, xmax, _oid = read_stamps(view)
                    aborted = self.clog.status(xmin) == TxnStatus.ABORTED
                    if not (aborted or self._deleter_committed(
                            xmax, horizon, readers)):
                        continue
                    if archive_sink is not None and not aborted:
                        archive_sink(bytes(view))
                    if removed_sink is not None:
                        removed_sink.append(deserialize_tuple(
                            self.schema, view, TID(blockno, slot)))
                    view.release()
                    buf.page.delete_item(slot)
                    self._deleters.pop((blockno, slot), None)
                    removed += 1
                    dirty = True
                if dirty:
                    buf.page.compact()
                    self.fsm.record(blockno, buf.page.free_space())
            finally:
                self.bufmgr.unpin(buf, dirty=dirty)
        return removed

    def _deleter_committed(self, xmax: int, horizon: float | None,
                           readers: Snapshot) -> bool:
        if xmax == INVALID_XID or not readers.sees_deletion(xmax, self.clog):
            return False
        return horizon is None or self.clog.commit_time(xmax) < horizon
