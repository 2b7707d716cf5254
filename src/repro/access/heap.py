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
from repro.storage.buffer import BufferManager
from repro.storage.constants import INVALID_XID, MAX_TUPLE_SIZE
from repro.storage.fsm import FreeSpaceMap
from repro.storage.page import SlottedPage
from repro.txn.manager import Transaction
from repro.txn.snapshot import Snapshot
from repro.txn.xlog import CommitLog, TxnStatus

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

    def nblocks(self) -> int:
        return self.bufmgr.nblocks(self.smgr, self.fileid)

    def byte_size(self) -> int:
        """Bytes the relation occupies (buffered tail included)."""
        from repro.storage.constants import PAGE_SIZE
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
        tids = [self._place(image) for image in images]
        txn.touch(self.smgr, self.fileid)
        return tids

    def _place(self, image: bytes) -> TID:
        """Store an image on a page with room, extending if needed."""
        target = self.fsm.find(len(image))
        if target is None:
            nblocks = self.nblocks()
            target = nblocks - 1 if nblocks else None
            if (target is not None
                    and self.fsm.known_insufficient(target, len(image))):
                # The tail page's hint was refreshed by the last
                # placement and says no room, so go straight to a fresh
                # page.  Bulk loads (one 8000 B chunk per page) would
                # pay this dead probe on every insert.
                target = None
        if target is not None:
            buf = self.bufmgr.pin(self.smgr, self.fileid, target)
            try:
                slot = self._try_add(buf.page, image)
                if slot is not None:
                    self._after_place(buf.page, target)
                    self.bufmgr.unpin(buf, dirty=True)
                    return TID(target, slot)
            except Exception:
                self.bufmgr.unpin(buf)
                raise
            self.bufmgr.unpin(buf)
        buf = self.bufmgr.allocate(self.smgr, self.fileid)
        try:
            slot = buf.page.add_item(image)
            self._after_place(buf.page, buf.blockno)
            blockno = buf.blockno
        finally:
            self.bufmgr.unpin(buf, dirty=True)
        return TID(blockno, slot)

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
        return self._place(image)

    @staticmethod
    def _try_add(page: SlottedPage, image: bytes) -> int | None:
        """Add to *page*, compacting first if fragmentation is the issue."""
        if page.free_space() < len(image):
            live = sum(page.item_id(s).length for s in page.live_slots())
            from repro.storage.constants import (
                ITEM_ID_SIZE,
                PAGE_HEADER_SIZE,
                PAGE_SIZE,
            )
            ceiling = (PAGE_SIZE - PAGE_HEADER_SIZE
                       - (page.slot_count + 1) * ITEM_ID_SIZE)
            if ceiling - live < len(image):
                return None
            page.compact()
            if page.free_space() < len(image):
                return None
        return page.add_item(image)

    def _after_place(self, page: SlottedPage, blockno: int) -> None:
        self.fsm.record(blockno, page.free_space())
        self.fsm.note_insert_target(blockno)

    # -- point reads -------------------------------------------------------------------

    def fetch_any_version(self, tid: TID) -> HeapTuple:
        """The tuple at *tid* regardless of visibility."""
        with self.bufmgr.page(self.smgr, self.fileid, tid.blockno) as page:
            try:
                view = page.item_view(tid.slot)
            except Exception as exc:
                raise TupleNotFound(
                    f"no tuple at {tid} in {self.name!r}") from exc
            # Decode while the page is pinned: the view aliases the pool,
            # the decoded values do not.
            return deserialize_tuple(self.schema, view, tid)

    def fetch(self, tid: TID, snapshot: Snapshot) -> HeapTuple | None:
        """The tuple at *tid* if visible to *snapshot*, else ``None``."""
        self._assert_latched("fetch")
        with self.bufmgr.page(self.smgr, self.fileid, tid.blockno) as page:
            try:
                view = page.item_view(tid.slot)
            except Exception as exc:
                raise TupleNotFound(
                    f"no tuple at {tid} in {self.name!r}") from exc
            xmin, xmax, _oid = read_stamps(view)
            if not snapshot.is_visible(xmin, xmax, self.clog):
                return None
            return deserialize_tuple(self.schema, view, tid)

    # -- batched reads -----------------------------------------------------------------

    def prefetch_tids(self, tids) -> int:
        """Issue readahead for the blocks a TID batch is about to pin.

        Contiguous runs of two or more blocks become one
        :meth:`~repro.storage.buffer.BufferManager.prefetch` call each
        (readahead pays off exactly when the device would otherwise see
        a string of single-block demand reads); isolated blocks are left
        to demand paging.  Returns how many blocks were read ahead.
        """
        blocks = sorted({tid.blockno for tid in tids})
        fetched = 0
        run_start = None
        previous = None
        for blockno in blocks + [None]:
            if run_start is not None and blockno == previous + 1:
                previous = blockno
                continue
            if run_start is not None and previous > run_start:
                fetched += self.bufmgr.prefetch(
                    self.smgr, self.fileid, run_start,
                    previous - run_start + 1)
            run_start = previous = blockno
        return fetched

    def fetch_many(self, tids, snapshot: Snapshot,
                   prefetch: bool = True) -> list[HeapTuple]:
        """Visible tuples among *tids*, in input order, with readahead.

        Consecutive TIDs on the same block share one pin: the page is
        pinned when the run starts and each further tuple only pays
        :meth:`~repro.storage.buffer.BufferManager.rehit` bookkeeping
        (identical simulated cost to pinning again).  Tuple images are
        read as zero-copy views and only visible ones are decoded.
        ``prefetch=False`` skips the readahead pass when the caller
        already issued it for these TIDs.
        """
        self._assert_latched("fetch_many")
        tids = list(tids)
        if prefetch:
            self.prefetch_tids(tids)
        out = []
        bufmgr = self.bufmgr
        is_visible = snapshot.is_visible
        clog = self.clog
        schema = self.schema
        buf = None
        cur_block = None
        try:
            for tid in tids:
                if tid.blockno != cur_block:
                    if buf is not None:
                        bufmgr.unpin(buf)
                        buf = None
                    buf = bufmgr.pin(self.smgr, self.fileid, tid.blockno)
                    cur_block = tid.blockno
                else:
                    bufmgr.rehit(buf)
                try:
                    view = buf.page.item_view(tid.slot)
                except Exception as exc:
                    raise TupleNotFound(
                        f"no tuple at {tid} in {self.name!r}") from exc
                xmin, xmax, _oid = read_stamps(view)
                if is_visible(xmin, xmax, clog):
                    out.append(deserialize_tuple(schema, view, tid))
        finally:
            if buf is not None:
                bufmgr.unpin(buf)
        return out

    # -- delete / replace ------------------------------------------------------------------

    def delete(self, txn: Transaction, tid: TID,
               fetch: bool = False) -> int:
        """Stamp ``xmax = txn.xid`` on the version at *tid*; returns the
        version's oid (*fetch*: price reading it as a pin of its own).

        Rejects tuples already deleted by a live or committed transaction
        (a write-write conflict under no-wait 2PL); a stamp left by an
        *aborted* deleter is overwritten.
        """
        txn.require_active()
        buf = self.bufmgr.pin(self.smgr, self.fileid, tid.blockno)
        try:
            if fetch:
                self.bufmgr.rehit(buf)
            try:
                view = buf.page.item_view(tid.slot)
            except Exception as exc:
                raise TupleNotFound(
                    f"no tuple at {tid} in {self.name!r}") from exc
            _xmin, xmax, oid = read_stamps(view)
            if xmax != INVALID_XID and xmax != txn.xid:
                if self.clog.status(xmax) != TxnStatus.ABORTED:
                    raise TransactionError(
                        f"tuple {tid} in {self.name!r} already deleted "
                        f"by transaction {xmax}")
            view.release()
            # Stamp the 8-byte xmax field in place — no image copy; the
            # rest of the version is immutable by the no-overwrite rule.
            buf.page.patch_item(tid.slot, XMAX_OFFSET, xmax_patch(txn.xid))
        finally:
            self.bufmgr.unpin(buf, dirty=True)
        txn.touch(self.smgr, self.fileid)
        return oid

    def replace(self, txn: Transaction, tid: TID, values: tuple) -> TID:
        """Write a new version of the tuple at *tid* (same oid)."""
        return self.insert(txn, values,
                           oid=self.delete(txn, tid, fetch=True))

    # -- scans ------------------------------------------------------------------------------

    def scan(self, snapshot: Snapshot) -> Iterator[HeapTuple]:
        """All tuple versions visible to *snapshot*, in physical order."""
        for tup in self.scan_versions():
            if snapshot.is_visible(tup.xmin, tup.xmax, self.clog):
                yield tup

    def scan_versions(self) -> Iterator[HeapTuple]:
        """Every stored version, visible or not (vacuum, debugging).

        Issues windowed readahead so a sequential scan's device reads
        arrive in batches instead of one demand miss per page.
        """
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
               archive_sink: Callable[[bytes], None] | None = None) -> int:
        """The sweep: physically remove dead versions; returns how many.

        A version is dead if its inserter aborted, or its deleter committed
        — and, when *horizon* is given, committed **before** *horizon*
        (keeping history reachable by time travel after the horizon).

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
                    if not (aborted
                            or self._deleter_committed(xmax, horizon)):
                        continue
                    if archive_sink is not None and not aborted:
                        archive_sink(bytes(view))
                    if removed_sink is not None:
                        removed_sink.append(deserialize_tuple(
                            self.schema, view, TID(blockno, slot)))
                    view.release()
                    buf.page.delete_item(slot)
                    removed += 1
                    dirty = True
                if dirty:
                    buf.page.compact()
                    self.fsm.record(blockno, buf.page.free_space())
            finally:
                self.bufmgr.unpin(buf, dirty=dirty)
        return removed

    def _deleter_committed(self, xmax: int, horizon: float | None) -> bool:
        if xmax == INVALID_XID:
            return False
        if self.clog.status(xmax) != TxnStatus.COMMITTED:
            return False
        return horizon is None or self.clog.commit_time(xmax) < horizon
