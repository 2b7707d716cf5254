"""The protocol f-chunk and v-segment share (§6.3, §6.4).

Both chunked implementations are ordinary no-overwrite classes plus one
``pg_largeobject`` size row, so both get transactions and time travel
"for free" — and both need the same machinery to stay correct when
several transactions write one object at once:

* one **epoch gate** (:meth:`ChunkedObject._refresh_committed`): when
  any transaction commits or aborts, every descriptor drops the cached
  state that commit may have retired, and a writable one re-derives its
  **pending size** from the committed size;
* **EXCLUSIVE byte-range locks** declared at write time and held to
  transaction end (:meth:`~ChunkedObject._lock_span`,
  :meth:`~ChunkedObject._lock_whole`), so disjoint-range writers run in
  parallel while truncate/unlink conflict with everyone;
* an **EOF-stable append** (:meth:`~ChunkedObject.append`);
* a **deferred size row** materialized at close/commit by a
  before-commit hook (:meth:`~ChunkedObject.flush`).

:class:`ChunkedObject` owns all of that once.  A subclass supplies only
its data layout: ``_read_at`` / ``_write_at`` / ``_truncate``, the lock
grain (``_lock_bounds``), what to buffer (``_flush_data`` /
``_close_data``) and what a concurrent commit invalidates
(``_committed_moved``).
"""

from __future__ import annotations

from abc import abstractmethod
from typing import TYPE_CHECKING

from repro.compress.base import Compressor
from repro.errors import LargeObjectError, NoActiveTransaction
from repro.lo import metadata
from repro.lo.interface import LargeObject
from repro.txn.locks import LockMode
from repro.txn.manager import Transaction
from repro.txn.rangelock import IntervalSet, lo_range, lo_whole
from repro.txn.snapshot import Snapshot

if TYPE_CHECKING:
    from repro.db import Database


class ChunkedObject(LargeObject):
    """An open large object stored in a POSTGRES class of its own."""

    #: What one record of ``relation`` holds, for diagnostics.
    _unit = "record"

    def __init__(self, db: "Database", oid: int, compressor: Compressor,
                 txn: Transaction | None, writable: bool,
                 as_of: float | None, class_name: str, index_name: str):
        if writable and txn is None:
            raise NoActiveTransaction(
                f"opening large object {oid} for writing requires a "
                f"transaction")
        if writable and as_of is not None:
            raise LargeObjectError(
                "historical (as-of) opens are read-only")
        super().__init__(f"lo:{oid}", writable)
        self.db = db
        self.oid = oid
        self.txn = txn
        self.as_of = as_of
        self.compressor = compressor
        self.relation = db.get_class(class_name)
        self.index = db.get_index(index_name)
        self._cache_stats = db.lo.cache_stats
        #: The object's size as this transaction sees it (writable
        #: descriptors only): max(committed at the last refresh, own
        #: writes).  :meth:`flush` commits it only under the whole-object
        #: lock, which makes it exact; otherwise ``_own_high``, max-merged.
        self._pending_size: int | None = None
        #: Highest byte-end this transaction itself has written (or the
        #: exact size its own truncate set).  The committed size can move
        #: *down* under us (a neighbour's committed truncate), so the
        #: pending size is re-derived as max(committed, own) — never
        #: ratcheted monotonically, which would resurrect the pre-cut
        #: extent and land appends past the new EOF.
        self._own_high = 0
        #: Byte spans this descriptor has EXCLUSIVE range locks on
        #: (writable only); re-locking a covered span is a no-op.
        self._locked = IntervalSet()
        self._whole_locked = False
        self._commit_epoch = db.clog.visibility_epoch
        if writable:
            self._pending_size = self._committed_size()
            txn.before_commit.append(self.flush)

    # -- layout hooks ----------------------------------------------------------

    @abstractmethod
    def _lock_bounds(self, start: int, end: int) -> tuple[int, int]:
        """The grain-aligned span a write of ``[start, end)`` must lock."""

    def _committed_moved(self, committed: int) -> None:
        """Another transaction committed or aborted and the committed
        size is now *committed*: drop whatever cached state that could
        have retired (default: nothing is cached)."""

    def _flush_data(self) -> None:
        """Materialize buffered data as tuple versions (default: none)."""

    def _close_data(self) -> None:
        """Release layout-specific resources at close (default: none)."""

    # -- snapshots -----------------------------------------------------------------

    def _snapshot(self) -> Snapshot:
        return self.db.snapshot(self.txn, as_of=self.as_of)

    def _committed_size(self) -> int:
        return metadata.read_size(self.db, self.oid, self._snapshot())

    def _anomaly(self, key, count: int) -> LargeObjectError:
        """Diagnostic for the scan layer's ``unique`` mode: two visible
        versions under one key would let whichever sorts later silently
        overwrite the other's bytes."""
        return LargeObjectError(
            f"large object {self.oid}: {count} visible versions of "
            f"{self._unit} {key[0]} (snapshot anomaly)")

    # -- range locking / concurrent-commit refresh ---------------------------------

    def _refresh_committed(self, force: bool = False) -> None:
        """Fold what *other* transactions committed into this
        descriptor's view — the one place a descriptor, writable or
        read-only, consults ``CommitLog.visibility_epoch`` (vacuum bumps
        it too when it prunes index entries).

        While nothing commits or aborts anywhere, this is one integer
        compare (so single-writer runs — including the simulated figure
        workloads — never pay an extra size probe).  When the epoch has
        moved, the committed size is re-read, ``_committed_moved`` lets
        the layout drop what a concurrent committer may have retired,
        and a writable descriptor's pending size becomes max(committed,
        own writes) — both directions, since a neighbour's committed
        *truncate* legitimately shrinks it.  Without this, a reader
        would keep serving cached pre-commit bytes, and a writer whose
        neighbour committed an extension would see a stale EOF (and
        v-segment would zero-fill a "gap" right over the neighbour's
        committed bytes).

        Once this descriptor holds the whole-object lock, no other
        transaction can commit a size change (every write path locks a
        sub-range of ``[0, inf)``), so the fold is skipped and the
        descriptor's own pending size is authoritative — refreshing
        would clobber its own in-flight truncate with the stale
        committed size.  ``force`` is the one-time fold performed while
        *acquiring* that lock.
        """
        if self._whole_locked and not force:
            return
        epoch = self.db.clog.visibility_epoch
        if epoch == self._commit_epoch and not force:
            return
        self._commit_epoch = epoch
        committed = self._committed_size()
        if self._pending_size is not None:
            self._pending_size = max(committed, self._own_high)
        self._committed_moved(committed)

    def _lock_span(self, start: int, end: int) -> None:
        """EXCLUSIVE range lock covering ``[start, end)``, rounded out by
        the subclass's ``_lock_bounds``.

        Writers declare the byte range they are about to mutate; disjoint
        declarations are granted in parallel, overlapping ones block
        until the holder's transaction ends (strict 2PL).
        """
        if self._whole_locked:
            return
        lo, hi = self._lock_bounds(start, end)
        if self._locked.covers(lo, hi):
            return
        self.db.locks.acquire(self.txn.xid, lo_range(self.oid, lo, hi),
                              LockMode.EXCLUSIVE)
        self._locked.add(lo, hi)
        self._refresh_committed()

    def _lock_whole(self) -> None:
        """The whole-object ``[0, inf)`` range (truncate): conflicts with
        every concurrent writer, and makes the flushed size *exact*."""
        if self._whole_locked:
            return
        self.db.locks.acquire(self.txn.xid, lo_whole(self.oid),
                              LockMode.EXCLUSIVE)
        self._locked.add(0, None)
        # Fold the committed size one last time, then freeze: while the
        # whole lock is held nobody else can commit a size change.
        self._refresh_committed(force=True)
        self._whole_locked = True

    def _lock_from_eof(self, length: int, offset: int | None = None) -> int:
        """Lock a *length*-byte write whose span depends on the EOF;
        returns where the locked span starts.

        ``offset=None`` is an append: the write starts at the EOF itself.
        Otherwise the write starts at *offset* and the span also covers
        any gap back to a lower EOF (v-segment zero-fills it).

        The EOF is read before the lock is requested, and granting the
        lock may wait out another transaction's commit — an appender's
        extension, or a truncate holding ``[0, inf)`` — so re-check under
        the lock and go round again if the start has moved.  Once the
        span is held, later writers of it block, so the start is frozen
        and the loop exits; each retry implies another transaction
        committed a size change, so progress is guaranteed.  (``_size``
        folds committed changes in on every call.)
        """
        locked_from = None
        while True:
            eof = self._size()
            at = eof if offset is None else offset
            start = min(at, eof)
            if start == locked_from:
                return start
            self._lock_span(start, at + length)
            locked_from = start

    # -- size row --------------------------------------------------------------------

    def _size(self) -> int:
        # Another transaction's commit may have moved the object under
        # this descriptor (epoch-gated no-op in the common case).
        self._refresh_committed()
        if self._pending_size is not None:
            return self._pending_size
        return self._committed_size()

    def _note_write(self, end: int) -> None:
        """This transaction wrote bytes up to *end*."""
        self._own_high = max(self._own_high, end)
        self._pending_size = max(self._pending_size, end)

    def _note_truncate(self, size: int) -> None:
        """This transaction (holding ``[0, inf)``) set the size exactly."""
        self._own_high = size
        self._pending_size = size

    def flush(self) -> None:
        """Materialize buffered data and the pending size row.

        Called automatically on close and transaction commit; harmless
        to call at any other time.
        """
        if self._closed or self._pending_size is None:
            return
        self._flush_data()
        # Holding [0, inf) (truncate) is the only case where the size may
        # legitimately shrink; everyone else max-merges (see write_size)
        # what it *wrote* — not the pending size, whose committed part is
        # as old as this descriptor's last lock grant: one that locked
        # nothing (a zero-byte append, an "rw" open that only read) would
        # re-commit the size it was opened at over a neighbour's
        # committed truncate.
        metadata.write_size(
            self.db, self.txn, self.oid,
            self._pending_size if self._whole_locked else self._own_high,
            exact=self._whole_locked)

    def _close(self) -> None:
        if self.writable:
            self.flush()
            # A closed descriptor has nothing left to flush; leaving the
            # hook registered would pin this object (and every other
            # descriptor opened by a long transaction) until commit.
            try:
                self.txn.before_commit.remove(self.flush)
            except ValueError:
                pass
        self._close_data()

    # -- append ------------------------------------------------------------------------

    def append(self, data: bytes) -> int:
        """Write *data* at end-of-file, atomically under concurrency.

        ``seek(0, SEEK_END)`` + ``write`` computes the EOF before taking
        any lock, so two appenders that both read the same committed size
        would overwrite each other after serializing.  This re-resolves
        the EOF *under* the range lock (see :meth:`_lock_from_eof`), so
        concurrent appends land exactly once, in lock-grant order.
        """
        self._check_writable()
        data = bytes(data)
        if not data:
            return 0
        self.txn.require_active()
        start = self._lock_from_eof(len(data))
        self._write_at(start, data)
        self._pos = start + len(data)
        return len(data)
