"""``pg_largeobject`` size-row bookkeeping, shared by every chunked
implementation.

A chunked large object's only mutable scalar state — its byte size —
lives as a row in the ``pg_largeobject`` system class, where no-overwrite
versioning makes it roll back on abort and travel in time along with the
chunks.  f-chunk descriptors, v-segment descriptors, and the manager's
unlink path all read and update that row; the helpers here are the one
copy of that logic, built on the scan descriptors of
:mod:`repro.access.scan` (which own the engine-latch discipline).  A
v-segment's byte store keeps no row: its size is where its last chunk
ends (:func:`repro.lo.vsegment.store_size`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.access.scan import IndexProbe
from repro.access.tuples import HeapTuple
from repro.db import PG_LARGEOBJECT
from repro.errors import LargeObjectError
from repro.txn.locks import LockMode
from repro.txn.snapshot import Snapshot

if TYPE_CHECKING:
    from repro.db import Database
    from repro.txn.manager import Transaction

#: B-tree on ``pg_largeobject.loid`` (created at bootstrap).
SIZE_INDEX = "pg_largeobject_loid"


@dataclass
class LargeObjectCacheStats:
    """Hit/miss counters for the descriptor-level decompressed caches.

    One instance lives on the :class:`~repro.lo.manager.LargeObjectManager`
    and aggregates across every descriptor, f-chunk read caches and
    v-segment segment caches alike; ``db.statistics()["largeobjects"]``
    reports it.
    """

    read_cache_hits: int = 0        # f-chunk _read_cache
    read_cache_misses: int = 0
    segment_cache_hits: int = 0     # v-segment _segment_cache
    segment_cache_misses: int = 0


def _probe(db: "Database", oid: int) -> IndexProbe:
    return IndexProbe(db, db.get_index(SIZE_INDEX),
                      db.get_class(PG_LARGEOBJECT), oid)


def size_row(db: "Database", oid: int, snapshot: Snapshot) -> HeapTuple:
    """The visible ``pg_largeobject`` row of *oid*; raises if absent.

    Every commit that moves the size leaves one more dead version under
    the same ``loid`` key, and exactly one version is visible to any
    snapshot, so this is :meth:`IndexProbe.first
    <repro.access.scan.IndexProbe.first>`: it reaches the live version
    from the newest end of that run and its cost does not grow with the
    object's history.
    """
    row = _probe(db, oid).first(snapshot)
    if row is None:
        raise LargeObjectError(
            f"large object {oid} has no size record "
            f"(not visible to this snapshot?)")
    return row


def size_rows(db: "Database", oid: int,
              snapshot: Snapshot) -> list[HeapTuple]:
    """Every visible size-row version (unlink deletes each one)."""
    return _probe(db, oid).tuples(snapshot)


def read_size(db: "Database", oid: int, snapshot: Snapshot) -> int:
    """The object's byte size as of *snapshot*."""
    return size_row(db, oid, snapshot).values[1]


def write_size(db: "Database", txn: "Transaction", oid: int,
               size: int, *, exact: bool = False) -> None:
    """Persist *size* as a new row version, if it changed.

    Disjoint-range writers commit concurrently, so by default the stored
    size is **max-merged** under a short EXCLUSIVE ``("losize", oid)``
    lock: each committer folds in its own high-water mark and can never
    regress another's extension.  ``exact=True`` stores *size* verbatim —
    only for callers holding the whole-object ``[0, inf)`` range lock
    (truncate), where a shrink is legitimate and no concurrent writer can
    exist.
    """
    # Sampled *before* the row read: a neighbour that commits its size
    # replace between the two must be noticed under the lock, or we
    # would replace a row version that is already dead.
    epoch = db.clog.visibility_epoch
    row = size_row(db, oid, db.snapshot(txn))
    if not exact and row.values[1] >= size:
        return  # our high-water mark is already (or about to be) merged
    db.locks.acquire(txn.xid, ("losize", oid), LockMode.EXCLUSIVE)
    if db.clog.visibility_epoch != epoch:
        # The lock waited out another committer; re-read under the lock.
        row = size_row(db, oid, db.snapshot(txn))
    new = size if exact else max(size, row.values[1])
    if row.values[1] != new:
        db.replace(txn, PG_LARGEOBJECT, row.tid, (oid, new))
        # What the transaction's own descriptors of *oid* gate on: the
        # epoch moves only when the transaction ends.
        txn.size_writes.setdefault(oid, [0])[0] += 1
