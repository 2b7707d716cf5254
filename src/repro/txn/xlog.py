"""The commit log (``pg_log``): every transaction's fate, and when.

POSTGRES records two bits per transaction id; we also record the commit
*timestamp*, which classic POSTGRES kept in a companion structure (the TIME
relation) and which time travel needs.  The log is append-only on disk —
one fixed-size record per status change — and replayed on open, so a
database directory can be closed and reopened (or "crashed" mid-transaction:
an xid with no commit record is treated as aborted, which is exactly the
no-overwrite recovery story).
"""

from __future__ import annotations

import enum
import os
import struct
import threading

from repro.errors import TransactionError
from repro.storage.constants import FIRST_XID, INVALID_XID
from repro.txn.lockdep import LockdepMutex


class TxnStatus(enum.IntEnum):
    """Fate of a transaction id."""

    IN_PROGRESS = 0
    COMMITTED = 1
    ABORTED = 2


_RECORD = struct.Struct("<QBd7x")  # xid, status, commit_time, pad to 24

#: Record-type byte for xid high-water-mark records (not a TxnStatus).
_HWM_RECORD = 0xF0

#: Xids are reserved from the log in batches of this size, so a crash can
#: never lead to reusing an xid that stamped tuples on disk.
_XID_BATCH = 64


class CommitLog:
    """Append-only transaction status log with commit times.

    Parameters
    ----------
    path:
        File to persist records to, or ``None`` for a purely in-memory log
        (used by throwaway benchmark databases).
    """

    def __init__(self, path: str | None = None):
        self.path = path
        #: Serializes xid allocation and record appends across sessions —
        #: concurrent commits must not interleave torn half-records, and an
        #: xid must never be handed to two threads.
        self._mutex = LockdepMutex("mutex:xlog")
        self._status: dict[int, TxnStatus] = {}
        self._commit_time: dict[int, float] = {}
        #: Monotonic counter bumped on every commit/abort.  Consumers use
        #: it as a visibility-epoch token: a value cached while the epoch
        #: was E is still trustworthy iff the epoch is still E (nothing
        #: changed fate in between, so no snapshot's view moved).
        self.visibility_epoch = 0
        self._next_xid = FIRST_XID
        self._reserved_until = FIRST_XID  # exclusive upper bound on disk
        self._handle = None
        #: Optional fault plan consulted before each record append (the
        #: crash harness's torn-tail / die-before-log injection points).
        self._fault_plan = None
        if path is not None:
            self._replay()
            self._next_xid = max(self._next_xid, self._reserved_until)
            # repro: allow(R003): pg_log is the durability root — the
            # commit record must hit the platter before smgr-cached data
            # counts, so it bypasses the switch by design (fault
            # injection hooks it via set_fault_plan instead).
            self._handle = open(path, "ab")

    def set_fault_plan(self, plan) -> None:
        """Arm (or with ``None`` disarm) a fault plan over record appends."""
        self._fault_plan = plan

    # -- persistence -----------------------------------------------------------

    def _replay(self) -> None:
        if not os.path.exists(self.path):
            return
        # repro: allow(R003): replaying the raw pg_log file (see above).
        with open(self.path, "rb") as fh:
            data = fh.read()
        usable = len(data) - (len(data) % _RECORD.size)  # drop torn tail
        if usable != len(data):
            # Physically discard the torn tail: appending behind it would
            # leave every later record misaligned and unreadable.
            os.truncate(self.path, usable)
        for pos in range(0, usable, _RECORD.size):
            xid, status, commit_time = _RECORD.unpack_from(data, pos)
            if status == _HWM_RECORD:
                self._reserved_until = max(self._reserved_until, xid)
                continue
            self._status[xid] = TxnStatus(status)
            if status == TxnStatus.COMMITTED:
                self._commit_time[xid] = commit_time
            self._next_xid = max(self._next_xid, xid + 1)

    def _append(self, xid: int, status: TxnStatus, commit_time: float) -> None:
        if self._handle is None:
            return
        record = _RECORD.pack(xid, status, commit_time)
        if self._fault_plan is not None:
            rule = self._fault_plan.check("append", "pg_log")
            if rule is not None:
                if rule.action == "torn":
                    # The record made it to disk only partially — exactly
                    # what a crash mid-append leaves; replay drops it.
                    self._handle.write(record[:rule.keep_bytes])
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
                self._fault_plan.fire(
                    rule, f"pg_log append for xid {xid}")
        self._handle.write(record)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the backing file (records already written are durable)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- xid allocation -----------------------------------------------------------

    def allocate_xid(self) -> int:
        """Hand out the next transaction id and mark it in progress.

        Before crossing the on-disk reservation boundary, a high-water-mark
        record reserving the next batch of xids is forced to the log, so no
        xid can ever be handed out twice across a crash.  Allocation is
        thread-safe: concurrent sessions each get a distinct xid.
        """
        with self._mutex:
            xid = self._next_xid
            if self._handle is not None and xid >= self._reserved_until:
                self._reserved_until = xid + _XID_BATCH
                self._handle.write(
                    _RECORD.pack(self._reserved_until, _HWM_RECORD, 0.0))
                self._handle.flush()
                os.fsync(self._handle.fileno())
            self._next_xid += 1
            self._status[xid] = TxnStatus.IN_PROGRESS
            return xid

    # -- status transitions ---------------------------------------------------------

    def set_committed(self, xid: int, commit_time: float) -> None:
        """Record that *xid* committed at *commit_time*.

        The record is forced to disk *before* the in-memory status flips:
        a commit that never became durable must never become visible.
        """
        with self._mutex:
            self._require_in_progress(xid)
            self._append(xid, TxnStatus.COMMITTED, commit_time)
            self._status[xid] = TxnStatus.COMMITTED
            self._commit_time[xid] = commit_time
            self.visibility_epoch += 1

    def set_aborted(self, xid: int) -> None:
        """Record that *xid* aborted."""
        with self._mutex:
            self._require_in_progress(xid)
            self._append(xid, TxnStatus.ABORTED, 0.0)
            self._status[xid] = TxnStatus.ABORTED
            self.visibility_epoch += 1

    def bump_visibility_epoch(self) -> None:
        """Invalidate epoch-keyed caches after physical reorganization.

        Vacuum prunes dead tuples and their index entries without any
        transaction changing fate, so a writer's epoch-gated known-TID
        map would otherwise chase freed slots.
        """
        with self._mutex:
            self.visibility_epoch += 1

    def _require_in_progress(self, xid: int) -> None:
        status = self.status(xid)
        if status != TxnStatus.IN_PROGRESS:
            raise TransactionError(
                f"transaction {xid} is already {status.name}")

    # -- queries ---------------------------------------------------------------------

    def status(self, xid: int) -> TxnStatus:
        """The fate of *xid*.

        Unknown non-zero xids are **aborted**: after a crash, a transaction
        that never wrote its commit record never happened.
        """
        if xid == INVALID_XID:
            raise TransactionError("the invalid xid has no status")
        return self._status.get(xid, TxnStatus.ABORTED)

    def is_committed(self, xid: int) -> bool:
        return self.status(xid) == TxnStatus.COMMITTED

    def commit_time(self, xid: int) -> float:
        """Commit timestamp of a committed *xid*."""
        if xid not in self._commit_time:
            raise TransactionError(f"transaction {xid} has no commit time "
                                   f"(status {self.status(xid).name})")
        return self._commit_time[xid]

    @property
    def next_xid(self) -> int:
        """The next xid that will be allocated (snapshot ceilings)."""
        return self._next_xid

    def in_progress_xids(self) -> set[int]:
        """All xids currently marked in progress."""
        return {xid for xid, st in self._status.items()
                if st == TxnStatus.IN_PROGRESS}
