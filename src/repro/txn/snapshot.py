"""Snapshots and the visibility rules, including time travel.

A tuple version carries ``xmin`` (inserting xid) and ``xmax`` (deleting
xid, or 0 while live).  A :class:`Snapshot` decides which versions a reader
sees:

* a **current** snapshot (``as_of is None``) sees versions inserted by a
  committed transaction that was not in progress when the snapshot was
  taken — plus the reader's own uncommitted work;
* a **time-travel** snapshot (``as_of = T``) sees the version whose commit
  interval ``[commit(xmin), commit(xmax))`` contains ``T``, ignoring all
  in-progress work.  This is the rule that gives f-chunk and v-segment
  large objects "fine-grained time travel over versions" for free;
* a **time-range** snapshot (``as_of = T1, until = T2`` — POSTQUEL's
  ``EMP["T1", "T2"]``) sees *every* version whose lifetime intersects
  ``[T1, T2]``, so a query can retrieve all historical states of an
  object across an interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.constants import INVALID_XID
from repro.txn.xlog import CommitLog, TxnStatus


@dataclass(frozen=True)
class Snapshot:
    """An immutable visibility decision procedure.

    Parameters
    ----------
    xid:
        The observing transaction's id (0 for a detached reader).
    active_xids:
        Xids in progress at snapshot creation; their effects are invisible.
    as_of:
        Historical timestamp for time travel, or ``None`` for "now".
    """

    xid: int
    active_xids: frozenset[int] = field(default_factory=frozenset)
    as_of: float | None = None
    #: Upper bound of a time-range snapshot; ``None`` means a point query
    #: at ``as_of``.  Only meaningful when ``as_of`` is set.
    until: float | None = None
    #: Xids at or above this began after the snapshot; their effects are
    #: invisible even once they commit (the snapshot's future horizon).
    xid_ceiling: int = 2**63

    def travelling(self) -> bool:
        """Whether this snapshot reads a historical state."""
        return self.as_of is not None

    # -- component rules --------------------------------------------------------

    def _xid_did_commit_for_me(self, xid: int, clog: CommitLog) -> bool:
        """Whether *xid*'s effects are settled-and-visible to this snapshot."""
        if xid == self.xid:
            return True  # my own work
        if xid in self.active_xids:
            return False  # concurrent: invisible regardless of later fate
        if xid >= self.xid_ceiling:
            return False  # began after this snapshot was taken
        return clog.status(xid) == TxnStatus.COMMITTED

    def sees_deletion(self, xmax: int, clog: CommitLog) -> bool:
        """Whether this snapshot sees the deletion *xmax* (nonzero) as done,
        hiding the version whatever its ``xmin``: both rules' ``xmax`` half."""
        if self.as_of is None:
            return self._xid_did_commit_for_me(xmax, clog)
        return (clog.status(xmax) == TxnStatus.COMMITTED
                and clog.commit_time(xmax) <= self.as_of)

    def _visible_now(self, xmin: int, xmax: int, clog: CommitLog) -> bool:
        if not self._xid_did_commit_for_me(xmin, clog):
            return False
        return xmax == INVALID_XID or not self.sees_deletion(xmax, clog)

    def _visible_as_of(self, xmin: int, xmax: int, clog: CommitLog) -> bool:
        """Version lifetime [commit(xmin), commit(xmax)) must intersect
        the query interval [as_of, until] (a point when until is None)."""
        if clog.status(xmin) != TxnStatus.COMMITTED:
            return False
        upper = self.until if self.until is not None else self.as_of
        if clog.commit_time(xmin) > upper:
            return False
        return xmax == INVALID_XID or not self.sees_deletion(xmax, clog)

    # -- public entry point -------------------------------------------------------

    def is_visible(self, xmin: int, xmax: int, clog: CommitLog) -> bool:
        """Whether a tuple version stamped (*xmin*, *xmax*) is visible."""
        if self.as_of is not None:
            return self._visible_as_of(xmin, xmax, clog)
        return self._visible_now(xmin, xmax, clog)
