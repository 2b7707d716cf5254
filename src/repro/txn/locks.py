"""Two-phase locking with shared/exclusive modes and one wait policy.

A request that cannot be granted joins a FIFO wait queue and the calling
thread sleeps until a release makes it grantable.  Before sleeping, the
waiter runs **wait-for-graph deadlock detection**: as long as the new
wait edge closes a cycle, the youngest transaction in that cycle is
chosen as victim and re-detection runs — one new edge can close several
cycles at once, and each needs its own victim.  A victim's ``acquire``
raises :class:`~repro.errors.DeadlockError` (the victim's session must
then abort, which releases its locks and unblocks the survivors), and a
victimized waiter is never granted — it always wakes into the error.
Detection is synchronous and graph-based — no background thread, no
timeout heuristics — so a two-session cycle is resolved within one
wakeup.

The wait-for graph can only see transactions that are *waiting*; a
conflicting holder whose owning thread is the one about to park will
never release (that thread would be asleep), so such a request raises
:class:`~repro.errors.LockError` immediately instead of hanging.  That
rejection *is* the paper's no-wait rule wherever it can apply: the
original POSTGRES library ran transactions cooperatively in one process,
where blocking would hang the only thread, and every conflict between
transactions of one thread is rejected at once.

Locks are held until end of transaction (strict 2PL) and released in bulk
by the transaction manager, in a walk of the releaser's own grants only.
Grant order is FIFO with two exceptions that match classic lock
managers: a SHARED→EXCLUSIVE *upgrade* depends only on the other holders
(it never queues behind fresh requests, which would self-deadlock), and
compatible re-acquisition is a no-op.

Resources are identified by arbitrary hashable keys; the conventional keys
are ``("relation", name)`` and ``("losize", oid)``.  A resource may also
be a :class:`~repro.txn.rangelock.RangeResource` — a byte interval of one
object — in which case two grants conflict only when their intervals
*overlap*: disjoint-range writers to one large object proceed in
parallel, a whole-object ``[0, inf)`` range conflicts with everyone.  All
ranges of an object share one FIFO wait queue (keyed by the range's
*group*), so fairness, upgrade queue-jumping, and the wait-for graph work
across granularities.  A holder extending its own coverage (requesting a
range that overlaps something it already holds) is treated like an
upgrade: it waits only on conflicting holders, never behind queued fresh
requests, which would self-deadlock.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Hashable

from repro.errors import DeadlockError, LockError
from repro.txn import lockdep
from repro.txn.rangelock import RangeResource


class LockMode(enum.Enum):
    """Lock compatibility: SHARED conflicts only with EXCLUSIVE."""

    SHARED = "shared"
    EXCLUSIVE = "exclusive"


def _compatible(held: LockMode, wanted: LockMode) -> bool:
    return held is LockMode.SHARED and wanted is LockMode.SHARED


def _queue_key(resource: Hashable) -> Hashable:
    """The wait-queue key: ranges of one object share a queue."""
    return resource.group if isinstance(resource, RangeResource) else resource


def _resources_conflict(a: Hashable, b: Hashable) -> bool:
    """Whether grants on *a* and *b* can conflict at all (key level)."""
    if isinstance(a, RangeResource):
        return isinstance(b, RangeResource) and a.overlaps(b)
    return a == b


@dataclass
class LockStats:
    """Counters surfaced through ``db.statistics()["locks"]``."""

    #: Requests granted without blocking (includes no-op re-acquires).
    granted_immediately: int = 0
    #: Requests that had to join a wait queue.
    waits: int = 0
    #: Wall-clock seconds spent blocked, summed over all waiters.
    wait_time: float = 0.0
    #: Wait-for cycles found by the detector.
    deadlocks_detected: int = 0
    #: Waiters that raised :class:`DeadlockError` as the chosen victim.
    victims: int = 0
    #: SHARED → EXCLUSIVE upgrades granted.
    upgrades: int = 0
    #: Locks dropped by :meth:`LockManager.release_all`.
    released: int = 0
    #: Byte-range lock requests granted (immediately or after a wait).
    range_locks: int = 0
    #: Byte-range lock requests that had to join a wait queue — the
    #: "disjoint writers do not serialize" metric: parallel writers to
    #: non-overlapping regions leave this at zero.
    range_waits: int = 0


class _Waiter:
    """One blocked ``acquire`` call, parked in a resource's FIFO queue."""

    __slots__ = ("xid", "resource", "mode", "upgrade", "granted", "victim",
                 "cycle", "grant_count")

    def __init__(self, xid: int, resource: Hashable, mode: LockMode,
                 upgrade: bool):
        self.xid = xid
        self.resource = resource
        self.mode = mode
        #: The waiter already holds a grant on this resource (classic
        #: SHARED→EXCLUSIVE upgrade) or on an overlapping range (a holder
        #: extending its coverage); either way it must wait only on the
        #: conflicting holders, never behind queued fresh requests.
        self.upgrade = upgrade
        self.granted = False
        self.victim = False
        self.cycle: list[int] | None = None
        #: Times a grant pass woke this waiter; must end up exactly 1.
        self.grant_count = 0


class LockManager:
    """Grant table + wait queues mapping resource keys to holder xids."""

    def __init__(self) -> None:
        self.stats = LockStats()
        self._cond = threading.Condition(threading.Lock())
        #: resource -> {xid: mode}; a key is present only while held
        self._grants: dict[Hashable, dict[int, LockMode]] = {}
        #: xid -> {resource: mode}: the same grants by holder, so a
        #: release walks only the releaser's own locks
        self._held: dict[int, dict[Hashable, LockMode]] = {}
        #: range group -> granted RangeResources of that object (the
        #: conflict scan for a range walks its group, not the whole table)
        self._groups: dict[Hashable, set[RangeResource]] = {}
        #: queue key (resource, or range group) -> FIFO of blocked requests
        self._waiters: dict[Hashable, list[_Waiter]] = {}
        #: xid -> ident of the thread that last acquired for it; lets a
        #: blocking request detect that its wait chain dead-ends in a
        #: transaction its own (about-to-park) thread controls.
        self._xid_threads: dict[int, int] = {}

    # -- acquisition ---------------------------------------------------------------

    def acquire(self, xid: int, resource: Hashable, mode: LockMode) -> None:
        """Grant *mode* on *resource* to *xid*, waiting if necessary.

        Re-acquiring an already-held mode is a no-op; holding SHARED and
        asking for EXCLUSIVE upgrades when no other transaction holds the
        lock.  An ungrantable request sleeps until granted, raises
        :class:`DeadlockError` if this transaction is picked as a deadlock
        victim, or :class:`LockError` at once if the wait depends on a
        transaction the calling thread itself controls.
        """
        if lockdep.VALIDATOR.armed:
            # Raises LockOrderError *before* we can park: a heavy-lock
            # wait while holding the latch or a mutex is a hierarchy
            # violation regardless of whether this request would block.
            lockdep.VALIDATOR.heavy_acquiring(xid, resource)
        with self._cond:
            self._xid_threads[xid] = threading.get_ident()
            if self._try_grant(xid, resource, mode):
                self.stats.granted_immediately += 1
                if isinstance(resource, RangeResource):
                    self.stats.range_locks += 1
                return
            self._wait(xid, resource, mode)
            if isinstance(resource, RangeResource):
                self.stats.range_locks += 1

    def _wait(self, xid: int, resource: Hashable, mode: LockMode) -> None:
        """Park the caller until granted or victimized.

        Runs with ``self._cond`` held (re-taken around each sleep).
        """
        waiter = _Waiter(xid, resource, mode,
                         upgrade=self._holds_conflictable(xid, resource))
        self._waiters.setdefault(_queue_key(resource), []).append(waiter)
        blocker = self._same_thread_blocker(xid)
        if blocker is not None:
            self._remove_waiter(waiter)
            raise LockError(
                f"txn {xid} cannot wait for {mode.value} lock on "
                f"{resource!r}: the wait depends on txn {blocker}, which "
                f"this same thread controls and could never release while "
                f"parked (self-deadlock)")
        self.stats.waits += 1
        if isinstance(resource, RangeResource):
            self.stats.range_waits += 1
        # Lock waits block real threads, and the simulated clock does
        # not advance while a thread sleeps — ``wait_time`` must
        # measure real elapsed (monotonic) time.
        started = time.monotonic()
        # One new wait edge can close several cycles; victimize one
        # transaction per cycle until none remains through us.  Each pass
        # marks a previously unmarked waiter (victims drop out of the
        # graph), so the loop terminates.
        while (cycle := self._find_cycle(xid)) is not None:
            self._victimize(cycle)
        try:
            while not waiter.granted and not waiter.victim:
                self._cond.wait()
        finally:
            # Real blocked-thread time, see above.
            self.stats.wait_time += time.monotonic() - started
            if not waiter.granted:
                self._remove_waiter(waiter)
        if waiter.granted:
            return
        self.stats.victims += 1
        raise DeadlockError(
            f"txn {xid} chosen as deadlock victim waiting for "
            f"{mode.value} lock on {resource!r} "
            f"(wait-for cycle: {waiter.cycle})")

    # -- overlap-aware grant-table queries -------------------------------------------

    def _conflictable_resources(self, resource: Hashable):
        """Granted resource keys whose grants can conflict with *resource*.

        For a plain key, only the key itself; for a range, every granted
        range of the same group that overlaps it.
        """
        if isinstance(resource, RangeResource):
            return [res for res in self._groups.get(resource.group, ())
                    if resource.overlaps(res)]
        return [resource] if resource in self._grants else []

    def _conflicting_holders(self, xid: int, resource: Hashable,
                             mode: LockMode) -> dict[int, LockMode]:
        """Other transactions whose grants block this request."""
        out: dict[int, LockMode] = {}
        for res in self._conflictable_resources(resource):
            for x, m in self._grants.get(res, {}).items():
                if x != xid and not _compatible(m, mode):
                    # Report the strongest conflicting mode per holder.
                    if out.get(x) is not LockMode.EXCLUSIVE:
                        out[x] = m
        return out

    def _holds_conflictable(self, xid: int, resource: Hashable) -> bool:
        """Whether *xid* already holds the key (or an overlapping range)."""
        return any(xid in self._grants.get(res, {})
                   for res in self._conflictable_resources(resource))

    def _record_grant(self, xid: int, resource: Hashable,
                      mode: LockMode) -> None:
        self._grants.setdefault(resource, {})[xid] = mode
        self._held.setdefault(xid, {})[resource] = mode
        if isinstance(resource, RangeResource):
            self._groups.setdefault(resource.group, set()).add(resource)

    def _queue_blocks(self, resource: Hashable, mode: LockMode,
                      earlier: _Waiter) -> bool:
        """Whether FIFO fairness parks this request behind *earlier*."""
        if earlier.mode is LockMode.SHARED and mode is LockMode.SHARED:
            return False
        return _resources_conflict(earlier.resource, resource)

    def _try_grant(self, xid: int, resource: Hashable,
                   mode: LockMode) -> bool:
        """Grant immediately if compatible with holders and queue fairness.

        One walk of the granted keys that can conflict with *resource*
        finds whether a grant of *xid* already subsumes the request, whether
        another holder conflicts, and whether *xid* is extending its own
        coverage (and, holding the very key SHARED, upgrading it).  The
        table never holds two conflicting grants, so a conflicting holder
        and a covering grant of *xid* never meet: the first one found
        decides.
        """
        extending = upgrade = False
        for res in self._conflictable_resources(resource):
            holders = self._grants[res]
            held = holders.get(xid)
            if held is not None:
                if (held is LockMode.EXCLUSIVE or held is mode) and (
                        res is resource or res.contains(resource)):
                    return True
                extending = True
                upgrade = upgrade or res == resource
            if len(holders) > (held is not None) and (
                    mode is LockMode.EXCLUSIVE or any(
                        m is LockMode.EXCLUSIVE
                        for x, m in holders.items() if x != xid)):
                return False
        if not extending and self._waiters:
            # Fairness: a fresh request never overtakes a conflicting
            # waiter (victims are leaving, not waiting — they don't
            # count).  A holder extending its coverage skips the queue,
            # like an upgrade: parking behind a request that conflicts
            # with its existing grant would self-deadlock.
            for earlier in self._waiters.get(_queue_key(resource), ()):
                if earlier.victim:
                    continue
                if self._queue_blocks(resource, mode, earlier):
                    return False
        if upgrade:
            self.stats.upgrades += 1
        self._record_grant(xid, resource, mode)
        return True

    # -- wait-queue service ----------------------------------------------------------

    def _grantable_queued(self, waiter: _Waiter) -> bool:
        resource = waiter.resource
        if self._conflicting_holders(waiter.xid, resource, waiter.mode):
            return False
        if waiter.upgrade:  # upgrade/extension: depends only on holders
            return True
        for earlier in self._waiters.get(_queue_key(resource), ()):
            if earlier is waiter:
                return True
            if earlier.victim:  # leaving, not waiting
                continue
            if self._queue_blocks(resource, waiter.mode, earlier):
                return False
        return True

    def _grant_waiters(self, queue_key: Hashable) -> bool:
        """Grant every now-eligible waiter on *queue_key* (FIFO, upgrades
        by holder-compatibility).  Returns whether anything was granted.

        A victimized waiter is never granted, even if the conflict has
        cleared by the time it would be eligible: its ``acquire`` must
        raise so ``victims`` stays in lockstep with ``deadlocks_detected``
        and the caller's abort actually happens."""
        queue = self._waiters.get(queue_key)
        if not queue:
            return False
        granted_any = False
        progress = True
        while progress:
            progress = False
            for waiter in list(queue):
                if waiter.victim:
                    continue
                if not self._grantable_queued(waiter):
                    continue
                mode = waiter.mode
                if waiter.xid in self._grants.get(waiter.resource, ()):
                    self.stats.upgrades += 1
                    mode = LockMode.EXCLUSIVE
                self._record_grant(waiter.xid, waiter.resource, mode)
                queue.remove(waiter)
                waiter.granted = True
                waiter.grant_count += 1
                granted_any = progress = True
        if not queue:
            del self._waiters[queue_key]
        return granted_any

    def _remove_waiter(self, waiter: _Waiter) -> None:
        queue_key = _queue_key(waiter.resource)
        queue = self._waiters.get(queue_key)
        if queue is None or waiter not in queue:
            return
        queue.remove(waiter)
        if not queue:
            del self._waiters[queue_key]
        # Our departure may unblock waiters that were queued behind us.
        elif self._grant_waiters(queue_key):
            self._cond.notify_all()

    # -- deadlock detection ------------------------------------------------------------

    def _waits_for(self) -> dict[int, set[int]]:
        """The wait-for graph: waiter xid → xids it cannot proceed past.

        Edges run to every conflicting *holder* and — for fresh requests,
        which queue FIFO — to every conflicting *earlier waiter* (that
        waiter will become a holder first).  Upgrades wait only on the
        other holders; the queue cannot delay them.  Victimized waiters
        are no longer waiting (they are about to wake and abort), so they
        contribute no edges in either direction — every cycle through a
        victim is already broken, and leaving its edges in would make
        re-detection find the same cycle forever.
        """
        edges: dict[int, set[int]] = defaultdict(set)
        for queue in self._waiters.values():
            for position, waiter in enumerate(queue):
                if waiter.victim:
                    continue
                for xid in self._conflicting_holders(
                        waiter.xid, waiter.resource, waiter.mode):
                    edges[waiter.xid].add(xid)
                if waiter.upgrade:
                    continue
                for earlier in queue[:position]:
                    if earlier.victim or earlier.xid == waiter.xid:
                        continue
                    if self._queue_blocks(waiter.resource, waiter.mode,
                                          earlier):
                        edges[waiter.xid].add(earlier.xid)
        return edges

    def _find_cycle(self, start: int) -> list[int] | None:
        """A wait-for cycle through *start*, or ``None``.

        Any new cycle must pass through the transaction that just blocked
        (edges are only added when an ``acquire`` blocks), so searching
        from *start* is complete.
        """
        edges = self._waits_for()
        stack: list[tuple[int, list[int]]] = [(start, [start])]
        visited: set[int] = set()
        while stack:
            node, path = stack.pop()
            for succ in edges.get(node, ()):
                if succ == start:
                    return path
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, path + [succ]))
        return None

    def _same_thread_blocker(self, start: int) -> int | None:
        """An xid blocking *start* whose owning thread is the caller's.

        Follows the wait-for graph from *start* across waiters to the
        holders at the chain's ends.  Any transaction reached that this
        very thread controls can never release — the thread is about to
        park — yet it is not *waiting*, so no cycle exists for the
        deadlock detector to break.  The caller must refuse to wait.
        """
        me = threading.get_ident()
        edges = self._waits_for()
        stack = [start]
        seen = {start}
        while stack:
            node = stack.pop()
            for succ in edges.get(node, ()):
                if succ in seen:
                    continue
                seen.add(succ)
                if self._xid_threads.get(succ) == me:
                    return succ
                stack.append(succ)
        return None

    def _victimize(self, cycle: list[int]) -> None:
        """Abort-by-exception the youngest (highest-xid) cycle member.

        Every cycle member is blocked in ``acquire`` by construction, so
        the victim is always a parked waiter we can wake with an error.
        """
        self.stats.deadlocks_detected += 1
        victim_xid = max(cycle)
        for queue in self._waiters.values():
            for waiter in queue:
                if waiter.xid == victim_xid and not waiter.victim:
                    waiter.victim = True
                    waiter.cycle = sorted(cycle)
                    self._cond.notify_all()
                    return

    # -- release -----------------------------------------------------------------------

    def release_all(self, xid: int) -> int:
        """Drop every lock held by *xid* (end of transaction), walking
        only its own grants, and grant any waiters that become eligible.
        Each blocked waiter is woken (granted) at most once.  Returns the
        number of locks released."""
        if lockdep.VALIDATOR.armed:
            lockdep.VALIDATOR.heavy_released_all(xid)
        with self._cond:
            self._xid_threads.pop(xid, None)
            held = self._held.pop(xid, {})
            for resource in held:
                holders = self._grants[resource]
                del holders[xid]
                if not holders:
                    del self._grants[resource]
                    if isinstance(resource, RangeResource):
                        group = self._groups[resource.group]
                        group.discard(resource)
                        if not group:
                            del self._groups[resource.group]
            if self._waiters:
                touched = [_queue_key(resource) for resource in held]
                # A txn aborted from outside acquire() may still have a
                # parked waiter (e.g. a victimized thread racing its own
                # cleanup).
                for queue_key, queue in list(self._waiters.items()):
                    kept = [w for w in queue if w.xid != xid]
                    if len(kept) != len(queue):
                        self._waiters[queue_key] = kept
                        if not kept:
                            del self._waiters[queue_key]
                        touched.append(queue_key)
                woke = False
                for queue_key in touched:
                    woke |= self._grant_waiters(queue_key)
                if woke or held:
                    self._cond.notify_all()
            self.stats.released += len(held)
            return len(held)

    # -- introspection --------------------------------------------------------------------

    def held(self, xid: int) -> dict[Hashable, LockMode]:
        """*xid*'s grants (resource → mode), live, read unlocked: only
        *xid*'s thread adds to them (or grants it while it is parked)."""
        return self._held.get(xid, {})

    def holds(self, xid: int, resource: Hashable,
              mode: LockMode | None = None) -> bool:
        """Whether *xid* holds a lock (of *mode*, if given) on *resource*."""
        with self._cond:
            held = self._grants.get(resource, {}).get(xid)
        if held is None:
            return False
        if mode is None:
            return True
        return held is mode or held is LockMode.EXCLUSIVE

    def holders(self, resource: Hashable) -> dict[int, LockMode]:
        """Current holders of *resource* (copy)."""
        with self._cond:
            return dict(self._grants.get(resource, {}))

    def holds_overlapping(self, xid: int, resource: Hashable) -> bool:
        """Whether *xid* holds any grant that can conflict with *resource*
        (for a range: any granted overlapping range of the same object)."""
        with self._cond:
            return self._holds_conflictable(xid, resource)

    def waiting(self, resource: Hashable | None = None) -> list[tuple]:
        """Parked requests, as ``(xid, resource, mode)``, FIFO per queue.

        *resource* may be a plain key, a :class:`RangeResource` (its
        group's queue is reported), or a range group key directly.
        """
        with self._cond:
            queues = ([(resource, self._waiters.get(_queue_key(resource),
                                                    []))]
                      if resource is not None
                      else list(self._waiters.items()))
            return [(w.xid, w.resource, w.mode)
                    for _res, queue in queues for w in queue]

    def grant_table_empty(self) -> bool:
        """Whether no locks are held and no waiters are parked."""
        with self._cond:
            return not self._waiters and not self._grants
