"""Property-based tests of the lock manager.

The lock manager is the kernel of the concurrency upgrade, so its
invariants get hypothesis treatment: under *any* sequence of no-wait
acquires and releases — on plain keys and on byte ranges of two
objects — the grant table must respect the compatibility matrix (two
overlapping ranges conflict like one key), upgrades must follow the
only-sharer rule, every decision must be the one the three-walk grant
test below makes, and releasing everything must leave the table, the
per-transaction index and the range groups empty.  A separate threaded
property checks the blocking path: ``release_all`` wakes each waiter
exactly once.
"""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LockError
from repro.txn.locks import (LockManager, LockMode, _queue_key,
                              _resources_conflict)
from repro.txn.rangelock import RangeResource, lo_range, lo_whole

XIDS = st.integers(1, 4)
OIDS = st.sampled_from([1, 2])
RANGES = st.one_of(
    st.builds(lambda oid, start, length: lo_range(oid, start, start + length),
              OIDS, st.integers(0, 6), st.integers(1, 4)),
    st.builds(lambda oid, start: lo_range(oid, start, None),
              OIDS, st.integers(0, 6)),
    st.builds(lo_whole, OIDS),
)
RESOURCES = st.one_of(st.sampled_from(["A", "B", "C"]), RANGES)
MODES = st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE])

#: (kind, xid, resource, mode) — kind True = acquire, False = release_all.
op_strategy = st.lists(
    st.tuples(st.booleans(), XIDS, RESOURCES, MODES),
    min_size=1, max_size=40,
)


def _table_is_consistent(locks: LockManager) -> None:
    """The grant table obeys the compatibility matrix at all times: no two
    transactions hold one key, or two overlapping ranges, when either
    grant is EXCLUSIVE."""
    grants = [(resource, xid, mode)
              for resource, holders in locks._grants.items()
              for xid, mode in holders.items()]
    for at, (res_a, xid_a, mode_a) in enumerate(grants):
        for res_b, xid_b, mode_b in grants[at + 1:]:
            if xid_a == xid_b or not _resources_conflict(res_a, res_b):
                continue
            assert mode_a is mode_b is LockMode.SHARED, (
                f"{mode_a.value} {res_a!r} of txn {xid_a} coexists with "
                f"{mode_b.value} {res_b!r} of txn {xid_b}")


def _covered(locks: LockManager, xid: int, resource, mode) -> bool:
    """Whether a grant of *xid* subsumes *mode* on *resource*: the key
    itself, or for a range any range containing it."""
    return any(
        (held is LockMode.EXCLUSIVE or held is mode) and (
            res == resource or isinstance(res, RangeResource)
            and isinstance(resource, RangeResource) and res.contains(resource))
        for res, held in locks._held.get(xid, {}).items())


def _released_everything(locks: LockManager) -> None:
    for xid in range(1, 5):
        locks.release_all(xid)
    assert locks.grant_table_empty()
    assert not locks.waiting()
    assert not locks._held and not locks._groups


def reference_try_grant(locks: LockManager, xid: int, resource,
                        mode: LockMode) -> tuple[bool, bool]:
    """The no-wait grant decision as the lock manager made it before it kept
    a per-transaction index: ``(granted, counts an upgrade)``, from three
    walks of the conflictable grants (covered?  conflicting holder?  my own
    overlapping grant?) and the FIFO fairness test.  Reads the manager's
    tables and changes nothing."""
    grants = locks._grants

    def conflictable():
        if isinstance(resource, RangeResource):
            return [res for res in locks._groups.get(resource.group, ())
                    if resource.overlaps(res)]
        return [resource] if resource in grants else []

    held = grants.get(resource, {}).get(xid)
    if held is LockMode.EXCLUSIVE or held is mode:
        return True, False
    if isinstance(resource, RangeResource):
        for res in locks._groups.get(resource.group, ()):
            m = grants.get(res, {}).get(xid)
            if (m is LockMode.EXCLUSIVE or m is mode) and res.contains(resource):
                return True, False
    for res in conflictable():
        for x, m in grants.get(res, {}).items():
            if x != xid and not (m is mode is LockMode.SHARED):
                return False, False
    extending = any(xid in grants.get(res, {}) for res in conflictable())
    if not extending:
        for earlier in locks._waiters.get(_queue_key(resource), ()):
            if earlier.victim:
                continue
            if not (earlier.mode is mode is LockMode.SHARED) and \
                    _resources_conflict(earlier.resource, resource):
                return False, False
    return True, held is LockMode.SHARED and mode is LockMode.EXCLUSIVE


@settings(max_examples=200, deadline=None)
@given(ops=op_strategy)
def test_property_compatibility_matrix_holds(ops):
    """No interleaving of no-wait acquires breaks SHARED/EXCLUSIVE rules."""
    locks = LockManager()
    for is_acquire, xid, resource, mode in ops:
        if is_acquire:
            try:
                locks.acquire(xid, resource, mode)
            except LockError:
                pass  # rejection is the no-wait contract, not a failure
        else:
            locks.release_all(xid)
        _table_is_consistent(locks)
    _released_everything(locks)


@settings(max_examples=300, deadline=None)
@given(ops=op_strategy)
def test_property_decisions_match_the_reference(ops):
    """Every no-wait decision (and every upgrade it counts) is the one the
    three-walk reference makes on the same table."""
    locks = LockManager()
    for is_acquire, xid, resource, mode in ops:
        if not is_acquire:
            locks.release_all(xid)
            continue
        expected, upgrade = reference_try_grant(locks, xid, resource, mode)
        upgrades = locks.stats.upgrades
        try:
            locks.acquire(xid, resource, mode)
            granted = True
        except LockError:
            granted = False
        assert granted == expected, (xid, resource, mode)
        assert locks.stats.upgrades - upgrades == upgrade
        assert granted <= _covered(locks, xid, resource, mode)
    _released_everything(locks)


@settings(max_examples=200, deadline=None)
@given(ops=op_strategy)
def test_property_upgrade_only_when_sole_holder(ops):
    """A granted SHARED→EXCLUSIVE upgrade implies no other holder existed."""
    locks = LockManager()
    for is_acquire, xid, resource, mode in ops:
        if not is_acquire:
            locks.release_all(xid)
            continue
        held_shared = locks.holds(xid, resource, LockMode.SHARED)
        others = [x for x in locks.holders(resource) if x != xid]
        try:
            locks.acquire(xid, resource, mode)
        except LockError:
            continue
        if mode == LockMode.EXCLUSIVE and held_shared:
            assert not others, (
                f"xid {xid} upgraded {resource!r} past holders {others}")
        assert _covered(locks, xid, resource, mode)


@settings(max_examples=100, deadline=None)
@given(ops=op_strategy, releases=st.permutations([1, 2, 3, 4]))
def test_property_release_order_irrelevant(ops, releases):
    """Whatever happened, releasing every xid empties the table."""
    locks = LockManager()
    acquired = 0
    for is_acquire, xid, resource, mode in ops:
        if is_acquire:
            try:
                locks.acquire(xid, resource, mode)
                acquired += 1
            except LockError:
                pass
        else:
            locks.release_all(xid)
    for xid in releases:
        locks.release_all(xid)
    assert locks.grant_table_empty()
    assert not locks._held and not locks._groups
    stats = locks.stats
    assert stats.granted_immediately <= acquired


@settings(max_examples=20, deadline=None)
@given(n_waiters=st.integers(1, 4))
def test_property_release_all_wakes_waiters_exactly_once(n_waiters):
    """Every SHARED waiter behind one EXCLUSIVE holder is granted exactly
    once when the holder releases — no lost wakeups, no double grants."""
    locks = LockManager()
    locks.acquire(100, "R", LockMode.EXCLUSIVE)
    granted = []
    threads = []
    for i in range(n_waiters):
        def wait(xid=i + 1):
            locks.acquire(xid, "R", LockMode.SHARED)
            granted.append(xid)
        t = threading.Thread(target=wait, daemon=True)
        t.start()
        threads.append(t)
    # Wait until every thread has parked (stats.waits is cumulative per
    # manager, and this manager is fresh).
    deadline = 200  # x 25ms = 5s bound
    while locks.stats.waits < n_waiters and deadline > 0:
        threading.Event().wait(0.025)
        deadline -= 1
    assert locks.stats.waits == n_waiters, "waiters never parked"
    assert granted == []  # nobody granted while the holder lives
    locks.release_all(100)
    for t in threads:
        t.join(5)
    assert not any(t.is_alive() for t in threads)
    assert sorted(granted) == list(range(1, n_waiters + 1))
    waiter = locks.waiting()
    assert waiter == [], f"stale waiters remain: {waiter}"
    for xid in range(1, n_waiters + 1):
        assert locks.holds(xid, "R", LockMode.SHARED)
        locks.release_all(xid)
    assert locks.grant_table_empty()
