"""Property-based tests of the lock manager.

The lock manager is the kernel of the concurrency upgrade, so its
invariants get hypothesis treatment: under *any* sequence of no-wait
acquires and releases, the grant table must respect the compatibility
matrix, upgrades must follow the only-sharer rule, and releasing
everything must leave the table empty.  A separate threaded property
checks the blocking path: ``release_all`` wakes each waiter exactly
once.
"""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LockError
from repro.txn.locks import LockManager, LockMode

XIDS = st.integers(1, 4)
RESOURCES = st.sampled_from(["A", "B", "C"])
MODES = st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE])

#: (kind, xid, resource, mode) — kind True = acquire, False = release_all.
op_strategy = st.lists(
    st.tuples(st.booleans(), XIDS, RESOURCES, MODES),
    min_size=1, max_size=40,
)


def _table_is_consistent(locks: LockManager) -> None:
    """The grant table obeys the compatibility matrix at all times."""
    for resource in ["A", "B", "C"]:
        holders = locks.holders(resource)
        exclusives = [xid for xid, mode in holders.items()
                      if mode == LockMode.EXCLUSIVE]
        if exclusives:
            assert len(holders) == 1, (
                f"EXCLUSIVE on {resource!r} coexists with {holders}")


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
    for xid in range(1, 5):
        locks.release_all(xid)
    assert locks.grant_table_empty()
    assert not locks.waiting()


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
        assert locks.holds(xid, resource, mode)


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
