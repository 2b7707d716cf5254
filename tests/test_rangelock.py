"""Unit tests for byte-range lock resources (``txn/rangelock.py``).

The lock manager's range extension is what lets two writers update
disjoint parts of one large object in parallel while overlapping
writers still serialize.  These tests hit the primitives directly:
interval semantics, conflict detection, holder extension, whole-object
locks, deadlock detection through range waits, and the new
``range_locks``/``range_waits`` statistics.
"""

import threading
from dataclasses import asdict

import pytest

from repro.errors import DeadlockError, LockError
from repro.txn.locks import LockManager, LockMode
from repro.txn.rangelock import IntervalSet, RangeResource, lo_range, lo_whole


class TestRangeResource:
    def test_overlap_half_open(self):
        a = lo_range(1, 0, 100)
        b = lo_range(1, 100, 200)
        assert not a.overlaps(b)  # [0,100) and [100,200) touch, no overlap
        assert a.overlaps(lo_range(1, 99, 100))
        assert a.overlaps(lo_range(1, 0, 1))

    def test_infinite_stop(self):
        whole = lo_whole(7)
        assert whole.stop is None
        assert whole.overlaps(lo_range(7, 10 ** 12, None))
        assert whole.overlaps(lo_range(7, 0, 1))
        assert whole.contains(lo_range(7, 5, 500))
        assert not lo_range(7, 5, 500).contains(whole)

    def test_different_objects_never_overlap(self):
        assert not lo_range(1, 0, 100).overlaps(lo_range(2, 0, 100))
        assert lo_range(1, 0, 100).group != lo_range(2, 0, 100).group

    def test_degenerate_ranges_rejected(self):
        with pytest.raises(ValueError):
            RangeResource("largeobject", 1, 10, 10)  # empty
        with pytest.raises(ValueError):
            RangeResource("largeobject", 1, -1, 10)  # negative start
        with pytest.raises(ValueError):
            RangeResource("largeobject", 1, 10, 5)  # inverted


class TestIntervalSet:
    def test_add_and_covers(self):
        spans = IntervalSet()
        assert not spans
        spans.add(0, 100)
        assert spans.covers(0, 100)
        assert spans.covers(10, 50)
        assert not spans.covers(0, 101)

    def test_merge_adjacent(self):
        spans = IntervalSet()
        spans.add(0, 100)
        spans.add(100, 200)  # adjacent: must merge
        assert spans.covers(50, 150)

    def test_disjoint_members_do_not_cover_gap(self):
        spans = IntervalSet()
        spans.add(0, 100)
        spans.add(200, 300)
        assert not spans.covers(50, 250)
        spans.add(100, 200)  # fill the gap
        assert spans.covers(0, 300)

    def test_infinite_span(self):
        spans = IntervalSet()
        spans.add(100, None)
        assert spans.covers(100, None)
        assert spans.covers(10 ** 15, 10 ** 15 + 1)
        assert not spans.covers(99, 100)


class TestRangeLocking:
    def test_disjoint_exclusive_ranges_coexist(self):
        lm = LockManager()
        lm.acquire(1, lo_range(9, 0, 100), LockMode.EXCLUSIVE)
        lm.acquire(2, lo_range(9, 100, 200), LockMode.EXCLUSIVE)
        assert lm.stats.range_locks == 2
        assert lm.stats.range_waits == 0
        lm.release_all(1)
        lm.release_all(2)
        assert lm.grant_table_empty()

    def test_overlapping_exclusive_ranges_conflict(self):
        lm = LockManager()
        lm.acquire(1, lo_range(9, 0, 100), LockMode.EXCLUSIVE)
        with pytest.raises(LockError):
            lm.acquire(2, lo_range(9, 50, 150), LockMode.EXCLUSIVE)
        lm.release_all(1)
        lm.acquire(2, lo_range(9, 50, 150), LockMode.EXCLUSIVE)
        lm.release_all(2)

    def test_whole_object_conflicts_with_any_range(self):
        lm = LockManager()
        lm.acquire(1, lo_whole(9), LockMode.EXCLUSIVE)
        with pytest.raises(LockError):
            lm.acquire(2, lo_range(9, 10 ** 9, 10 ** 9 + 1),
                       LockMode.EXCLUSIVE)
        lm.release_all(1)

    def test_range_conflicts_with_later_whole_object(self):
        lm = LockManager()
        lm.acquire(1, lo_range(9, 500, 600), LockMode.EXCLUSIVE)
        with pytest.raises(LockError):
            lm.acquire(2, lo_whole(9), LockMode.EXCLUSIVE)
        lm.release_all(1)

    def test_holder_extends_own_range(self):
        # Re-requesting an overlap of your own grant must not self-block.
        lm = LockManager()
        lm.acquire(1, lo_range(9, 0, 100), LockMode.EXCLUSIVE)
        lm.acquire(1, lo_range(9, 50, 200), LockMode.EXCLUSIVE)
        lm.acquire(1, lo_range(9, 0, 100), LockMode.EXCLUSIVE)  # covered
        assert lm.holds_overlapping(1, lo_range(9, 150, 160))
        lm.release_all(1)
        assert lm.grant_table_empty()

    def test_shared_ranges_overlap_freely(self):
        lm = LockManager()
        lm.acquire(1, lo_range(9, 0, 100), LockMode.SHARED)
        lm.acquire(2, lo_range(9, 50, 150), LockMode.SHARED)
        with pytest.raises(LockError):
            lm.acquire(3, lo_range(9, 60, 70), LockMode.EXCLUSIVE)
        lm.release_all(1)
        lm.release_all(2)

    def test_plain_and_range_keys_do_not_interfere(self):
        # A plain ("largeobject", oid) key is not a range; the tuple key
        # and the range group live in different tables.
        lm = LockManager()
        lm.acquire(1, ("other", 9), LockMode.EXCLUSIVE)
        lm.acquire(2, lo_range(9, 0, 100), LockMode.EXCLUSIVE)
        lm.release_all(1)
        lm.release_all(2)
        assert lm.grant_table_empty()

    def test_waiter_granted_after_release(self):
        lm = LockManager()
        lm.acquire(1, lo_range(9, 0, 100), LockMode.EXCLUSIVE)
        got = threading.Event()

        def blocked():
            lm.acquire(2, lo_range(9, 50, 150), LockMode.EXCLUSIVE)
            got.set()

        t = threading.Thread(target=blocked, daemon=True)
        t.start()
        # The waiter must actually park (range_waits counts it).
        deadline = 100
        while lm.stats.range_waits == 0 and deadline:
            deadline -= 1
            threading.Event().wait(0.01)
        assert lm.stats.range_waits == 1
        assert not got.is_set()
        lm.release_all(1)
        t.join(10.0)
        assert got.is_set()
        lm.release_all(2)
        assert lm.grant_table_empty()

    def test_deadlock_detected_across_ranges(self):
        lm = LockManager()
        lm.acquire(1, lo_range(9, 0, 100), LockMode.EXCLUSIVE)
        lm.acquire(2, lo_range(9, 200, 300), LockMode.EXCLUSIVE)
        crossed = threading.Event()
        errors = []

        def xid1():
            try:
                lm.acquire(1, lo_range(9, 250, 260), LockMode.EXCLUSIVE)
            except DeadlockError:
                errors.append(1)
                lm.release_all(1)
            crossed.set()

        t = threading.Thread(target=xid1, daemon=True)
        t.start()
        while not lm.waiting(lo_range(9, 250, 260)):
            threading.Event().wait(0.01)
        # xid 2 now closes the cycle: one of the two must be victimized.
        try:
            lm.acquire(2, lo_range(9, 50, 60), LockMode.EXCLUSIVE)
        except DeadlockError:
            errors.append(2)
            lm.release_all(2)
        crossed.wait(10.0)
        t.join(10.0)
        assert errors, "deadlock never detected"
        assert lm.stats.deadlocks_detected >= 1
        lm.release_all(1)
        lm.release_all(2)
        assert lm.grant_table_empty()

    def test_stats_dict_exposes_range_counters(self):
        lm = LockManager()
        lm.acquire(1, lo_range(9, 0, 100), LockMode.EXCLUSIVE)
        stats = asdict(lm.stats)
        assert stats["range_locks"] == 1
        assert stats["range_waits"] == 0
        lm.release_all(1)
