"""Unit tests for heap relations: versioning, visibility, vacuum."""

import pytest

from repro.access import Attribute, HeapRelation, Schema
from repro.errors import RelationError, TransactionError, TupleNotFound


@pytest.fixture
def emp(stack):
    schema = Schema([Attribute("name", "text"), Attribute("age", "int4")])
    rel = HeapRelation("EMP", schema, stack.smgr, stack.bufmgr,
                       stack.clog, stack.next_oid)
    rel.create_storage()
    return rel


def visible(rel, snapshot):
    return [t for t in rel.scan_versions()
            if snapshot.is_visible(t.xmin, t.xmax, rel.clog)]


def committed_insert(stack, rel, values):
    with stack.tm.begin() as txn:
        tid = rel.insert(txn, values)
    return tid


class TestInsertFetch:
    def test_roundtrip(self, stack, emp):
        tid = committed_insert(stack, emp, ("Joe", 30))
        snap = stack.tm.snapshot()
        tup = emp.fetch(tid, snap)
        assert tup.values == ("Joe", 30)
        assert tup.oid > 0

    def test_uncommitted_visible_to_self_only(self, stack, emp):
        txn = stack.tm.begin()
        tid = emp.insert(txn, ("Joe", 30))
        assert emp.fetch(tid, stack.tm.snapshot(txn)) is not None
        assert emp.fetch(tid, stack.tm.snapshot()) is None
        txn.commit()
        assert emp.fetch(tid, stack.tm.snapshot()) is not None

    def test_aborted_insert_invisible(self, stack, emp):
        txn = stack.tm.begin()
        tid = emp.insert(txn, ("Joe", 30))
        txn.abort()
        assert emp.fetch(tid, stack.tm.snapshot()) is None

    def test_fetch_bad_tid(self, stack, emp):
        committed_insert(stack, emp, ("Joe", 30))
        from repro.access.tuples import TID
        with pytest.raises(TupleNotFound):
            emp.fetch_any_version(TID(0, 99))

    def test_oversized_tuple_rejected(self, stack, emp):
        txn = stack.tm.begin()
        with pytest.raises(RelationError):
            emp.insert(txn, ("x" * 9000, 1))
        txn.abort()

    def test_many_inserts_span_pages(self, stack, emp):
        tids = [committed_insert(stack, emp, (f"e{i}", i))
                for i in range(200)]
        assert emp.nblocks() > 1
        snap = stack.tm.snapshot()
        assert emp.fetch(tids[0], snap).values == ("e0", 0)
        assert emp.fetch(tids[-1], snap).values == ("e199", 199)


class TestBatchFetch:
    def test_fetch_many_preserves_order_and_visibility(self, stack, emp):
        tids = [committed_insert(stack, emp, (f"e{i}", i))
                for i in range(30)]
        txn = stack.tm.begin()
        emp.delete(txn, tids[5])
        txn.commit()
        snap = stack.tm.snapshot()
        got = emp.fetch_many(tids, snap)
        assert [t.values[1] for t in got] == [
            i for i in range(30) if i != 5]

    def test_prefetch_tids_groups_contiguous_runs(self, stack, emp):
        # Enough fat tuples to span several pages on the device.
        tids = [committed_insert(stack, emp, ("x" * 600, i))
                for i in range(60)]
        stack.bufmgr.flush_file(stack.smgr, emp.fileid)
        stack.bufmgr.drop_file(stack.smgr, emp.fileid)
        fetched = emp.prefetch_tids(tids)
        assert fetched >= 2  # contiguous block run was read ahead
        assert stack.bufmgr.stats.prefetched >= fetched

    def test_prefetch_tids_skips_isolated_blocks(self, stack, emp):
        tids = [committed_insert(stack, emp, ("x" * 600, i))
                for i in range(60)]
        stack.bufmgr.flush_file(stack.smgr, emp.fileid)
        stack.bufmgr.drop_file(stack.smgr, emp.fileid)
        # A single isolated block is not worth a readahead call.
        lone = [t for t in tids if t.blockno == tids[-1].blockno][:1]
        assert emp.prefetch_tids(lone) == 0


class TestDeleteReplace:
    def test_delete_hides_tuple(self, stack, emp):
        tid = committed_insert(stack, emp, ("Joe", 30))
        with stack.tm.begin() as txn:
            emp.delete(txn, tid)
        assert emp.fetch(tid, stack.tm.snapshot()) is None

    def test_aborted_delete_leaves_tuple(self, stack, emp):
        tid = committed_insert(stack, emp, ("Joe", 30))
        txn = stack.tm.begin()
        emp.delete(txn, tid)
        txn.abort()
        assert emp.fetch(tid, stack.tm.snapshot()) is not None

    def test_delete_after_aborted_delete(self, stack, emp):
        tid = committed_insert(stack, emp, ("Joe", 30))
        txn = stack.tm.begin()
        emp.delete(txn, tid)
        txn.abort()
        with stack.tm.begin() as txn2:
            emp.delete(txn2, tid)
        assert emp.fetch(tid, stack.tm.snapshot()) is None

    def test_write_write_conflict(self, stack, emp):
        tid = committed_insert(stack, emp, ("Joe", 30))
        a = stack.tm.begin()
        b = stack.tm.begin()
        emp.delete(a, tid)
        with pytest.raises(TransactionError):
            emp.delete(b, tid)
        a.commit()
        b.abort()

    def test_replace_preserves_oid(self, stack, emp):
        tid = committed_insert(stack, emp, ("Joe", 30))
        oid = emp.fetch_any_version(tid).oid
        with stack.tm.begin() as txn:
            new_tid = emp.replace(txn, tid, ("Joe", 31))
        tup = emp.fetch(new_tid, stack.tm.snapshot())
        assert tup.values == ("Joe", 31)
        assert tup.oid == oid

    def test_replace_leaves_old_version_for_history(self, stack, emp):
        tid = committed_insert(stack, emp, ("Joe", 30))
        with stack.tm.begin() as txn:
            emp.replace(txn, tid, ("Joe", 31))
        versions = [t.values for t in emp.scan_versions()]
        assert ("Joe", 30) in versions
        assert ("Joe", 31) in versions


class TestScan:
    def test_scan_sees_only_visible(self, stack, emp):
        committed_insert(stack, emp, ("A", 1))
        committed_insert(stack, emp, ("B", 2))
        txn = stack.tm.begin()
        emp.insert(txn, ("C", 3))
        rows = {t.values for t in visible(emp, stack.tm.snapshot())}
        assert rows == {("A", 1), ("B", 2)}
        txn.abort()

    def test_scan_after_replace_sees_one_version(self, stack, emp):
        tid = committed_insert(stack, emp, ("Joe", 30))
        with stack.tm.begin() as txn:
            emp.replace(txn, tid, ("Joe", 31))
        rows = [t.values for t in visible(emp, stack.tm.snapshot())]
        assert rows == [("Joe", 31)]

    def test_empty_scan(self, stack, emp):
        assert visible(emp, stack.tm.snapshot()) == []


class TestTimeTravelOnHeap:
    def test_as_of_reads_old_version(self, stack, emp):
        tid = committed_insert(stack, emp, ("Joe", 30))
        t_after_insert = stack.clock.now()
        with stack.tm.begin() as txn:
            emp.replace(txn, tid, ("Joe", 31))
        t_after_replace = stack.clock.now()

        old = [t.values for t in
               visible(emp, stack.tm.snapshot(as_of=t_after_insert))]
        new = [t.values for t in
               visible(emp, stack.tm.snapshot(as_of=t_after_replace))]
        assert old == [("Joe", 30)]
        assert new == [("Joe", 31)]

    def test_as_of_before_creation_is_empty(self, stack, emp):
        t0 = stack.clock.now()
        committed_insert(stack, emp, ("Joe", 30))
        assert visible(emp, stack.tm.snapshot(as_of=t0)) == []

    def test_deleted_tuple_still_readable_historically(self, stack, emp):
        tid = committed_insert(stack, emp, ("Joe", 30))
        t_alive = stack.clock.now()
        with stack.tm.begin() as txn:
            emp.delete(txn, tid)
        assert visible(emp, stack.tm.snapshot()) == []
        historic = visible(emp, stack.tm.snapshot(as_of=t_alive))
        assert [t.values for t in historic] == [("Joe", 30)]


class TestVacuum:
    def test_vacuum_removes_superseded(self, stack, emp):
        tid = committed_insert(stack, emp, ("Joe", 30))
        with stack.tm.begin() as txn:
            emp.replace(txn, tid, ("Joe", 31))
        assert emp.vacuum() == 1
        assert [t.values for t in emp.scan_versions()] == [("Joe", 31)]

    def test_vacuum_removes_aborted(self, stack, emp):
        txn = stack.tm.begin()
        emp.insert(txn, ("Ghost", 0))
        txn.abort()
        assert emp.vacuum() == 1

    def test_vacuum_keeps_live(self, stack, emp):
        committed_insert(stack, emp, ("Joe", 30))
        assert emp.vacuum() == 0

    def test_vacuum_respects_horizon(self, stack, emp):
        tid = committed_insert(stack, emp, ("Joe", 30))
        with stack.tm.begin() as txn:
            emp.replace(txn, tid, ("Joe", 31))
        horizon_before = 0.0  # keep all history
        assert emp.vacuum(horizon=horizon_before) == 0
        assert emp.vacuum(horizon=stack.clock.now()) == 1

    def test_vacuum_keeps_uncommitted_delete(self, stack, emp):
        tid = committed_insert(stack, emp, ("Joe", 30))
        txn = stack.tm.begin()
        emp.delete(txn, tid)
        assert emp.vacuum() == 0
        txn.abort()

    def test_space_reused_after_vacuum(self, stack, emp):
        tids = [committed_insert(stack, emp, (f"e{i}", i))
                for i in range(50)]
        with stack.tm.begin() as txn:
            for tid in tids:
                emp.delete(txn, tid)
        emp.vacuum()
        blocks_before = emp.nblocks()
        for i in range(50):
            committed_insert(stack, emp, (f"n{i}", i))
        assert emp.nblocks() <= blocks_before + 1


class TestDurability:
    def test_commit_forces_pages(self, stack, emp):
        with stack.tm.begin() as txn:
            emp.insert(txn, ("Joe", 30))
        # After commit the device file must contain the data.
        assert stack.smgr.nblocks(emp.fileid) >= 1

    def test_uncommitted_not_forced(self, stack, emp):
        txn = stack.tm.begin()
        emp.insert(txn, ("Joe", 30))
        assert stack.smgr.nblocks(emp.fileid) == 0
        txn.abort()
