"""Unit tests for heap relations: versioning, visibility, vacuum."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access import Attribute, HeapRelation, Schema
from repro.access.tuples import TID
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
        emp.delete(txn, [tids[5]])
        txn.commit()
        snap = stack.tm.snapshot()
        got = emp.fetch_many(tids, snap)
        assert [t.values[1] for t in got] == [
            i for i in range(30) if i != 5]

    def test_prefetch_tids_groups_contiguous_runs(self, stack, emp):
        # Enough fat tuples to span several pages on the device.
        tids = [committed_insert(stack, emp, ("x" * 600, i))
                for i in range(60)]
        stack.bufmgr.force([(stack.smgr, emp.fileid)])
        stack.bufmgr.drop_file(stack.smgr, emp.fileid)
        fetched = emp.prefetch_tids(tids)
        assert fetched >= 2  # contiguous block run was read ahead
        assert stack.bufmgr.stats.prefetched >= fetched

    def test_prefetch_tids_skips_isolated_blocks(self, stack, emp):
        tids = [committed_insert(stack, emp, ("x" * 600, i))
                for i in range(60)]
        stack.bufmgr.force([(stack.smgr, emp.fileid)])
        stack.bufmgr.drop_file(stack.smgr, emp.fileid)
        # A single isolated block is not worth a readahead call.
        lone = [t for t in tids if t.blockno == tids[-1].blockno][:1]
        assert emp.prefetch_tids(lone) == 0


class TestDeleteReplace:
    def test_delete_hides_tuple(self, stack, emp):
        tid = committed_insert(stack, emp, ("Joe", 30))
        with stack.tm.begin() as txn:
            emp.delete(txn, [tid])
        assert emp.fetch(tid, stack.tm.snapshot()) is None

    def test_aborted_delete_leaves_tuple(self, stack, emp):
        tid = committed_insert(stack, emp, ("Joe", 30))
        txn = stack.tm.begin()
        emp.delete(txn, [tid])
        txn.abort()
        assert emp.fetch(tid, stack.tm.snapshot()) is not None

    def test_delete_after_aborted_delete(self, stack, emp):
        tid = committed_insert(stack, emp, ("Joe", 30))
        txn = stack.tm.begin()
        emp.delete(txn, [tid])
        txn.abort()
        with stack.tm.begin() as txn2:
            emp.delete(txn2, [tid])
        assert emp.fetch(tid, stack.tm.snapshot()) is None

    def test_write_write_conflict(self, stack, emp):
        tid = committed_insert(stack, emp, ("Joe", 30))
        a = stack.tm.begin()
        b = stack.tm.begin()
        emp.delete(a, [tid])
        with pytest.raises(TransactionError):
            emp.delete(b, [tid])
        a.commit()
        b.abort()

    def test_a_caught_conflict_leaves_the_earlier_stamp_to_the_force(
            self, stack, emp):
        """The file is in the touched set before the first stamp, so a
        commit after a caught conflict forces the stamps already made."""
        first = committed_insert(stack, emp, ("Joe", 30))
        second = committed_insert(stack, emp, ("Ann", 41))
        holder = stack.tm.begin()
        emp.delete(holder, [second])
        txn = stack.tm.begin()
        with pytest.raises(TransactionError, match="already deleted"):
            emp.delete(txn, [first, second])
        assert (stack.smgr, emp.fileid) in txn.touched
        txn.commit()
        holder.abort()
        assert emp.fetch(first, stack.tm.snapshot()) is None

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
            emp.delete(txn, [tid])
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
        emp.delete(txn, [tid])
        assert emp.vacuum() == 0
        txn.abort()

    def test_space_reused_after_vacuum(self, stack, emp):
        tids = [committed_insert(stack, emp, (f"e{i}", i))
                for i in range(50)]
        with stack.tm.begin() as txn:
            for tid in tids:
                emp.delete(txn, [tid])
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


class TestDeadPointerRoom:
    def test_a_row_a_dead_pointer_makes_room_for_lands_on_its_page(
            self, stack):
        """Items of 100 and 100 bytes, the first deleted: compaction
        leaves room for an 8,060-byte image only because ``add_item``
        reuses the dead line pointer.  The heap's fit test is
        ``SlottedPage.can_fit``, which counts that; a copy that always
        priced a new pointer opened block 1 for it."""
        schema = Schema([Attribute("data", "bytea")])
        rel = HeapRelation("T", schema, stack.smgr, stack.bufmgr,
                           stack.clog, stack.next_oid)
        rel.create_storage()
        payload = b"\x11" * (100 - 32 - 2 - 4)      # a 100-byte image
        with stack.tm.begin() as txn:
            first, second = rel.insert_many(txn, [(payload,), (payload,)])
        assert (first.blockno, second.blockno) == (0, 0)
        with stack.tm.begin() as txn:
            rel.delete(txn, [first])
        assert rel.vacuum() == 1
        rel.fsm.forget()    # a restart: the tail page is all it knows
        from repro.access.tuples import serialize_tuple
        big = b"\x22" * (8060 - 32 - 2 - 4)
        image = serialize_tuple(schema, 2, 99, (big,))
        assert len(image) == 8060
        assert rel.insert_raw(image) == TID(0, first.slot)
        assert rel.nblocks() == 1
        assert rel.fetch_any_version(TID(0, first.slot)).values == (big,)
        assert rel.fetch_any_version(second).values == (payload,)


class TestStretchThePoolRefuses:
    def test_the_free_space_map_forgets_the_pages_it_never_got(self):
        """The stretch's rows have their TIDs and free-space records
        before the pool takes their pages; when the pool cannot make
        room, the map must not keep naming the page that never came."""
        from tests.conftest import Stack
        from repro.errors import BufferError_
        stack = Stack(pool_size=1)
        schema = Schema([Attribute("data", "bytea")])
        rel = HeapRelation("T", schema, stack.smgr, stack.bufmgr,
                           stack.clog, stack.next_oid)
        rel.create_storage()
        with stack.tm.begin() as txn:
            rel.insert(txn, (b"\x01" * 8100,))   # block 0, full
        held = stack.bufmgr.pin(stack.smgr, rel.fileid, 0)
        txn = stack.tm.begin()
        with pytest.raises(BufferError_):
            rel.insert(txn, (b"\x02" * 20,))     # needs block 1
        txn.abort()
        stack.bufmgr.unpin(held)
        assert rel.nblocks() == 1
        with stack.tm.begin() as txn:
            tid = rel.insert(txn, (b"\x03" * 20,))
        assert tid.blockno == 1 and rel.nblocks() == 2
        assert rel.fetch_any_version(tid).values == (b"\x03" * 20,)


def _pool_state(rel):
    """Everything a placement can change, with the storage manager's
    instance id taken out of the frame keys."""
    pool = rel.bufmgr
    return {
        "frames": {key[1:]: (bytes(buf.page.buf), buf.dirty, buf.usage,
                             buf.pin_count)
                   for key, buf in pool._frames.items()},
        "dirty": {key[1]: sorted(frames) for key, frames in
                  pool._dirty.items()},
        "ring": [buf.key[1:] for buf in pool._ring],
        "hand": pool._hand,
        "stats": pool.stats,
        "length": rel.nblocks(),
        "fsm": (rel.fsm._free, rel.fsm._last_insert, rel.fsm._max_free),
        "elapsed": pool.clock.elapsed,
        "breakdown": pool.clock.breakdown(),
    }


class _PerRowHeap(HeapRelation):
    """The reference: every row placed alone, a fresh page through
    ``allocate`` + ``add_item`` + ``unpin``, as before runs existed."""

    def insert_many(self, txn, rows, oid=None):
        from repro.access.tuples import serialize_tuple
        images = [serialize_tuple(self.schema, txn.xid, self.oid_source(),
                                  values) for values in rows]
        tids = [self._place_one(image) for image in images]
        txn.touch(self.smgr, self.fileid)
        return tids

    def _place_one(self, image):
        size = len(image)
        target = self.fsm.find(size, self.nblocks() - 1)
        if target is not None:
            buf = self.bufmgr.pin(self.smgr, self.fileid, target)
            if buf.page.can_fit(size):
                if buf.page.free_space() < size:
                    buf.page.compact()
                slot = buf.page.add_item(image)
                self.fsm.note_insert(target, buf.page.free_space())
                self.bufmgr.unpin(buf, dirty=True)
                return TID(target, slot)
            self.bufmgr.unpin(buf)
        buf = self.bufmgr.allocate(self.smgr, self.fileid)
        slot = buf.page.add_item(image)
        self.fsm.note_insert(buf.blockno, buf.page.free_space())
        self.bufmgr.unpin(buf, dirty=True)
        return TID(buf.blockno, slot)


def _twin(cls):
    """A relation over its own 8-frame pool that charges CPU time."""
    import itertools

    from repro.sim import SimClock
    from repro.sim.devices import CpuModel
    from repro.smgr import MemoryStorageManager
    from repro.storage import BufferManager
    from repro.txn import CommitLog, LockManager, TransactionManager
    clock = SimClock()
    bufmgr = BufferManager(pool_size=8, clock=clock, cpu=CpuModel())
    clog = CommitLog()
    tm = TransactionManager(clog, bufmgr, LockManager(), clock)
    schema = Schema([Attribute("k", "int4"), Attribute("data", "bytea")])
    rel = cls("T", schema, MemoryStorageManager(clock), bufmgr, clog,
              itertools.count(1).__next__)
    rel.create_storage()
    return rel, tm


#: Payload sizes: small rows that share pages, middling ones two of
#: which fill a page, and page-filling ones (the image adds 46 bytes).
_PAYLOAD = st.one_of(st.integers(1, 300), st.integers(3000, 4000),
                     st.integers(7900, 8118))
_STEP = st.one_of(
    st.tuples(st.just("run"), st.lists(_PAYLOAD, min_size=1, max_size=14),
              st.booleans()),
    st.tuples(st.just("vacuum"), st.lists(st.integers(0, 10**6),
                                          max_size=6), st.booleans()),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_STEP, min_size=1, max_size=10))
def test_property_run_placement_is_the_per_row_placement(steps):
    """Runs of mixed rows (committed or aborted) and deletes followed by
    a vacuum, which leave free-space holes: the run placement returns
    the per-row reference's TIDs and leaves its pages, free-space map,
    pool (frames, dirty index, the ring and its hand, counters) and
    simulated clock exactly."""
    (rel, tm), (ref, ref_tm) = _twin(HeapRelation), _twin(_PerRowHeap)
    live = []
    for number, (op, args, commit) in enumerate(steps):
        if op == "run":
            rows = [(number, bytes([number % 251]) * n) for n in args]
            txn, ref_txn = tm.begin(), ref_tm.begin()
            tids = rel.insert_many(txn, rows)
            assert tids == ref.insert_many(ref_txn, rows)
            for t in (txn, ref_txn):
                t.commit() if commit else t.abort()
            if commit:
                live += tids
        elif live:
            doomed = sorted({live[i % len(live)] for i in args})
            for relation, manager in ((rel, tm), (ref, ref_tm)):
                with manager.begin() as txn:
                    for tid in doomed:
                        relation.delete(txn, [tid])
            live = [tid for tid in live if tid not in doomed]
            if commit:
                assert rel.vacuum() == ref.vacuum()
        assert _pool_state(rel) == _pool_state(ref)
    rel.bufmgr.flush_all()
    ref.bufmgr.flush_all()
    assert _pool_state(rel) == _pool_state(ref)
    for blockno in range(rel.nblocks()):
        assert rel.smgr.read_block(rel.fileid, blockno) == \
            ref.smgr.read_block(ref.fileid, blockno)
