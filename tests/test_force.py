"""The force path: the dirty index, run-sized device requests, and faults
that land where the per-block loop put them."""

import random
import sys

import pytest

from repro.errors import SimulatedCrash
from repro.sim import SimClock
from repro.sim.faults import parse_plan
from repro.smgr import DiskStorageManager, MemoryStorageManager
from repro.storage import BufferManager
from repro.storage.constants import PAGE_SIZE
from repro.storage.page import SlottedPage


def make_smgr(kind, tmp_path):
    if kind == "disk":
        return DiskStorageManager(str(tmp_path / "data"), SimClock())
    return MemoryStorageManager(SimClock())


def assert_dirty_index_is_the_dirty_set(pool):
    flagged = {}
    for (smgr_id, fileid, blockno), buf in pool._frames.items():
        if buf.dirty:
            flagged.setdefault((smgr_id, fileid), {})[blockno] = id(buf)
    indexed = {key: {blockno: id(buf) for blockno, buf in frames.items()}
               for key, frames in pool._dirty.items()}
    assert indexed == flagged


class TestDirtyIndex:
    def test_index_is_the_dirty_set_after_every_step(self):
        """2,000 seeded steps over an 8-frame pool and two files."""
        rng = random.Random(1993)
        smgr = MemoryStorageManager(SimClock())
        pool = BufferManager(pool_size=8)
        files = ("a", "b")
        for fileid in files:
            smgr.create(fileid)
        model = {}   # (fileid, blockno) -> the one item the page holds
        held = []    # pins carried across steps

        def release(fileid=None):
            for buf in [b for b in held if fileid in (None, b.fileid)]:
                held.remove(buf)
                pool.unpin(buf)

        for step in range(2000):
            fileid = rng.choice(files)
            length = pool.nblocks(smgr, fileid)
            op = rng.choice(("pin", "pin", "pin", "allocate", "allocate",
                             "hold", "prefetch", "flush_file", "flush_all",
                             "drop_file", "invalidate_all"))
            if op == "allocate" and length < 24:
                buf = pool.allocate(smgr, fileid)
                item = bytes([step % 251]) * 16
                buf.page.add_item(item)
                model[fileid, buf.blockno] = item
                pool.unpin(buf, dirty=True)
            elif op in ("pin", "hold") and length:
                blockno = rng.randrange(length)
                buf = pool.pin(smgr, fileid, blockno)
                assert buf.page.get_item(0) == model[fileid, blockno]
                if op == "hold" and len(held) < 3:
                    held.append(buf)
                elif rng.random() < 0.5:
                    item = bytes([step % 251]) * 16
                    buf.page.overwrite_item(0, item)
                    model[fileid, blockno] = item
                    pool.unpin(buf, dirty=True)
                else:
                    pool.unpin(buf)
            elif op == "prefetch":
                pool.prefetch(smgr, fileid, rng.randrange(24), 4)
            elif op == "flush_file":
                pool.flush_file(smgr, fileid)
                assert (smgr.smgr_id, fileid) not in pool._dirty
            elif op == "flush_all":
                pool.flush_all()
                assert not pool._dirty
            elif op == "drop_file" and rng.random() < 0.3:
                release(fileid)
                pool.drop_file(smgr, fileid)
                smgr.unlink(fileid)
                smgr.create(fileid)
                for key in [k for k in model if k[0] == fileid]:
                    del model[key]
            elif op == "invalidate_all":
                release()
                pool.invalidate_all()
                assert not pool._frames
            assert_dirty_index_is_the_dirty_set(pool)

        release()
        pool.invalidate_all()
        for (fileid, blockno), item in model.items():
            assert SlottedPage(smgr.read_block(fileid, blockno)) \
                .get_item(0) == item
        assert pool.stats.evictions > 100  # the pool really was too small

    def test_dirty_unpin_of_a_dropped_frame_is_not_indexed(self):
        smgr = MemoryStorageManager(SimClock())
        pool = BufferManager(pool_size=4)
        smgr.create("t")
        pool.unpin(pool.allocate(smgr, "t"), dirty=True)
        pool.flush_file(smgr, "t")
        buf = pool.pin(smgr, "t", 0)
        pool.drop_file(smgr, "t")
        pool.unpin(buf, dirty=True)
        assert not pool._dirty
        assert pool.flush_all() == 0

    def test_flush_cost_does_not_grow_with_the_pool(self):
        """Forcing 3 dirty pages executes the same bytecodes in a
        2,048-frame pool as in a 64-frame one."""

        def bytecodes_to_force_three(pool_size):
            smgr = MemoryStorageManager(SimClock())
            pool = BufferManager(pool_size=pool_size)
            smgr.create("t")
            for _ in range(pool_size):
                pool.unpin(pool.allocate(smgr, "t"), dirty=True)
            pool.flush_file(smgr, "t")
            for blockno in (5, 6, 40):
                pool.unpin(pool.pin(smgr, "t", blockno), dirty=True)
            executed = 0

            def on_call(frame, event, arg):
                frame.f_trace_opcodes = True
                frame.f_trace_lines = False
                return on_event

            def on_event(frame, event, arg):
                nonlocal executed
                executed += event == "opcode"
                return on_event

            previous = sys.gettrace()
            sys.settrace(on_call)
            try:
                written = pool.flush_file(smgr, "t")
            finally:
                sys.settrace(previous)
            assert written == 3
            return executed

        small = bytecodes_to_force_three(64)
        assert small > 0
        assert bytecodes_to_force_three(2048) == small


@pytest.mark.parametrize("kind", ["disk", "memory"])
class TestRuns:
    def test_run_calls_equal_the_per_block_loop(self, kind, tmp_path):
        """Same bytes, same simulated clock, same device counters."""
        images = [bytes([fill]) * PAGE_SIZE for fill in range(1, 11)]

        def drive(smgr, runs):
            smgr.create("t")
            if runs:
                smgr.write_blocks("t", 0, images[:6])
                smgr.write_blocks("t", 4, images[2:])    # overlap + append
                got = list(smgr.read_blocks("t", 3, 7))
            else:
                for blockno, image in enumerate(images[:6]):
                    smgr.write_block("t", blockno, image)
                for blockno, image in enumerate(images[2:], start=4):
                    smgr.write_block("t", blockno, image)
                got = [smgr.read_block("t", blockno)
                       for blockno in range(3, 10)]
            return ([bytes(block) for block in got], smgr.nblocks("t"),
                    smgr.clock.elapsed, smgr.clock.breakdown(), smgr.stats(),
                    smgr.nodes[0]._ops)

        assert drive(make_smgr(kind, tmp_path / "runs"), runs=True) == \
            drive(make_smgr(kind, tmp_path / "loop"), runs=False)

    def test_bad_runs_are_rejected_whole(self, kind, tmp_path):
        from repro.errors import StorageManagerError
        smgr = make_smgr(kind, tmp_path)
        smgr.create("t")
        page = bytes(PAGE_SIZE)
        with pytest.raises(StorageManagerError):
            smgr.write_blocks("t", 1, [page])            # leaves a hole
        with pytest.raises(StorageManagerError):
            smgr.write_blocks("t", 0, [page, b"short"])
        assert smgr.nblocks("t") == 0
        smgr.write_blocks("t", 0, [page, page])
        with pytest.raises(StorageManagerError):
            list(smgr.read_blocks("t", 1, 2))            # past the end
        with pytest.raises(StorageManagerError):
            list(smgr.read_blocks("t", -1, 2))

    def test_slow_node_gets_the_per_block_loop(self, kind, tmp_path):
        fast, slow = (make_smgr(kind, tmp_path / name)
                      for name in ("fast", "slow"))
        slow.nodes[0].set_state("slow")
        for smgr in (fast, slow):
            smgr.create("t")
            smgr.write_blocks("t", 0, [bytes(PAGE_SIZE)] * 4)
            assert len(list(smgr.read_blocks("t", 0, 4))) == 4
        assert slow.clock.elapsed == pytest.approx(
            fast.clock.elapsed * slow.nodes[0].slow_factor)


#: 16 blocks the device already holds are overwritten, 16 appended.
ON_DEVICE, DIRTIED = 16, 32


@pytest.mark.parametrize("kind", ["disk", "memory"])
@pytest.mark.parametrize("action", ["crash", "torn 100", "torn 5000"])
def test_a_fault_lands_on_the_same_block_with_the_same_bytes(
        kind, action, tmp_path):
    """For every N: the first N writes of a 32-page force reach the
    device, the next is lost (or torn as ``_inject`` tears it), the rest
    never happen — whatever the size of the request they were part of."""
    for after in range(1, DIRTIED + 3):
        smgr = make_smgr(kind, tmp_path / f"{after}")
        pool = BufferManager(pool_size=64)
        smgr.create("t")
        for blockno in range(ON_DEVICE):
            buf = pool.allocate(smgr, "t")
            buf.page.add_item(b"old" * 40)
            pool.unpin(buf, dirty=True)
        pool.flush_file(smgr, "t")
        store = smgr.nodes[0].store
        old = [bytes(store.read("t", blockno)) for blockno in range(ON_DEVICE)]
        for blockno in range(DIRTIED):
            buf = (pool.pin(smgr, "t", blockno) if blockno < ON_DEVICE
                   else pool.allocate(smgr, "t"))
            buf.page.add_item(bytes([blockno + 1]) * 200)
            pool.unpin(buf, dirty=True)

        plan = parse_plan(f"on write t after {after}: {action}")
        smgr.set_fault_plan(plan)
        if after >= DIRTIED:
            assert pool.flush_file(smgr, "t") == DIRTIED
            assert plan.fired == []
        else:
            with pytest.raises(SimulatedCrash):
                pool.flush_file(smgr, "t")
            assert plan.fired == [
                f"{action.split()[0]}: write 't' block {after}"]
        assert plan.op_count("write", "t") == min(after + 1, DIRTIED)

        new = [bytes(pool._frames[smgr.smgr_id, "t", blockno].page.buf)
               for blockno in range(DIRTIED)]
        lsns = [SlottedPage(bytearray(image)).lsn for image in new]
        sealed = min(after + 1, DIRTIED)  # in write order, none skipped
        assert lsns[:sealed] == list(range(lsns[0], lsns[0] + sealed))
        expected = old[:]
        for blockno in range(min(after, DIRTIED)):
            expected[blockno:blockno + 1] = [new[blockno]]
        if after < DIRTIED and action != "crash":
            keep = int(action.split()[1])
            before = old[after] if after < ON_DEVICE else bytes(PAGE_SIZE)
            expected[after:after + 1] = [new[after][:keep] + before[keep:]]
        assert store.nblocks("t") == len(expected)
        assert [bytes(store.read("t", blockno))
                for blockno in range(len(expected))] == expected
        smgr.close()


def test_commit_does_not_scan_more_versions_as_history_grows():
    """A v-segment byte store grows on every write, so each commit
    replaces two ``pg_largeobject`` size rows and leaves two more dead
    versions under their keys.  The probes reach the
    live version from the newest end of that run, so a commit fetches
    the same number of versions however long the object's history is
    (``benchmarks/test_micro.py::TestCommitCostIsFlatInHistory`` counts
    the bytecodes this saves on a disk database)."""
    from repro.db import Database

    frame = bytes(range(1, 251)) * 8 + bytes(2000)
    with Database(charge_cpu=False) as db:
        with db.begin() as txn:
            designator = db.lo.create(txn, "vsegment",
                                      compression="zero-rle")
            with db.lo.open(designator, txn, "rw") as obj:
                for _ in range(20):
                    obj.write(frame)
        rng = random.Random(1993)
        scanned = []
        for _ in range(60):
            txn = db.begin()
            obj = db.lo.open(designator, txn, "rw")
            for _ in range(2):
                obj.seek(rng.randrange(20) * len(frame))
                obj.write(frame)
            before = db.access_stats.tuples_scanned
            obj.close()
            txn.commit()
            scanned.append(db.access_stats.tuples_scanned - before)
        assert scanned[5] > 0
        assert max(scanned[5:]) == scanned[5], scanned
