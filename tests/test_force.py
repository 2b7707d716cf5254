"""The force path: the dirty index, run-sized device requests, and faults
that land where the per-block loop put them."""

import itertools
import json
import os
import random
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from benchmarks.pins import Bytecodes
from repro.errors import SimulatedCrash, StorageManagerError
from repro.sim import SimClock
from repro.sim.faults import parse_plan
from repro.smgr import DiskStorageManager, MemoryStorageManager
from repro.smgr.sharded import sharded_memory_manager
from repro.storage import BufferManager
from repro.storage.buffer import block_runs
from repro.storage.constants import PAGE_SIZE
from repro.storage.page import SlottedPage, intact_prefix


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
                             "extend", "hold", "prefetch", "force",
                             "flush_all", "drop_file", "invalidate_all"))
            if op == "allocate" and length < 24:
                buf = pool.allocate(smgr, fileid)
                item = bytes([step % 251]) * 16
                buf.page.add_item(item)
                model[fileid, buf.blockno] = item
                pool.unpin(buf, dirty=True)
            elif op == "extend" and length < 24:
                # Up to 12 pages into an 8-frame pool: the sweep's victim
                # mid-stretch can be a dirty page of this same file.
                items = [bytes([(step + n) % 251]) * 16
                         for n in range(rng.randint(1, 12))]
                pool.extend(smgr, fileid,
                            [SlottedPage.holding(item) for item in items])
                for blockno, item in enumerate(items, start=length):
                    model[fileid, blockno] = item
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
            elif op == "force":
                pool.force([(smgr, fileid)])
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

    def test_extend_past_the_free_frames_writes_every_page(self):
        """A stretch longer than the pool's free frames: the sweep's
        victims mid-stretch are dirty pages of the same file, and each
        write-back of the file takes its dirty-index entry.  Every page
        still reaches the device with its bytes, and the index stays
        the dirty set after the stretch."""
        smgr = MemoryStorageManager(SimClock())
        pool = BufferManager(pool_size=4)
        smgr.create("t")
        items = [bytes([n]) * 100 for n in range(11)]
        for item in items[:2]:
            buf = pool.allocate(smgr, "t")
            buf.page.add_item(item)
            pool.unpin(buf, dirty=True)
        pool.extend(smgr, "t", [SlottedPage.holding(item)
                                for item in items[2:]])
        assert pool.stats.writebacks > 0 and pool.stats.evictions > 0
        assert_dirty_index_is_the_dirty_set(pool)
        assert pool.nblocks(smgr, "t") == len(items)
        pool.flush_all()
        assert smgr.nblocks("t") == len(items)
        for blockno, item in enumerate(items):
            assert SlottedPage(smgr.read_block("t", blockno)) \
                .get_item(0) == item

    def test_dirty_unpin_of_a_dropped_frame_is_not_indexed(self):
        smgr = MemoryStorageManager(SimClock())
        pool = BufferManager(pool_size=4)
        smgr.create("t")
        pool.unpin(pool.allocate(smgr, "t"), dirty=True)
        pool.force([(smgr, "t")])
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
            pool.force([(smgr, "t")])
            for blockno in (5, 6, 40):
                pool.unpin(pool.pin(smgr, "t", blockno), dirty=True)
            with Bytecodes() as executed:
                written = pool.force([(smgr, "t")])
            assert written == 3
            return executed.count

        small = bytecodes_to_force_three(64)
        assert small > 0
        assert bytecodes_to_force_three(2048) == small

    def test_the_first_count_of_a_process_sees_the_call(self):
        """On CPython 3.12 the first call traced in a process counts 0
        bytecodes: the counter traces a throwaway call before its first
        count, so a count that is a process's first still sees its call."""
        script = ("from benchmarks.pins import Bytecodes\n"
                  "with Bytecodes() as executed:\n"
                  "    sorted([3, 1, 2], key=lambda n: -n)\n"
                  "print(executed.count)\n")
        done = subprocess.run([sys.executable, "-c", script], check=True,
                              cwd=Path(__file__).resolve().parent.parent,
                              capture_output=True, text=True)
        assert int(done.stdout) > 0


@pytest.mark.parametrize("kind", ["disk", "memory"])
class TestRuns:
    def test_run_calls_equal_the_per_block_loop(self, kind, tmp_path):
        """Same bytes, same simulated clock, same device counters — for
        a batch of three runs whose second seeks back over the first and
        whose third seeks forward to append."""
        images = [bytes([fill]) * PAGE_SIZE for fill in range(1, 13)]
        batch = [(0, images[:6]), (2, images[6:8]), (5, images[8:])]

        def drive(smgr, runs):
            smgr.create("t")
            if runs:
                smgr.write_runs("t", [(0, images[:2])])
                smgr.write_runs("t", batch)
                got = smgr.read_blocks("t", 1, 8)
            else:
                smgr.write_block("t", 0, images[0])
                smgr.write_block("t", 1, images[1])
                for first, run in batch:
                    for blockno, image in enumerate(run, first):
                        smgr.write_block("t", blockno, image)
                got = [smgr.read_block("t", blockno)
                       for blockno in range(1, 9)]
            return ([bytes(block) for block in got], smgr.nblocks("t"),
                    smgr.clock.elapsed, smgr.clock.breakdown(), smgr.stats(),
                    smgr.nodes[0]._ops)

        assert drive(make_smgr(kind, tmp_path / "runs"), runs=True) == \
            drive(make_smgr(kind, tmp_path / "loop"), runs=False)

    def test_bad_runs_are_rejected_whole(self, kind, tmp_path):
        smgr = make_smgr(kind, tmp_path)
        smgr.create("t")
        page = bytes(PAGE_SIZE)
        with pytest.raises(StorageManagerError):
            smgr.write_runs("t", [(1, [page])])          # leaves a hole
        with pytest.raises(StorageManagerError):
            smgr.write_runs("t", [(0, [page, b"short"])])
        with pytest.raises(StorageManagerError):
            smgr.write_runs("t", [(0, [page]), (2, [page])])   # a later hole
        with pytest.raises(StorageManagerError):
            smgr.write_runs("t", [(0, [page]), (1, [b"short"])])
        assert smgr.nblocks("t") == 0
        smgr.write_runs("t", [(0, [page, page])])
        with pytest.raises(StorageManagerError):
            smgr.read_blocks("t", 1, 2)                  # past the end
        with pytest.raises(StorageManagerError):
            smgr.read_blocks("t", -1, 2)

    def test_a_flaky_node_drops_a_run_whole(self, kind, tmp_path):
        """A run is one gate: the run holding the node's every third
        block access is refused before any of it reaches the store."""
        smgr = make_smgr(kind, tmp_path)
        smgr.create("t")
        smgr.nodes[0].set_state("flaky")
        page = bytes(PAGE_SIZE)
        smgr.write_runs("t", [(0, [page] * 2)])          # accesses 1, 2
        with pytest.raises(StorageManagerError, match="flaky"):
            smgr.write_runs("t", [(2, [page] * 2)])      # 3, 4
        assert smgr.nblocks("t") == 2
        assert smgr.nodes[0].errors == 1
        smgr.write_runs("t", [(2, [page])])              # 5
        assert smgr.nblocks("t") == 3

    def test_a_slow_node_charges_its_run_slow_factor_times(self, kind,
                                                           tmp_path):
        fast, slow = (make_smgr(kind, tmp_path / name)
                      for name in ("fast", "slow"))
        slow.nodes[0].set_state("slow")
        for smgr in (fast, slow):
            smgr.create("t")
            smgr.write_runs("t", [(0, [bytes(PAGE_SIZE)] * 4)])
            assert len(smgr.read_blocks("t", 0, 4)) == 4
        assert slow.clock.elapsed == pytest.approx(
            fast.clock.elapsed * slow.nodes[0].slow_factor)


@pytest.fixture(scope="module", params=["disk", "sharded"])
def force_smgr(request, tmp_path_factory):
    """One manager per kind for every example; each example has a file of
    its own."""
    if request.param == "disk":
        return DiskStorageManager(str(tmp_path_factory.mktemp("force")),
                                  SimClock())
    return sharded_memory_manager(SimClock(), n_nodes=3)


class TestOnePassBatch:
    """``_writeback_batch`` seals the pages of the sorted dirty blocks as
    one batch and cuts it into runs: the batch is
    ``block_runs(sorted(dirty))``, each run the pages of its blocks, and
    the LSNs ascend in block order, on one device and on a sharded
    manager.  The tail past the device's end is all dirty, as only
    ``extend`` puts a frame there."""

    _fileids = itertools.count()

    @settings(max_examples=150, deadline=None)
    @given(device=st.integers(0, 40), tail=st.integers(0, 40),
           dirtied=st.sets(st.integers(0, 79), min_size=1))
    def test_batch_is_the_runs_of_the_dirty_blocks_in_lsn_order(
            self, force_smgr, device, tail, dirtied):
        assume(device + tail)
        smgr, fileid = force_smgr, f"f{next(self._fileids)}"
        smgr.create(fileid)
        if device:
            smgr.write_runs(fileid, [(0, [bytes(PAGE_SIZE)] * device)])
        pool = BufferManager(pool_size=128)
        pool.extend(smgr, fileid, [SlottedPage() for _ in range(tail)])
        dirtied = {blockno % (device + tail) for blockno in dirtied}
        for blockno in range(device):
            if blockno in dirtied:
                pool.unpin(pool.pin(smgr, fileid, blockno), dirty=True)
        pages = dict(pool._dirty[(smgr.smgr_id, fileid)])
        block_of = {id(buf.page.buf): blockno
                    for blockno, buf in pages.items()}
        written = []
        smgr.write_runs = lambda fid, runs: written.extend(runs)
        try:
            first_lsn = pool._next_lsn
            assert pool._writeback_batch(smgr, fileid) == len(pages)
        finally:
            del smgr.write_runs
            smgr.unlink(fileid)
        blocks = sorted(pages)
        assert [(first, [block_of[id(image)] for image in images])
                for first, images in written] == block_runs(blocks, blocks)
        assert [pages[blockno].page.lsn for blockno in sorted(pages)] == \
            list(range(first_lsn, first_lsn + len(pages)))


def seal_one(image, lsn):
    """The per-page seal, step by step: LSN, zero checksum and reserved
    bytes, then the CRC of the whole page into the checksum field."""
    buf = bytearray(image)
    buf[0:8] = lsn.to_bytes(8, "little")
    buf[8:12] = buf[20:24] = bytes(4)
    buf[8:12] = zlib.crc32(buf).to_bytes(4, "little")
    return bytes(buf)


def batch_smgr(kind, tmp_path):
    if kind == "sharded":
        return sharded_memory_manager(SimClock(), n_nodes=3)
    return make_smgr(kind, tmp_path)


@pytest.mark.parametrize("kind", ["memory", "disk", "sharded"])
class TestBatchSeal:
    """A force seals its whole batch in C-level passes: over seeded
    random dirty sets, contiguous and gapped, partly past the device's
    end, each written image is the per-page reference seal of the page
    as it was dirtied (garbage in its checksum and reserved bytes
    included), LSNs ascend in block order from the pool's next LSN,
    every image verifies, and the runs are ``block_runs`` of the sorted
    dirty blocks."""

    def test_the_batch_equals_the_per_page_seal(self, kind, tmp_path):
        rng = random.Random(1993)
        smgr = batch_smgr(kind, tmp_path)
        pool = BufferManager(pool_size=128)
        for round_ in range(40):
            fileid = f"f{round_}"
            device, tail = rng.randint(1, 48), rng.randint(0, 8)
            smgr.create(fileid)
            smgr.write_runs(fileid, [(0, [bytes(SlottedPage().buf)]
                                      * device)])
            pool.extend(smgr, fileid, [SlottedPage.holding(rng.randbytes(
                rng.randint(1, 4000))) for _ in range(tail)])
            if round_ % 2:      # contiguous
                first = rng.randrange(device)
                dirtied = range(first, device if tail
                                else rng.randint(first + 1, device))
            else:               # gapped
                dirtied = rng.sample(range(device), rng.randint(1, device))
            for blockno in dirtied:
                buf = pool.pin(smgr, fileid, blockno)
                buf.page.add_item(rng.randbytes(rng.randint(1, 4000)))
                buf.page.buf[8:12] = rng.randbytes(4)
                buf.page.buf[20:24] = rng.randbytes(4)
                pool.unpin(buf, dirty=True)
            dirty = sorted(pool._dirty[smgr.smgr_id, fileid])
            before = [bytes(pool._frames[smgr.smgr_id, fileid, blockno]
                            .page.buf) for blockno in dirty]
            first_lsn = pool._next_lsn
            written, force = [], smgr.force

            def recording(batch, done, force=force):
                written.extend((first, [bytes(image) for image in images])
                               for _fid, runs in batch
                               for first, images in runs)
                return force(batch, done)

            smgr.force = recording
            try:
                assert pool.force([(smgr, fileid)]) == len(dirty)
            finally:
                del smgr.force
            assert [(first, first + len(images) - 1)
                    for first, images in written] == \
                [(first, first + len(run) - 1)
                 for first, run in block_runs(dirty, dirty)]
            images = [image for _first, images in written
                      for image in images]
            assert images == [seal_one(image, lsn) for lsn, image in
                              enumerate(before, first_lsn)]
            assert [SlottedPage(bytearray(image)).lsn
                    for image in images] == \
                list(range(first_lsn, first_lsn + len(dirty)))
            assert intact_prefix([bytearray(image) for image in images]) \
                == len(images)
            assert [bytes(block) for block in smgr.read_blocks(
                fileid, dirty[0], dirty[-1] - dirty[0] + 1)
                if block[:8] != bytes(8)] == images
            assert (smgr.smgr_id, fileid) not in pool._dirty
            pool.invalidate_all()   # no eviction writes the next file
        if kind == "disk":
            smgr.close()


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
        pool.force([(smgr, "t")])
        store = smgr.nodes[0].store
        old = [bytes(block) for block in store.read_run("t", 0, ON_DEVICE)]
        for blockno in range(DIRTIED):
            buf = (pool.pin(smgr, "t", blockno) if blockno < ON_DEVICE
                   else pool.allocate(smgr, "t"))
            buf.page.add_item(bytes([blockno + 1]) * 200)
            pool.unpin(buf, dirty=True)

        plan = parse_plan(f"on write t after {after}: {action}")
        smgr.set_fault_plan(plan)
        if after >= DIRTIED:
            assert pool.force([(smgr, "t")]) == DIRTIED
            assert plan.fired == []
        else:
            with pytest.raises(SimulatedCrash):
                pool.force([(smgr, "t")])
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
        assert [bytes(block) for block
                in store.read_run("t", 0, len(expected))] == expected
        smgr.close()


@pytest.mark.parametrize("short", [0, 1, 2], ids=["first", "middle", "last"])
def test_a_short_write_leaves_the_file_dirty(short, tmp_path, monkeypatch):
    """A force of three runs on a disk store whose ``pwritev`` comes up
    short on one of them fails whole: every page stays dirty and indexed,
    and the next force writes them all."""
    smgr = make_smgr("disk", tmp_path)
    pool = BufferManager(pool_size=64)
    smgr.create("t")
    for blockno in range(12):
        buf = pool.allocate(smgr, "t")
        buf.page.add_item(b"old" * 40)
        pool.unpin(buf, dirty=True)
    pool.force([(smgr, "t")])
    dirtied = (1, 2, 5, 6, 9, 10)
    for blockno in dirtied:
        buf = pool.pin(smgr, "t", blockno)
        buf.page.add_item(bytes([blockno + 1]) * 200)
        pool.unpin(buf, dirty=True)

    real_pwritev, calls = os.pwritev, []

    def pwritev(fd, buffers, offset, *flags):
        calls.append(offset // PAGE_SIZE)
        if len(calls) - 1 == short:
            return real_pwritev(fd, buffers[:1], offset, *flags)
        return real_pwritev(fd, buffers, offset, *flags)

    monkeypatch.setattr(os, "pwritev", pwritev)
    with pytest.raises(StorageManagerError, match="short write"):
        pool.force([(smgr, "t")])
    monkeypatch.undo()
    assert calls == [1, 5, 9][:short + 1]
    assert sorted(pool._dirty[smgr.smgr_id, "t"]) == list(dirtied)
    assert all(pool._frames[smgr.smgr_id, "t", blockno].dirty
               for blockno in dirtied)
    assert_dirty_index_is_the_dirty_set(pool)

    assert pool.force([(smgr, "t")]) == len(dirtied)
    assert not pool._dirty
    store = smgr.nodes[0].store
    assert [bytes(block) for block in store.read_run("t", 0, 12)] == \
        [bytes(pool._frames[smgr.smgr_id, "t", blockno].page.buf)
         for blockno in range(12)]
    smgr.close()


def test_commit_does_not_scan_more_versions_as_history_grows():
    """A v-segment byte store grows on every write, so each commit
    replaces the store's tail chunk and leaves one more dead version
    under its seqno.  A writer's open finds where the store ends from
    the newest end of that run (and reads the object's size row the
    same way), and an overwrite's commit reads neither, so open and
    commit fetch the same number of versions however long the object's
    history is (``benchmarks/test_micro.py::history_flat`` counts the
    bytecodes this saves on a disk database)."""
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
        opened, scanned = [], []
        for _ in range(60):
            txn = db.begin()
            before = db.access_stats.tuples_scanned
            obj = db.lo.open(designator, txn, "rw")
            opened.append(db.access_stats.tuples_scanned - before)
            for _ in range(2):
                obj.seek(rng.randrange(20) * len(frame))
                obj.write(frame)
            before = db.access_stats.tuples_scanned
            obj.close()
            txn.commit()
            scanned.append(db.access_stats.tuples_scanned - before)
        assert opened[5] > 0
        assert max(opened[5:]) == opened[5], opened
        # The object's row covers an overwrite; its store keeps none.
        assert set(scanned) == {0}, scanned


#: The device trace of :func:`commit_workload` as the per-file force gave
#: it (``flush_file`` per touched file), before forces were batched per
#: manager: the batch must keep every write, sync and append in place.
TRACE_GOLDEN = Path(__file__).parent / "golden" / "force_trace.json"


def commit_workload(path) -> list[tuple[str, str]]:
    """A fixed f-chunk, v-segment and Inversion workload on a disk
    database at *path*, every operation traced by an empty fault plan:
    creates, two overwrite commits of each object, a directory, a file
    written, renamed and unlinked, and the close's checkpoint."""
    from repro.db import Database
    from repro.sim.faults import FaultPlan

    db = Database(str(path), pool_size=16, charge_cpu=False)
    plan = db.inject_faults(FaultPlan())
    frame = bytes(range(1, 251)) * 16 + bytes(4000)
    with db.begin() as txn:
        objects = [db.lo.create(txn, "fchunk"),
                   db.lo.create(txn, "vsegment", compression="zero-rle")]
        for designator in objects:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(frame * 4)
    for generation in (1, 2):
        with db.begin() as txn:
            for designator in objects:
                with db.lo.open(designator, txn, "rw") as obj:
                    obj.seek(3000 * generation)
                    obj.write(bytes([generation]) * 9000)
    fs = db.inversion
    with db.begin() as txn:
        fs.mkdir(txn, "/d")
        fs.create(txn, "/d/a")
        fs.write_file(txn, "/d/a", frame * 3)
    with db.begin() as txn:
        fs.rename(txn, "/d/a", "/d/b")
    with db.begin() as txn:
        fs.unlink(txn, "/d/b")
    db.close()
    return plan.trace


def overwrite_commit(path):
    """A disk database holding a 50-frame zero-rle v-segment object, and
    an open transaction with the descriptor that overwrote frames 7 and
    31, still open (the ``frames_v`` commit shape): ``(db, txn, obj)``."""
    from repro.bench.datasets import frame_bytes
    from repro.db import Database

    db = Database(str(path), charge_cpu=False)
    with db.begin() as txn:
        designator = db.lo.create(txn, "vsegment", compression="zero-rle")
        with db.lo.open(designator, txn, "rw") as obj:
            for frame in range(50):
                obj.write(frame_bytes(frame, 0.5, frame_size=4000))
    for generation in (1, 2, 3):
        txn = db.begin()
        obj = db.lo.open(designator, txn, "rw")
        for frame in (7, 31):
            obj.seek(frame * 4000)
            obj.write(frame_bytes(frame, 0.5, frame_size=4000,
                                  generation=generation))
        if generation < 3:
            obj.close()
            txn.commit()
    return db, txn, obj


class TestCommitForce:
    """A commit is one :meth:`BufferManager.force` of its touched files:
    one ``StorageManager.force`` call per manager, and per file its
    writes, then its sync, in touched order."""

    def test_the_device_trace_is_the_per_file_force(self, tmp_path):
        golden = json.loads(TRACE_GOLDEN.read_text())
        assert [list(op) for op in commit_workload(tmp_path / "db")] \
            == golden

    def test_a_vsegment_overwrite_commit_is_one_call(self, tmp_path,
                                                     monkeypatch):
        """Exact counts of the ``frames_v`` commit shape: one force call
        for four files, each file's runs those of its dirty blocks, four
        syncs, and one leaf splice per index insert."""
        from repro.access.btree import BTree

        db, txn, obj = overwrite_commit(tmp_path / "db")
        smgr, pool = db.storage_manager("disk"), db.bufmgr
        forces, expected, syncs, inserts, splices = [], [], [], [], []
        real_force, real_sync = smgr.force, smgr.sync
        real_insert, real_splice = BTree.insert_run, BTree._store_leaf

        def force(batch, written=None):
            forces.append([(fileid, [(first, len(images))
                                     for first, images in runs])
                           for fileid, runs in batch])
            for fileid, _runs in batch:
                blocks = sorted(pool._dirty[smgr.smgr_id, fileid])
                expected.append((fileid, [(first, len(run)) for first, run
                                          in block_runs(blocks, blocks)]))
            return real_force(batch, written)

        def insert_run(tree, entries):
            inserts.extend(entries)
            return real_insert(tree, entries)

        def store_leaf(tree, blockno, node, run):
            splices.append(len(run))
            return real_splice(tree, blockno, node, run)

        monkeypatch.setattr(smgr, "force", force)
        monkeypatch.setattr(smgr, "sync", lambda fileid: (
            syncs.append(fileid), real_sync(fileid)))
        monkeypatch.setattr(BTree, "insert_run", insert_run)
        monkeypatch.setattr(BTree, "_store_leaf", store_leaf)
        obj.close()
        txn.commit()
        monkeypatch.undo()
        assert forces == [expected]
        assert [fileid for fileid, _runs in expected] == \
            [fileid for _smgr, fileid in txn.touched]
        assert len(expected) == 4
        assert syncs == [fileid for fileid, _runs in expected]
        assert inserts and splices == [1] * len(inserts)
        db.close()

    def test_a_failed_second_file_leaves_the_first_clean_and_synced(
            self, tmp_path):
        db, txn, obj = overwrite_commit(tmp_path / "db")
        obj.close()
        smgr, pool = db.storage_manager("disk"), db.bufmgr
        files = [fileid for _smgr, fileid in txn.touched]
        assert len(files) == 4
        plan = db.inject_faults(f"on write {files[1]}: error")
        with pytest.raises(StorageManagerError):
            txn.commit()
        assert (smgr.smgr_id, files[0]) not in pool._dirty
        assert plan.op_count("sync", files[0]) == 1
        assert (smgr.smgr_id, files[1]) in pool._dirty
        assert plan.op_count("sync", files[1]) == 0
        assert not [op for op in plan.trace if op[1] in files[2:]]
        db.clear_faults()
        db.close()
