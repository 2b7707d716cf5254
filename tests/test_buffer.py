"""Unit tests for the buffer manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BufferError_, ChecksumError, StorageManagerError
from repro.sim import SimClock
from repro.sim.faults import parse_plan
from repro.smgr import DiskStorageManager, MemoryStorageManager
from repro.storage import BufferManager
from repro.storage.constants import PAGE_SIZE
from repro.storage.page import SlottedPage, seal


@pytest.fixture
def smgr():
    return MemoryStorageManager(SimClock())


@pytest.fixture
def pool(smgr):
    return BufferManager(pool_size=4)


def new_file(smgr, name="t"):
    smgr.create(name)
    return name


class TestAllocate:
    def test_allocate_extends_logically(self, pool, smgr):
        fid = new_file(smgr)
        buf = pool.allocate(smgr, fid)
        assert buf.blockno == 0
        assert pool.nblocks(smgr, fid) == 1
        assert smgr.nblocks(fid) == 0  # not yet on the device
        pool.unpin(buf, dirty=True)

    def test_flush_materializes_file(self, pool, smgr):
        fid = new_file(smgr)
        buf = pool.allocate(smgr, fid)
        buf.page.add_item(b"hello")
        pool.unpin(buf, dirty=True)
        written = pool.flush_file(smgr, fid)
        assert written == 1
        assert smgr.nblocks(fid) == 1

    def test_allocation_counter(self, pool, smgr):
        fid = new_file(smgr)
        pool.unpin(pool.allocate(smgr, fid), dirty=True)
        assert pool.stats.allocations == 1


class TestPinUnpin:
    def test_roundtrip_through_device(self, pool, smgr):
        fid = new_file(smgr)
        buf = pool.allocate(smgr, fid)
        slot = buf.page.add_item(b"persisted")
        pool.unpin(buf, dirty=True)
        pool.flush_file(smgr, fid)
        pool.drop_file(smgr, fid)  # force a device read
        with pool.page(smgr, fid, 0) as page:
            assert page.get_item(slot) == b"persisted"

    def test_hit_counted(self, pool, smgr):
        fid = new_file(smgr)
        pool.unpin(pool.allocate(smgr, fid), dirty=True)
        buf = pool.pin(smgr, fid, 0)
        pool.unpin(buf)
        assert pool.stats.hits == 1

    def test_unpin_unpinned_rejected(self, pool, smgr):
        fid = new_file(smgr)
        buf = pool.allocate(smgr, fid)
        pool.unpin(buf, dirty=True)
        with pytest.raises(BufferError_):
            pool.unpin(buf)

    def test_page_context_manager_marks_dirty(self, pool, smgr):
        fid = new_file(smgr)
        buf = pool.allocate(smgr, fid)
        pool.unpin(buf, dirty=True)
        pool.flush_file(smgr, fid)
        with pool.page(smgr, fid, 0, write=True) as page:
            page.add_item(b"mutation")
        assert pool.flush_file(smgr, fid) == 1


class TestEviction:
    def test_eviction_writes_back_dirty(self, smgr):
        pool = BufferManager(pool_size=2)
        fid = new_file(smgr)
        for i in range(4):
            buf = pool.allocate(smgr, fid)
            buf.page.add_item(bytes([i + 1]) * 10)
            pool.unpin(buf, dirty=True)
        # Two of the four pages must have been evicted and written.
        assert pool.stats.evictions >= 2
        assert smgr.nblocks(fid) >= 2

    def test_pool_exhaustion_with_pins(self, smgr):
        pool = BufferManager(pool_size=2)
        fid = new_file(smgr)
        held = [pool.allocate(smgr, fid) for _ in range(2)]
        with pytest.raises(BufferError_):
            pool.allocate(smgr, fid)
        for buf in held:
            pool.unpin(buf, dirty=True)

    def test_evicted_page_readable_again(self, smgr):
        pool = BufferManager(pool_size=2)
        fid = new_file(smgr)
        contents = {}
        for i in range(6):
            buf = pool.allocate(smgr, fid)
            slot = buf.page.add_item(bytes([i + 1]) * 20)
            contents[i] = (slot, bytes([i + 1]) * 20)
            pool.unpin(buf, dirty=True)
        pool.flush_all()
        for blockno, (slot, data) in contents.items():
            with pool.page(smgr, fid, blockno) as page:
                assert page.get_item(slot) == data

    def test_a_refused_eviction_write_back_evicts_nothing(self, smgr):
        """A full pool of dirty frames of ``a`` whose write-back fails:
        the miss that needed the room raises, and the victim is still
        resident, dirty, indexed and in the ring, the ring is the frame
        table, and no eviction is counted.  Disarmed, the next miss
        writes ``a`` back and evicts one frame."""
        pool = BufferManager(pool_size=4)
        new_file(smgr, "a")
        device_file(smgr, "b", 2)
        for n in range(4):
            buf = pool.allocate(smgr, "a")
            buf.page.add_item(bytes([n + 1]) * 16)
            pool.unpin(buf, dirty=True)
        victim = pool._ring[0]
        smgr.set_fault_plan(parse_plan("on write a: error"))
        for blockno in range(2):
            with pytest.raises(StorageManagerError, match="injected"):
                pool.pin(smgr, "b", blockno)
            assert len(pool._ring) == len(pool._frames) <= pool.pool_size
            assert {id(buf) for buf in pool._ring} == \
                {id(buf) for buf in pool._frames.values()}
            assert pool.stats.evictions == 0
            assert pool._frames[victim.key] is victim and victim.dirty
            assert victim.blockno in pool._dirty[smgr.smgr_id, "a"]
        assert smgr.nblocks("a") == 0

        smgr.set_fault_plan(None)
        pool.unpin(pool.pin(smgr, "b", 0))
        assert pool.stats.evictions == 1
        assert len(pool._ring) == len(pool._frames) == pool.pool_size
        assert victim.key not in pool._frames and not victim.dirty
        assert not pool._dirty and smgr.nblocks("a") == 4
        assert (smgr.smgr_id, "b", 0) in pool._frames

    def test_a_gap_below_the_dirty_tail_is_refused(self, smgr):
        """Blocks 0-2 cleaned by hand (nothing in the pool cleans a frame
        but a write-back) leave dirty block 3 above blocks the device
        lacks: the force raises instead of writing zeros there, writes
        nothing, and block 3 stays dirty."""
        pool = BufferManager(pool_size=8)
        fid = new_file(smgr)
        bufs = [pool.allocate(smgr, fid) for _ in range(4)]
        for buf in bufs:
            pool.unpin(buf, dirty=True)
        for blockno in range(3):
            pool._dirty[smgr.smgr_id, fid].pop(blockno).dirty = False
        with pytest.raises(StorageManagerError, match="hole"):
            pool.flush_file(smgr, fid)
        assert smgr.nblocks(fid) == 0
        assert smgr.stats()["writes"] == 0
        assert bufs[3].dirty
        assert list(pool._dirty[smgr.smgr_id, fid]) == [3]


class TestFlush:
    def test_flush_all(self, pool, smgr):
        a, b = new_file(smgr, "a"), new_file(smgr, "b")
        pool.unpin(pool.allocate(smgr, a), dirty=True)
        pool.unpin(pool.allocate(smgr, b), dirty=True)
        assert pool.flush_all() == 2

    def test_flush_clean_pages_is_noop(self, pool, smgr):
        fid = new_file(smgr)
        pool.unpin(pool.allocate(smgr, fid), dirty=True)
        pool.flush_file(smgr, fid)
        assert pool.flush_file(smgr, fid) == 0

    def test_drop_file_discards_dirty(self, pool, smgr):
        fid = new_file(smgr)
        buf = pool.allocate(smgr, fid)
        buf.page.add_item(b"gone")
        pool.unpin(buf, dirty=True)
        pool.drop_file(smgr, fid)
        assert smgr.nblocks(fid) == 0


def materialized_file(pool, smgr, nblocks, name="pf"):
    """A file with *nblocks* real device blocks and a cold pool."""
    fid = new_file(smgr, name)
    for i in range(nblocks):
        buf = pool.allocate(smgr, fid)
        buf.page.add_item(bytes([i + 1]) * 16)
        pool.unpin(buf, dirty=True)
    pool.flush_file(smgr, fid)
    pool.drop_file(smgr, fid)
    return fid


class TestPrefetch:
    def test_prefetch_reads_blocks_unpinned(self, smgr):
        pool = BufferManager(pool_size=8)
        fid = materialized_file(pool, smgr, 4)
        assert pool.prefetch(smgr, fid, 0, 4) == 4
        assert pool.stats.prefetched == 4
        assert pool.pinned_count() == 0

    def test_demand_pin_counts_prefetch_hit_once(self, smgr):
        pool = BufferManager(pool_size=8)
        fid = materialized_file(pool, smgr, 2)
        pool.prefetch(smgr, fid, 0, 2)
        buf = pool.pin(smgr, fid, 0)
        pool.unpin(buf)
        assert pool.stats.prefetch_hits == 1
        # The flag is consumed: a re-pin is a plain hit, not a second
        # prefetch hit.
        buf = pool.pin(smgr, fid, 0)
        pool.unpin(buf)
        assert pool.stats.prefetch_hits == 1
        assert pool.stats.hits == 2

    def test_prefetch_clamped_to_file_length(self, smgr):
        pool = BufferManager(pool_size=8)
        fid = materialized_file(pool, smgr, 2)
        assert pool.prefetch(smgr, fid, 0, 10) == 2
        assert pool.prefetch(smgr, fid, 5, 10) == 0

    def test_prefetch_skips_resident_blocks(self, smgr):
        pool = BufferManager(pool_size=8)
        fid = materialized_file(pool, smgr, 3)
        pool.unpin(pool.pin(smgr, fid, 1))
        assert pool.prefetch(smgr, fid, 0, 3) == 2
        # The demand-read block keeps its non-prefetched identity.
        pool.unpin(pool.pin(smgr, fid, 1))
        assert pool.stats.prefetch_hits == 0

    def test_prefetched_blocks_are_evictable(self, smgr):
        pool = BufferManager(pool_size=2)
        fid = materialized_file(pool, smgr, 4)
        assert pool.prefetch(smgr, fid, 0, 4) == 4
        # Low usage means the sweep can turn them over within one pool.
        pool.unpin(pool.pin(smgr, fid, 3))


class TestDecodedCache:
    def test_put_get_roundtrip(self, pool, smgr):
        fid = new_file(smgr)
        pool.put_decoded(smgr, fid, 0, "node-zero")
        assert pool.get_decoded(smgr, fid, 0) == "node-zero"
        assert pool.stats.node_cache_hits == 1

    def test_miss_counted(self, pool, smgr):
        fid = new_file(smgr)
        assert pool.get_decoded(smgr, fid, 7) is None
        assert pool.stats.node_cache_misses == 1

    def test_lru_bounded(self, smgr):
        pool = BufferManager(pool_size=4)
        fid = new_file(smgr)
        for blockno in range(pool._decoded_limit + 5):
            pool.put_decoded(smgr, fid, blockno, blockno)
        assert len(pool._decoded) == pool._decoded_limit
        assert pool.get_decoded(smgr, fid, 0) is None  # oldest evicted

    def test_drop_single_block(self, pool, smgr):
        fid = new_file(smgr)
        pool.put_decoded(smgr, fid, 0, "a")
        pool.put_decoded(smgr, fid, 1, "b")
        pool.drop_decoded(smgr, fid, 0)
        assert pool.get_decoded(smgr, fid, 0) is None
        assert pool.get_decoded(smgr, fid, 1) == "b"

    def test_drop_file_clears_decoded(self, pool, smgr):
        keep, gone = new_file(smgr, "keep"), new_file(smgr, "gone")
        pool.put_decoded(smgr, keep, 0, "k")
        pool.put_decoded(smgr, gone, 0, "g")
        pool.drop_file(smgr, gone)
        assert pool.get_decoded(smgr, gone, 0) is None
        assert pool.get_decoded(smgr, keep, 0) == "k"

    def test_invalidate_all_clears_decoded(self, pool, smgr):
        fid = new_file(smgr)
        pool.put_decoded(smgr, fid, 0, "x")
        pool.invalidate_all()
        assert pool.get_decoded(smgr, fid, 0) is None


class TestChecksums:
    def test_corrupt_block_detected(self, pool, smgr):
        fid = new_file(smgr)
        buf = pool.allocate(smgr, fid)
        seal([buf.page.buf], 1)  # nonzero lsn enables verification
        buf.page.add_item(b"data")
        pool.unpin(buf, dirty=True)
        pool.flush_file(smgr, fid)
        pool.drop_file(smgr, fid)
        # Corrupt the stored block behind the pool's back.
        raw = smgr.read_block(fid, 0)
        raw[4000] ^= 0xFF
        smgr._files[fid][0] = bytearray(raw)
        with pytest.raises(ChecksumError):
            pool.pin(smgr, fid, 0)

    def test_pinned_count_is_zero_at_rest(self, pool, smgr):
        fid = new_file(smgr)
        pool.unpin(pool.allocate(smgr, fid), dirty=True)
        assert pool.pinned_count() == 0


def device_file(smgr, fid, nblocks, sealed=False):
    """*fid* on the device with *nblocks* pages: zero pages, or (*sealed*)
    pages with an item each whose checksum reads verify."""
    smgr.create(fid)
    images = []
    for blockno in range(nblocks):
        page = SlottedPage()
        if sealed:
            page.add_item(bytes([blockno + 1]) * 16)
            seal([page.buf], blockno + 1)
        images.append(bytes(page.buf))
    smgr.write_runs(fid, [(0, images)])
    return images


def assert_items(pool, smgr, fid, nblocks=6):
    """Every page of a *sealed* :func:`device_file` reads back through the
    pool with its item."""
    for blockno in range(nblocks):
        with pool.page(smgr, fid, blockno) as page:
            assert page.get_item(0) == bytes([blockno + 1]) * 16


def make_smgr(kind, tmp_path):
    if kind == "disk":
        return DiskStorageManager(str(tmp_path / "data"), SimClock())
    return MemoryStorageManager(SimClock())


class _LoggedFrames(dict):
    """A frame table that records each key deleted from it, in order."""

    def __init__(self):
        super().__init__()
        self.deleted = []

    def __delitem__(self, key):
        self.deleted.append(key)
        super().__delitem__(key)


class _Frame:
    def __init__(self, pin, dirty=False, prefetched=False):
        self.pin, self.usage = pin, 1
        self.dirty, self.prefetched = dirty, prefetched


class _ReferencePool:
    """The clock sweep as specified, over plain records: a list of keys in
    install order (a dropped file's keys leave it at once, the hand moving
    back by those before it), a hand, and one eviction per frame installed
    into a full pool."""

    def __init__(self, size, device_blocks):
        self.size = size
        self.frames = {}
        self.order = []
        self.hand = 0
        self.device = dict(device_blocks)   # fid -> blocks on the device
        self.virtual = {}                   # fid -> pool-side length
        self.hits = self.misses = self.evictions = self.prefetched = 0
        self.evicted = []

    def nblocks(self, fid):
        return self.virtual.get(fid, self.device[fid])

    def pinned(self):
        return sum(1 for frame in self.frames.values() if frame.pin)

    def _make_room(self):
        if len(self.frames) < self.size:
            return
        while True:     # the test never pins every frame
            if self.hand >= len(self.order):
                self.hand = 0
            key = self.order[self.hand]
            frame = self.frames[key]
            if frame.pin:
                self.hand += 1
            elif frame.usage:
                frame.usage -= 1
                self.hand += 1
            else:
                del self.order[self.hand]
                self.evictions += 1
                if frame.dirty:     # the victim's whole file is written
                    fid = key[0]
                    dirty = [k for k, f in self.frames.items()
                             if k[0] == fid and f.dirty]
                    for k in dirty:
                        self.frames[k].dirty = False
                    self.device[fid] = max(self.device[fid],
                                           max(k[1] for k in dirty) + 1)
                del self.frames[key]
                self.evicted.append(key)
                return

    def _install(self, key, frame):
        self.frames[key] = frame
        self.order.append(key)
        return frame

    def pin(self, fid, blockno):
        frame = self.frames.get((fid, blockno))
        if frame is None:
            self.misses += 1
            self._make_room()
            return self._install((fid, blockno), _Frame(pin=1))
        self.hits += 1
        frame.prefetched = False
        frame.pin += 1
        frame.usage = min(frame.usage + 1, 5)
        return frame

    def unpin(self, frame, dirty):
        frame.pin -= 1
        frame.dirty = frame.dirty or dirty

    def allocate(self, fid):
        self._make_room()
        blockno = self.nblocks(fid)
        self.virtual[fid] = blockno + 1
        return self._install((fid, blockno), _Frame(pin=1, dirty=True))

    def prefetch(self, fid, first, count):
        """The blocks not resident when the call starts are read, even one
        that an earlier block of the call evicts."""
        wanted = [blockno for blockno in
                  range(first, min(first + count, self.device[fid]))
                  if (fid, blockno) not in self.frames]
        for blockno in wanted:
            self._make_room()
            self._install((fid, blockno), _Frame(0, prefetched=True))
            self.prefetched += 1

    def drop_file(self, fid):
        """Forget the file's frames unwritten; returns their keys."""
        dropped = [key for key in self.frames if key[0] == fid]
        for key in dropped:
            del self.frames[key]
        self.hand -= sum(key[0] == fid for key in self.order[:self.hand])
        self.order = [key for key in self.order if key[0] != fid]
        self.virtual.pop(fid, None)
        return dropped


_FILES = ("a", "b")
_POOL_OPS = st.one_of(
    st.tuples(st.just("pin"), st.sampled_from(_FILES), st.integers(0, 63)),
    st.tuples(st.just("unpin"), st.integers(0, 63), st.booleans()),
    st.tuples(st.just("allocate"), st.sampled_from(_FILES)),
    st.tuples(st.just("prefetch"), st.sampled_from(_FILES),
              st.integers(0, 14), st.integers(1, 8)),
    st.tuples(st.just("drop"), st.sampled_from(_FILES)),
)


class TestReplacementOrder:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_POOL_OPS, max_size=80))
    def test_the_sweep_matches_the_reference(self, ops):
        """Random pin/unpin/allocate/prefetch/drop_file on an 8-frame pool
        evict the frames the reference sweep evicts, in its order, and
        leave the same usage counts and counters — in particular a run's
        frames are installed one at a time, each after its own room."""
        smgr = MemoryStorageManager(SimClock())
        for fid in _FILES:
            device_file(smgr, fid, 10)
        pool = BufferManager(pool_size=8)
        pool._frames = frames = _LoggedFrames()
        ref = _ReferencePool(8, {fid: 10 for fid in _FILES})
        held = []           # (Buffer, reference frame) per pin held
        for op, *args in ops:
            frames.deleted.clear()
            ref.evicted.clear()
            if op in ("pin", "allocate") and ref.pinned() >= 6:
                continue
            if op == "pin":
                fid, blockno = args[0], args[1] % (ref.nblocks(args[0]) or 1)
                if not ref.nblocks(fid):
                    continue
                held.append((pool.pin(smgr, fid, blockno),
                             ref.pin(fid, blockno)))
            elif op == "unpin":
                if not held:
                    continue
                buf, frame = held.pop(args[0] % len(held))
                pool.unpin(buf, dirty=args[1])
                ref.unpin(frame, args[1])
            elif op == "allocate":
                held.append((pool.allocate(smgr, args[0]),
                             ref.allocate(args[0])))
            elif op == "prefetch":
                before = ref.prefetched
                ref.prefetch(*args)
                assert pool.prefetch(smgr, *args) == ref.prefetched - before
            else:
                pool.drop_file(smgr, args[0])
                ref.evicted = ref.drop_file(args[0])
            assert [(key[1], key[2]) for key in frames.deleted] == \
                ref.evicted, op
            stats = pool.stats
            assert (stats.hits, stats.misses, stats.evictions,
                    stats.prefetched) == (ref.hits, ref.misses,
                                          ref.evictions, ref.prefetched)
            assert {(key[1], key[2]): (buf.pin_count, buf.usage, buf.dirty,
                                       buf.prefetched)
                    for key, buf in pool._frames.items()} == \
                {key: (frame.pin, frame.usage, frame.dirty, frame.prefetched)
                 for key, frame in ref.frames.items()}
        for buf, _frame in held:
            pool.unpin(buf)
        assert pool.pinned_count() == 0


    def test_a_frame_recreated_after_drop_file_is_swept_once(self):
        """A dropped file's frames leave the ring at once: a block read
        back under the same key is visited once per revolution, so the
        sweep decrements each frame once and evicts the first frame to
        reach 0 — here the survivor installed before it."""
        smgr = MemoryStorageManager(SimClock())
        for fid in ("f", "g", "h"):
            device_file(smgr, fid, 1)
        pool = BufferManager(pool_size=2)
        for fid in ("f", "g"):
            pool.unpin(pool.pin(smgr, fid, 0))
        pool.drop_file(smgr, "f")
        pool.unpin(pool.pin(smgr, "f", 0))          # the same key again
        pool.unpin(pool.pin(smgr, "h", 0))
        assert sorted(key[1] for key in pool._frames) == ["f", "h"]
        assert pool._frames[(smgr.smgr_id, "f", 0)].usage == 0
        assert pool.stats.evictions == 1


    def test_drop_file_moves_the_hand_back_over_its_frames(self):
        """The hand keeps pointing at the frame it pointed at when a
        dropped file's frames before it leave the ring."""
        smgr = MemoryStorageManager(SimClock())
        for fid, nblocks in (("f", 1), ("g", 3), ("h", 1), ("k", 1),
                             ("m", 1)):
            device_file(smgr, fid, nblocks)
        pool = BufferManager(pool_size=4)
        for fid, blockno in (("f", 0), ("g", 0), ("g", 1), ("g", 2),
                             ("f", 0)):
            pool.unpin(pool.pin(smgr, fid, blockno))
        pool.unpin(pool.pin(smgr, "h", 0))      # evicts g0: the hand at 1
        pool.drop_file(smgr, "f")               # ... and back to g1
        pool.unpin(pool.pin(smgr, "k", 0))      # a free frame
        pool.unpin(pool.pin(smgr, "m", 0))
        assert sorted(key[1:] for key in pool._frames) == \
            [("g", 2), ("h", 0), ("k", 0), ("m", 0)]


@pytest.mark.parametrize("kind", ["disk", "memory"])
class TestPrefetchedRunIsOneRead:
    """A cold prefetched run is one store read and one device charge; the
    device sees what the same blocks read one by one on demand cost."""

    def _setup(self, kind, tmp_path, pool_size=8):
        smgr = make_smgr(kind, tmp_path)
        device_file(smgr, "t", 6, sealed=True)
        device_file(smgr, "w", 1)       # the head ends away from "t"
        calls = []
        for owner, name in ((smgr.nodes[0].store, "read_run"),
                            (smgr.port, "charge_run")):
            real = getattr(owner, name)

            def logged(*args, _real=real, _name=name):
                calls.append((_name, *args))
                return _real(*args)
            setattr(owner, name, logged)
        return smgr, calls, BufferManager(pool_size=pool_size)

    @staticmethod
    def _device(smgr):
        return (smgr.clock.elapsed, smgr.clock.breakdown(), smgr.port.busy_s,
                smgr.port.reads, smgr.port.seeks, smgr.nodes[0]._ops)

    def test_a_run_equals_six_demand_reads(self, kind, tmp_path):
        smgr, calls, pool = self._setup(kind, tmp_path / "run")
        assert pool.prefetch(smgr, "t", 0, 6) == 6
        assert [call[0] for call in calls] == ["read_run", "charge_run"]
        assert calls[1][1:] == ("t", 0, PAGE_SIZE, 6, False)
        demand, _calls, other = self._setup(kind, tmp_path / "one")
        for blockno in range(6):
            other.unpin(other.pin(demand, "t", blockno))
        assert self._device(smgr) == self._device(demand)
        assert_items(pool, smgr, "t")

    def test_a_dirty_victim_is_written_after_the_run(self, kind, tmp_path):
        smgr, calls, pool = self._setup(kind, tmp_path, pool_size=4)
        buf = pool.pin(smgr, "w", 0)
        buf.page.add_item(b"dirty")
        pool.unpin(buf, dirty=True)
        calls.clear()
        seeks = smgr.port.seeks
        assert pool.prefetch(smgr, "t", 0, 6) == 6
        # The fourth frame evicts the dirty page of "w": its write-back
        # follows the run's one read, so the device seeks twice, not
        # three times (to "t", to "w", back to "t").
        assert [call[:2] + call[4:] for call in calls
                if call[0] == "charge_run"] == \
            [("charge_run", "t", 6, False), ("charge_run", "w", 1, True)]
        assert smgr.port.seeks - seeks == 2
        assert pool.stats.evictions == 3 and pool.pinned_count() == 0
        assert SlottedPage(smgr.read_block("w", 0)).get_item(0) == b"dirty"
        assert_items(pool, smgr, "t")


@pytest.mark.parametrize("kind", ["disk", "memory"])
class TestPrefetchFailsMidRun:
    """A run that fails keeps what it installed, counted, and pins nothing;
    once the fault is gone every block reads back right."""

    @staticmethod
    def _frames_of(pool, fid):
        return sorted(key[2] for key in pool._frames if key[1] == fid)

    def test_a_corrupt_page_stops_the_run_there(self, kind, tmp_path):
        smgr = make_smgr(kind, tmp_path)
        images = device_file(smgr, "heap_t", 6, sealed=True)
        bad = bytearray(images[3])
        bad[4000] ^= 0xFF
        smgr.write_block("heap_t", 3, bytes(bad))
        pool = BufferManager(pool_size=8)
        with pytest.raises(ChecksumError):
            pool.prefetch(smgr, "heap_t", 0, 6)
        assert self._frames_of(pool, "heap_t") == [0, 1, 2]
        assert pool.stats.prefetched == 3
        assert pool.pinned_count() == 0
        smgr.write_block("heap_t", 3, images[3])
        assert_items(pool, smgr, "heap_t")

    def test_a_never_written_page_inside_the_run_is_accepted(self, kind,
                                                             tmp_path):
        # A page with LSN 0 carries no checksum (it was never sealed):
        # the run's one checksum pass must pass it and go on to the
        # torn page after it, which still stops the run there.
        smgr = make_smgr(kind, tmp_path)
        images = device_file(smgr, "heap_t", 6, sealed=True)
        smgr.write_block("heap_t", 2, bytes(SlottedPage().buf))
        bad = bytearray(images[4])
        bad[4000] ^= 0xFF
        smgr.write_block("heap_t", 4, bytes(bad))
        pool = BufferManager(pool_size=8)
        with pytest.raises(ChecksumError, match="block 4 "):
            pool.prefetch(smgr, "heap_t", 0, 6)
        assert self._frames_of(pool, "heap_t") == [0, 1, 2, 3]
        with pool.page(smgr, "heap_t", 2) as page:
            assert page.lsn == 0 and page.slot_count == 0
        assert pool.pinned_count() == 0

    def test_an_injected_error_installs_nothing(self, kind, tmp_path):
        smgr = make_smgr(kind, tmp_path)
        device_file(smgr, "heap_t", 6, sealed=True)
        pool = BufferManager(pool_size=8)
        smgr.set_fault_plan(parse_plan("on read heap_* after 2: error"))
        with pytest.raises(StorageManagerError, match="injected"):
            pool.prefetch(smgr, "heap_t", 0, 6)
        assert self._frames_of(pool, "heap_t") == []
        assert pool.stats.prefetched == 0
        assert pool.pinned_count() == 0
        smgr.set_fault_plan(None)
        assert_items(pool, smgr, "heap_t")
