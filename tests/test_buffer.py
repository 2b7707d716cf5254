"""Unit tests for the buffer manager."""

import pytest

from repro.errors import BufferError_, ChecksumError
from repro.sim import SimClock
from repro.smgr import MemoryStorageManager
from repro.storage import BufferManager
from repro.storage.constants import PAGE_SIZE
from repro.storage.page import SlottedPage


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

    def test_out_of_order_eviction_fills_holes(self, smgr):
        """Flushing block 3 before 0-2 must zero-fill, not corrupt."""
        pool = BufferManager(pool_size=8)
        fid = new_file(smgr)
        bufs = [pool.allocate(smgr, fid) for _ in range(4)]
        for i, buf in enumerate(bufs):
            buf.page.add_item(bytes([i + 1]) * 8)
            pool.unpin(buf, dirty=True)
        # Only the last block is still dirty; the device lacks 0-2.
        for blockno in range(3):
            pool._dirty[smgr.smgr_id, fid].pop(blockno).dirty = False
        pool.flush_file(smgr, fid)
        assert smgr.nblocks(fid) == 4
        assert all(smgr.read_block(fid, hole) == bytes(PAGE_SIZE)
                   for hole in range(3))
        assert SlottedPage(smgr.read_block(fid, 3)).get_item(0) == b"\x04" * 8


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
        buf.page.lsn = 1  # nonzero lsn enables verification
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
