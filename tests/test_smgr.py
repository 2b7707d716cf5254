"""Unit tests for the storage managers and the storage-manager switch."""

import pytest

from repro.errors import (
    StorageManagerError,
    WriteOnceViolation,
)
from repro.sim import SimClock, jukebox_device
from repro.smgr import (
    CachedStorageManager,
    DiskStorageManager,
    MemoryStorageManager,
    RawWormDevice,
    StorageManagerSwitch,
    WormStorageManager,
)
from repro.storage.constants import PAGE_SIZE


def block(fill: int) -> bytes:
    return bytes([fill]) * PAGE_SIZE


@pytest.fixture(params=["disk", "memory", "worm"])
def smgr(request, tmp_path):
    clock = SimClock()
    if request.param == "disk":
        return DiskStorageManager(str(tmp_path / "data"), clock)
    if request.param == "memory":
        return MemoryStorageManager(clock)
    return WormStorageManager(clock)


class TestCommonBehaviour:
    def test_create_and_exists(self, smgr):
        assert not smgr.exists("t")
        smgr.create("t")
        assert smgr.exists("t")
        assert smgr.nblocks("t") == 0

    def test_create_is_idempotent(self, smgr):
        smgr.create("t")
        smgr.write_block("t", 0, block(1))
        smgr.create("t")
        assert smgr.nblocks("t") == 1

    def test_extend_and_read(self, smgr):
        smgr.create("t")
        assert smgr.extend("t", block(1)) == 0
        assert smgr.extend("t", block(2)) == 1
        assert bytes(smgr.read_block("t", 0)) == block(1)
        assert bytes(smgr.read_block("t", 1)) == block(2)

    def test_read_past_end_rejected(self, smgr):
        smgr.create("t")
        smgr.extend("t", block(1))
        with pytest.raises(StorageManagerError):
            smgr.read_block("t", 1)
        with pytest.raises(StorageManagerError):
            smgr.read_block("t", -1)

    def test_write_hole_rejected(self, smgr):
        smgr.create("t")
        with pytest.raises(StorageManagerError):
            smgr.write_block("t", 5, block(1))

    def test_wrong_block_size_rejected(self, smgr):
        smgr.create("t")
        with pytest.raises(StorageManagerError):
            smgr.write_block("t", 0, b"tiny")

    def test_missing_file_rejected(self, smgr):
        with pytest.raises(StorageManagerError):
            smgr.nblocks("nope")

    def test_unlink(self, smgr):
        smgr.create("t")
        smgr.extend("t", block(1))
        smgr.unlink("t")
        assert not smgr.exists("t")

    def test_byte_size(self, smgr):
        smgr.create("t")
        smgr.extend("t", block(1))
        smgr.extend("t", block(2))
        assert smgr.byte_size("t") == 2 * PAGE_SIZE

    def test_io_charges_clock(self, smgr):
        smgr.create("t")
        smgr.extend("t", block(1))
        assert smgr.clock.elapsed > 0

    def test_stats(self, smgr):
        smgr.create("t")
        smgr.extend("t", block(1))
        smgr.read_block("t", 0)
        stats = smgr.stats()
        assert stats["reads"] >= 1
        assert stats["writes"] >= 1


@pytest.mark.parametrize("kind", ["disk", "memory"])
def test_block_store_sparse_write_sets_nblocks(kind, tmp_path):
    """The store contract under the managers: one past the highest block
    written, holes read as zeros, unlink forgets the length."""
    from repro.smgr.base import DiskBlockStore, MemoryBlockStore
    store = (DiskBlockStore(str(tmp_path)) if kind == "disk"
             else MemoryBlockStore())
    store.create("t")
    assert store.nblocks("t") == 0
    store.write("t", 5, block(5))
    assert store.nblocks("t") == 6
    store.write("t", 2, block(2))  # below the mark: no change
    store.write("t", 5, block(9))  # overwrite: no change
    assert store.nblocks("t") == 6
    assert bytes(store.read("t", 3)) == bytes(PAGE_SIZE)
    assert bytes(store.read("t", 5)) == block(9)
    store.unlink("t")
    store.create("t")
    assert store.nblocks("t") == 0
    store.close()


def test_disk_store_length_visible_without_sync(tmp_path, monkeypatch):
    """A written page is in the file, and in ``nblocks``, at once — also on
    a file system whose preferred block size (the default buffer of a
    buffered handle) exceeds a page, modelled here by forcing one."""
    import builtins
    import os

    from repro.smgr.base import DiskBlockStore
    real_open = builtins.open

    def open_with_a_64k_buffer(file, mode="r", buffering=-1, *args, **kw):
        if "b" in mode and buffering == -1:
            buffering = 65536
        return real_open(file, mode, buffering, *args, **kw)

    monkeypatch.setattr(builtins, "open", open_with_a_64k_buffer)
    store = DiskBlockStore(str(tmp_path))
    store.create("t")
    store.write("t", 0, block(1))
    assert store.nblocks("t") == 1
    assert os.path.getsize(tmp_path / "t.rel") == PAGE_SIZE
    store.write("t", 1, block(2))  # the append the stale length refused
    assert store.nblocks("t") == 2
    store.close()


def test_disk_store_closes_descriptors_and_syncs_through_os(tmp_path,
                                                            monkeypatch):
    import os

    from repro.smgr.base import DiskBlockStore
    store = DiskBlockStore(str(tmp_path))
    synced = []
    monkeypatch.setattr(os, "fsync", synced.append)  # what elide_fsync does
    fds = []
    for fileid in ("t", "u"):
        store.create(fileid)
        store.write(fileid, 0, block(1))
        fds.append(store._open[fileid].fd)
        store.sync(fileid)
    assert synced == fds
    store.sync("never-touched")  # nothing of this store's to force
    assert synced == fds
    store.unlink("t")
    store.close()
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)
    assert not store.exists("t") and store.exists("u")
    store.close()


def test_disk_store_splits_runs_longer_than_one_vectored_call(tmp_path,
                                                              monkeypatch):
    from repro.smgr import base
    monkeypatch.setattr(base, "_IOV_MAX", 4)
    store = base.DiskBlockStore(str(tmp_path))
    store.create("t")
    images = [block(fill) for fill in range(1, 12)]
    store.write_run("t", 2, images)
    assert store.nblocks("t") == 13
    assert [bytes(b) for b in store.read_run("t", 0, 14)] == \
        [bytes(PAGE_SIZE)] * 2 + images + [bytes(PAGE_SIZE)]
    store.close()


class TestDiskSpecific:
    def test_survives_reopen(self, tmp_path):
        clock = SimClock()
        first = DiskStorageManager(str(tmp_path / "d"), clock)
        first.create("t")
        first.extend("t", block(7))
        first.sync("t")
        first.close()
        second = DiskStorageManager(str(tmp_path / "d"), SimClock())
        assert second.nblocks("t") == 1
        assert bytes(second.read_block("t", 0)) == block(7)

    def test_overwrite_allowed(self, tmp_path):
        smgr = DiskStorageManager(str(tmp_path / "d"), SimClock())
        smgr.create("t")
        smgr.extend("t", block(1))
        smgr.write_block("t", 0, block(9))
        assert bytes(smgr.read_block("t", 0)) == block(9)


class TestWormSpecific:
    def test_overwrite_rejected(self):
        smgr = WormStorageManager(SimClock())
        smgr.create("t")
        smgr.extend("t", block(1))
        with pytest.raises(WriteOnceViolation):
            smgr.write_block("t", 0, block(2))

    def test_unlink_does_not_reclaim_media(self):
        smgr = WormStorageManager(SimClock())
        smgr.create("t")
        smgr.extend("t", block(1))
        smgr.unlink("t")
        assert smgr.media_blocks_used() == 1

    def test_writes_slower_than_reads(self):
        clock = SimClock()
        smgr = WormStorageManager(clock, jukebox_device())
        smgr.create("t")
        smgr.extend("t", block(1))
        wrote = clock.elapsed_in("io.write")
        smgr.read_block("t", 0)
        read = clock.elapsed_in("io.read")
        assert wrote > read


class TestCachedWorm:
    def make(self, capacity=4):
        clock = SimClock()
        base = WormStorageManager(clock)
        return CachedStorageManager(base, clock, capacity_blocks=capacity)

    def test_second_read_hits_cache(self):
        smgr = self.make()
        smgr.create("t")
        smgr.extend("t", block(1))
        smgr.read_block("t", 0)  # hot from the write-through populate
        assert smgr.hits == 1
        assert smgr.misses == 0

    def test_cache_is_cheaper_than_media(self):
        smgr = self.make(capacity=2)
        smgr.create("t")
        smgr.extend("t", block(1))
        smgr.extend("t", block(2))
        smgr.migrate("t")
        smgr.invalidate("t")  # cold cache, blocks on media
        snap = smgr.clock.snapshot()
        smgr.read_block("t", 0)  # miss -> jukebox
        miss_cost = snap.since(smgr.clock).elapsed
        snap = smgr.clock.snapshot()
        smgr.read_block("t", 0)  # hit -> disk cache
        hit_cost = snap.since(smgr.clock).elapsed
        assert hit_cost < miss_cost / 2

    def test_eviction_respects_capacity(self):
        smgr = self.make(capacity=2)
        smgr.create("t")
        for i in range(5):
            smgr.extend("t", block(i))
        assert smgr.stats()["cached_blocks"] == 2

    def test_writes_staged_until_migrate(self):
        smgr = self.make()
        smgr.create("t")
        smgr.extend("t", block(3))
        smgr.sync("t")  # commit durability: satisfied by the cache disk
        assert smgr.base.nblocks("t") == 0  # nothing on media yet
        assert smgr.migrate("t") == 1
        assert bytes(smgr.base.read_block("t", 0)) == block(3)

    def test_staged_block_is_rewritable(self):
        """Heap pages are rewritten while they fill; the cache absorbs it."""
        smgr = self.make()
        smgr.create("t")
        smgr.extend("t", block(1))
        smgr.write_block("t", 0, block(2))  # rewrite before migration: fine
        smgr.migrate("t")
        assert bytes(smgr.base.read_block("t", 0)) == block(2)

    def test_write_once_enforced_after_migration(self):
        smgr = self.make()
        smgr.create("t")
        smgr.extend("t", block(1))
        smgr.migrate("t")
        with pytest.raises(WriteOnceViolation):
            smgr.write_block("t", 0, block(2))

    def test_eviction_spills_to_staging(self):
        smgr = self.make(capacity=2)
        smgr.create("t")
        for i in range(5):
            smgr.extend("t", block(i))
        assert smgr.base.nblocks("t") == 0  # nothing on media
        assert smgr.stats()["staged_blocks"] == 3
        for i in range(5):  # spilled blocks still readable (disk speed)
            assert bytes(smgr.read_block("t", i)) == block(i)

    def test_spilled_block_still_writable(self):
        smgr = self.make(capacity=2)
        smgr.create("t")
        for i in range(5):
            smgr.extend("t", block(i))
        smgr.write_block("t", 0, block(9))  # block 0 is in staging
        smgr.migrate("t")
        assert bytes(smgr.base.read_block("t", 0)) == block(9)

    def test_migrate_writes_media_in_order(self):
        smgr = self.make(capacity=2)
        smgr.create("t")
        for i in range(6):
            smgr.extend("t", block(i))
        assert smgr.migrate("t") == 6
        assert smgr.migrate("t") == 0  # idempotent
        for i in range(6):
            assert bytes(smgr.base.read_block("t", i)) == block(i)

    def test_sync_all_covers_every_file(self):
        smgr = self.make()
        for name in ("a", "b"):
            smgr.create(name)
            smgr.extend(name, block(7))
        smgr.sync_all()
        assert smgr.base.nblocks("a") == 1
        assert smgr.base.nblocks("b") == 1

    def test_invalidate_keeps_unarchived_blocks(self):
        smgr = self.make()
        smgr.create("t")
        smgr.extend("t", block(1))
        smgr.invalidate("t")  # dirty block must survive
        assert bytes(smgr.read_block("t", 0)) == block(1)
        smgr.migrate("t")
        smgr.invalidate("t")  # clean blocks may be dropped now
        assert bytes(smgr.read_block("t", 0)) == block(1)  # from media

    def test_unlink_invalidates(self):
        smgr = self.make()
        smgr.create("t")
        smgr.extend("t", block(1))
        smgr.unlink("t")
        assert smgr.stats()["cached_blocks"] == 0

    def test_hit_rate(self):
        smgr = self.make()
        assert smgr.hit_rate() == 0.0
        smgr.create("t")
        smgr.extend("t", block(1))
        smgr.read_block("t", 0)
        assert smgr.hit_rate() == 1.0


class TestRawWorm:
    def test_append_and_read(self):
        dev = RawWormDevice(SimClock())
        offset = dev.append(b"hello")
        assert offset == 0
        assert dev.append(b" world") == 5
        assert dev.read(0, 11) == b"hello world"
        assert dev.size == 11

    def test_read_out_of_range(self):
        dev = RawWormDevice(SimClock())
        dev.append(b"abc")
        with pytest.raises(StorageManagerError):
            dev.read(1, 5)

    def test_seal(self):
        from repro.errors import ReadOnlyObject
        dev = RawWormDevice(SimClock())
        dev.append(b"abc")
        dev.seal()
        with pytest.raises(ReadOnlyObject):
            dev.append(b"more")

    def test_sequential_cheaper_than_random(self):
        clock = SimClock()
        dev = RawWormDevice(clock)
        dev.append(bytes(1_000_000))
        snap = clock.snapshot()
        for i in range(10):
            dev.read(i * 4096, 4096)
        seq = snap.since(clock).elapsed
        snap = clock.snapshot()
        for i in [50, 3, 99, 12, 77, 31, 8, 64, 20, 90]:
            dev.read(i * 4096, 4096)
        rand = snap.since(clock).elapsed
        assert rand > seq


class TestSwitch:
    def test_register_and_get(self):
        switch = StorageManagerSwitch()
        clock = SimClock()
        switch.register("memory", lambda: MemoryStorageManager(clock))
        smgr = switch.get("memory")
        assert smgr is switch.get("memory")  # same live instance

    def test_unknown_manager(self):
        with pytest.raises(StorageManagerError):
            StorageManagerSwitch().get("tape")

    def test_names(self):
        switch = StorageManagerSwitch()
        clock = SimClock()
        switch.register("b", lambda: MemoryStorageManager(clock))
        switch.register("a", lambda: MemoryStorageManager(clock))
        assert switch.names() == ["a", "b"]

    def test_user_defined_manager(self):
        """The paper's extensibility claim: registering a new manager is
        just providing the construction routine."""
        clock = SimClock()

        class TapeManager(MemoryStorageManager):
            name = "tape"

        switch = StorageManagerSwitch()
        switch.register("tape", lambda: TapeManager(clock))
        smgr = switch.get("tape")
        smgr.create("t")
        smgr.extend("t", block(1))
        assert smgr.nblocks("t") == 1
