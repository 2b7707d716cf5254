"""Micro-benchmarks of the substrate layers (wall-clock, pytest-benchmark).

These complement the figure benches: the figures report *simulated* device
seconds; these report real Python-execution time of the hot paths so
regressions in the implementation itself are visible.
"""

import gc
import os
import random
import sys
import threading
import time
from contextlib import nullcontext
from statistics import median

import pytest

from repro.access.tuples import TID
from repro.bench.datasets import frame_bytes
from repro.db import Database
from repro.sim.devices import DevicePort
from repro.smgr.base import StorageNode


@pytest.fixture
def db():
    database = Database(charge_cpu=False)
    yield database
    database.close()


class TestPageMicro:
    def test_page_add_get(self, benchmark):
        from repro.storage.page import SlottedPage

        def work():
            page = SlottedPage()
            slots = [page.add_item(b"x" * 100) for _ in range(50)]
            return sum(len(page.get_item(s)) for s in slots)

        assert benchmark(work) == 5000

    def test_page_checksum(self, benchmark):
        from repro.storage.page import SlottedPage, intact_prefix, seal
        page = SlottedPage()
        page.add_item(b"payload" * 500)
        seal([page.buf], 1)
        image = bytes(page.buf)
        assert benchmark(lambda: intact_prefix([bytearray(image)])) == 1


class TestBTreeMicro:
    def test_btree_insert_1000(self, benchmark, db):
        counter = iter(range(10**9))

        def work():
            run = next(counter)
            index = db.create_index if False else None  # noqa: F841
            from repro.access.btree import BTree
            tree = BTree(f"micro{run}", db.storage_manager("memory"),
                         db.bufmgr)
            tree.create_storage()
            for i in range(1000):
                tree.insert(i, TID(i, 0))
            return tree

        tree = benchmark.pedantic(work, rounds=3, iterations=1)
        assert tree.entry_count() == 1000

    def test_btree_search(self, benchmark, db):
        from repro.access.btree import BTree
        tree = BTree("searchme", db.storage_manager("memory"),
                     db.bufmgr)
        tree.create_storage()
        for i in range(5000):
            tree.insert(i, TID(i, 0))
        result = benchmark(tree.search, 2500)
        assert result == [(2500, 0)]


class TestCompressionMicro:
    @pytest.mark.parametrize("name", ["zero-rle", "zlib"])
    def test_compress_frame(self, benchmark, name):
        from repro.compress import get_compressor
        compressor = get_compressor(name)
        frame = frame_bytes(0, 0.5)
        image = benchmark(compressor.compress, frame)
        assert compressor.decompress(image) == frame


class TestLargeObjectMicro:
    @pytest.mark.parametrize("impl", ["fchunk", "vsegment"])
    def test_frame_write(self, benchmark, db, impl):
        txn = db.begin()
        designator = db.lo.create(txn, impl)
        obj = db.lo.open(designator, txn, "rw")
        frame = frame_bytes(0, 0.0)
        position = iter(range(10**9))

        def work():
            obj.seek((next(position) % 2000) * 4096)
            obj.write(frame)

        benchmark(work)
        obj.close()
        txn.commit()

    @pytest.mark.parametrize("impl", ["fchunk", "vsegment"])
    def test_frame_read(self, benchmark, db, impl):
        txn = db.begin()
        designator = db.lo.create(txn, impl)
        with db.lo.open(designator, txn, "rw") as obj:
            for i in range(100):
                obj.write(frame_bytes(i, 0.0))
        txn.commit()
        reader = db.lo.open(designator)
        position = iter(range(10**9))

        def work():
            reader.seek((next(position) * 37 % 100) * 4096)
            return reader.read(4096)

        data = benchmark(work)
        assert len(data) == 4096
        reader.close()


@pytest.mark.perf
class TestReadPathMicro:
    """Sequential vs. random f-chunk reads: the streaming read path.

    The pair makes the §9.2 measurement visible in wall-clock terms and
    records the read-path counters in ``extra_info`` so they land in the
    pytest-benchmark JSON (``--benchmark-json=BENCH_READPATH.json``).
    """

    FRAMES = 256  # a 1 MB object of 4 KB frames

    def _loaded(self, db):
        txn = db.begin()
        designator = db.lo.create(txn, "fchunk")
        with db.lo.open(designator, txn, "rw") as obj:
            for i in range(self.FRAMES):
                obj.write(frame_bytes(i, 0.0))
        txn.commit()
        return designator

    def _record_counters(self, benchmark, db):
        stats = db.bufmgr.stats
        benchmark.extra_info["node_cache_hits"] = stats.node_cache_hits
        benchmark.extra_info["node_cache_misses"] = stats.node_cache_misses
        benchmark.extra_info["prefetched"] = stats.prefetched
        benchmark.extra_info["prefetch_hits"] = stats.prefetch_hits

    def test_fchunk_sequential_stream(self, benchmark, db):
        designator = self._loaded(db)

        def work():
            with db.lo.open(designator) as obj:
                total = 0
                while True:
                    data = obj.read(8192)
                    if not data:
                        return total
                    total += len(data)

        assert benchmark(work) == self.FRAMES * 4096
        # The whole point: a sequential pass costs O(chunks / fanout)
        # node reads, not one full descent per chunk.
        db.bufmgr.invalidate_all()
        before = db.bufmgr.stats.node_cache_misses
        work()
        node_reads = db.bufmgr.stats.node_cache_misses - before
        nchunks = (self.FRAMES * 4096) // 8000 + 1
        assert node_reads < nchunks / 4
        self._record_counters(benchmark, db)

    def test_fchunk_random_read(self, benchmark, db):
        designator = self._loaded(db)
        reader = db.lo.open(designator)
        position = iter(range(10**9))

        def work():
            reader.seek((next(position) * 131 % self.FRAMES) * 4096)
            return reader.read(4096)

        assert len(benchmark(work)) == 4096
        reader.close()
        self._record_counters(benchmark, db)

    def test_fchunk_repeated_range_read_hits_cache(self, benchmark, db):
        """Re-reading the same byte range must be served from the
        descriptor's decompressed-chunk cache, not re-fetched."""
        designator = self._loaded(db)
        reader = db.lo.open(designator)

        def work():
            reader.seek(0)
            return reader.read(16384)  # 3 chunks, all cache-resident

        work()  # warm: the timed calls re-read what this one cached
        before = db.statistics()["largeobjects"]
        assert len(benchmark(work)) == 16384
        reader.close()
        caches = {key: value - before[key] for key, value
                  in db.statistics()["largeobjects"].items()}
        assert caches["read_cache_hits"] > caches["read_cache_misses"]
        benchmark.extra_info.update(caches)

    def test_vsegment_repeated_range_read_hits_cache(self, benchmark, db):
        txn = db.begin()
        designator = db.lo.create(txn, "vsegment")
        with db.lo.open(designator, txn, "rw") as obj:
            for i in range(self.FRAMES // 4):
                obj.write(frame_bytes(i, 0.0))
        txn.commit()
        reader = db.lo.open(designator)

        def work():
            reader.seek(0)
            return reader.read(16384)

        work()  # warm: the timed calls re-read what this one cached
        before = db.statistics()["largeobjects"]
        assert len(benchmark(work)) == 16384
        reader.close()
        caches = {key: value - before[key] for key, value
                  in db.statistics()["largeobjects"].items()}
        assert caches["segment_cache_hits"] > caches["segment_cache_misses"]
        benchmark.extra_info.update(caches)


@pytest.mark.perf
class TestConcurrencyMicro:
    """Threaded mixed read/write traffic on shared large objects.

    Eight sessions split between readers (streaming an already-committed
    object, lock-free under no-overwrite versioning) and writers
    (appending to one shared object, serialized by its EXCLUSIVE lock).
    The benchmark reports whole-workload wall-clock and records the lock
    counters in ``extra_info``; readers finishing means writers never
    starve them, and the byte-exact tail check means writer handoff
    never tears an append.
    """

    THREADS = 8  # half read, half write
    OPS = 12     # transactions per thread per round

    def _loaded(self, db, frames=64):
        txn = db.begin()
        designator = db.lo.create(txn, "fchunk")
        with db.lo.open(designator, txn, "rw") as obj:
            for i in range(frames):
                obj.write(frame_bytes(i, 0.0))
        txn.commit()
        return designator

    def test_mixed_readers_writers(self, benchmark, db):
        import threading

        from repro.errors import DeadlockError

        read_target = self._loaded(db)
        write_target = self._loaded(db, frames=1)
        payload = b"APPEND##"

        def reader():
            session = db.session()
            for _ in range(self.OPS):
                with db.lo.open(read_target) as obj:
                    while obj.read(16384):
                        pass
            del session

        def writer():
            session = db.session()
            for _ in range(self.OPS):
                while True:
                    session.begin()
                    try:
                        with session.lo_open(write_target, "rw") as obj:
                            obj.seek(0, 2)
                            obj.write(payload)
                        session.commit()
                        break
                    except DeadlockError:
                        session.rollback()

        def work():
            threads = [threading.Thread(
                target=reader if i % 2 == 0 else writer, daemon=True)
                for i in range(self.THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert not any(t.is_alive() for t in threads)

        benchmark.pedantic(work, rounds=3, iterations=1)
        with db.lo.open(write_target) as obj:
            obj.seek(4096)  # past the preloaded frame: only appends
            tail = obj.read()
        assert len(tail) % len(payload) == 0
        assert set(tail[i:i + len(payload)]
                   for i in range(0, len(tail), len(payload))) == {payload}
        locks = db.statistics()["locks"]
        benchmark.extra_info.update(
            {k: locks[k] for k in ("waits", "wait_time",
                                   "deadlocks_detected", "victims")})
        assert db.locks.grant_table_empty()


@pytest.mark.perf
class TestForcePathSystemCalls:
    """What a commit asks of the kernel, counted rather than timed, so a
    refactor that brings back a ``stat`` per block fails CI anywhere."""

    PAGES = 32

    def test_commit_stats_nothing_and_writes_each_run_once(self, tmp_path,
                                                            monkeypatch):
        import os

        from repro.storage.constants import CHUNK_PAYLOAD, PAGE_SIZE
        database = Database(str(tmp_path / "db"), charge_cpu=False)
        txn = database.begin()
        designator = database.lo.create(txn, "fchunk")
        with database.lo.open(designator, txn, "rw") as obj:
            obj.write(b"\xa5" * (self.PAGES * CHUNK_PAYLOAD))
        stats, writes = [], []

        def counted(name):
            real = getattr(os, name)

            def wrapper(*args, **kwargs):
                stats.append(name)
                return real(*args, **kwargs)
            return wrapper

        real_pwritev = os.pwritev

        def pwritev(fd, buffers, offset, *flags):
            assert offset % PAGE_SIZE == 0
            start = offset // PAGE_SIZE
            writes.append((fd, start, start + len(buffers)))
            return real_pwritev(fd, buffers, offset, *flags)

        for name in ("stat", "lstat", "fstat"):
            monkeypatch.setattr(os, name, counted(name))
        monkeypatch.setattr(os, "pwritev", pwritev)
        txn.commit()
        monkeypatch.undo()
        database.close()

        assert len(stats) <= 2, stats
        assert sum(end - start for _fd, start, end in writes) >= self.PAGES
        # One system call per contiguous run: no call picks up where
        # another call on the same file left off (or overlaps it).
        writes.sort()
        for (fd, _start, end), (next_fd, next_start, _end) in zip(
                writes, writes[1:]):
            assert fd != next_fd or next_start > end, writes


class _Bytecodes:
    """``with _Bytecodes() as executed:`` — ``executed.count`` is the
    number of bytecodes this thread ran inside the block (the
    ``sys.settrace`` idiom of ``tests/test_force.py``).  The garbage
    collector is run before the block and kept off inside it, so no
    finalizer of an earlier test's garbage is counted.  With *within*,
    ``executed.within`` counts those run in functions of files whose
    path contains it."""

    def __init__(self, within=None):
        self.count = 0
        self._path, self.within = within, 0

    def _on_call(self, frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        if self._path and self._path in frame.f_code.co_filename:
            return self._on_event_within
        return self._on_event

    def _on_event(self, frame, event, arg):
        self.count += event == "opcode"
        return self._on_event

    def _on_event_within(self, frame, event, arg):
        opcode = event == "opcode"
        self.count += opcode
        self.within += opcode
        return self._on_event_within

    def __enter__(self):
        gc.collect()
        self._gc_was_enabled = gc.isenabled()
        gc.disable()
        self._previous = sys.gettrace()
        sys.settrace(self._on_call)
        return self

    def __exit__(self, exc_type, exc, tb):
        sys.settrace(self._previous)
        if self._gc_was_enabled:
            gc.enable()


@pytest.mark.perf
class TestOverwriteCommit:
    """A commit that only overwrote bytes inside an f-chunk object pays
    for what it wrote (docs/performance.md "Commit pays for what it
    wrote"): no ``pg_largeobject`` probe — the descriptor's size gate
    already proves the row covers the write — and one storage-manager
    call per forced file.  Counts, never time; the bytecode ceiling is
    for CPython 3.11 (CI's perf-smoke job)."""

    FRAME = 4000
    FRAMES = 50
    IMPL, COMPRESSION, ZEROS = "fchunk", "none", 0.0
    #: The chunk class and its index.
    FORCED_FILES = 2
    #: Bytecodes of the measured close + commit, plus 5 %: 4,372 on
    #: CPython 3.11.7 since a force seals and cleans its batch in C-level
    #: passes (4,596 while it sealed page by page; 4,902 while each
    #: device charge folded floats into the clock; 5,818 before descents
    #: started at the handle's root, 6,041 when this pin was set, and the
    #: engine before it ran 7,682 — the size-row probe and a manager call
    #: per dirty run).
    MAX_BYTECODES = 4_591

    def _frame(self, frame, generation=0):
        return frame_bytes(frame, self.ZEROS, frame_size=self.FRAME,
                           generation=generation)

    def _overwrite_two_frames(self, database, designator, generation):
        txn = database.begin()
        obj = database.lo.open(designator, txn, "rw")
        for frame in (7, 31):
            obj.seek(frame * self.FRAME)
            obj.write(self._frame(frame, generation))
        return txn, obj

    def test_no_size_probe_and_one_call_per_file(self, tmp_path,
                                                 monkeypatch):
        from collections import Counter

        from repro.lo import metadata

        database = Database(str(tmp_path / "db"), charge_cpu=False)
        with database.begin() as txn:
            designator = database.lo.create(txn, self.IMPL,
                                            compression=self.COMPRESSION)
            with database.lo.open(designator, txn, "rw") as obj:
                for frame in range(self.FRAMES):
                    obj.write(self._frame(frame))
        for generation in range(1, 4):       # warm: every page resident
            txn, obj = self._overwrite_two_frames(database, designator,
                                                  generation)
            obj.close()
            txn.commit()

        smgr = database.storage_manager("disk")
        probes, forced = Counter(), Counter()
        real_size_row, real_write_runs = metadata.size_row, smgr.write_runs

        def size_row(db, oid, snapshot):
            probes[oid] += 1
            return real_size_row(db, oid, snapshot)

        def write_runs(fileid, runs):
            forced[fileid] += 1
            return real_write_runs(fileid, runs)

        txn, obj = self._overwrite_two_frames(database, designator, 4)
        monkeypatch.setattr(metadata, "size_row", size_row)
        monkeypatch.setattr(smgr, "write_runs", write_runs)
        obj.close()
        txn.commit()
        monkeypatch.undo()
        assert not probes, probes
        assert len(forced) == self.FORCED_FILES, forced
        assert set(forced.values()) == {1}, forced

        txn, obj = self._overwrite_two_frames(database, designator, 5)
        with _Bytecodes() as executed:
            obj.close()
            txn.commit()
        with database.lo.open(designator) as fresh:
            fresh.seek(31 * self.FRAME)
            assert fresh.read(self.FRAME) == self._frame(31, 5)
        database.close()
        assert executed.count <= self.MAX_BYTECODES, executed.count


@pytest.mark.perf
class TestVSegmentOverwriteCommit(TestOverwriteCommit):
    """The same commit of a zero-rle v-segment object: the new segments
    go to the end of the byte store, which keeps no size row, and the
    object's own row already covers the overwrite — no
    ``pg_largeobject`` probe, and four forced files, each in one
    ``write_runs`` call."""

    IMPL, COMPRESSION, ZEROS = "vsegment", "zero-rle", 0.5
    #: The segment class and its index, the byte store and its index.
    FORCED_FILES = 4
    #: Bytecodes of the measured close + commit, plus 5 %: 5,618 on
    #: CPython 3.11.7 since a force seals and cleans its batch in C-level
    #: passes (5,728 while it sealed page by page; 6,389 before the clock
    #: counted; 13,293 while the byte store kept a size row: its probe
    #: and rewrite, and pg_largeobject's class and index forced as a
    #: fifth and sixth file).
    MAX_BYTECODES = 5_899


@pytest.mark.perf
class TestCommitCostIsFlatInHistory:
    """Every commit of a v-segment writer leaves one more dead version
    of its byte store's tail chunk (and, when it extends the object, of
    its ``pg_largeobject`` size row).  Opening the object and committing
    must not pay for them: counted in bytecodes, so the answer is the
    same on any host."""

    TRANSACTIONS = 300
    FRAMES = 200
    FRAME = 4000
    EARLY = range(6, 15)        # transaction numbers around 10 ...
    LATE = range(286, 295)      # ... and around 290

    def test_open_and_commit_do_not_pay_for_dead_size_rows(self, tmp_path):
        database = Database(str(tmp_path / "db"), charge_cpu=False)
        with database.begin() as txn:
            designator = database.lo.create(txn, "vsegment",
                                            compression="zero-rle")
            with database.lo.open(designator, txn, "rw") as obj:
                for number in range(self.FRAMES):
                    obj.write(frame_bytes(number, 0.5,
                                          frame_size=self.FRAME))
        rng = random.Random(1993)
        watched = {*self.EARLY, *self.LATE}
        opens, commits = {}, {}
        for number in range(self.TRANSACTIONS):
            txn = database.begin()
            with _Bytecodes() if number in watched else nullcontext() as run:
                obj = database.lo.open(designator, txn, "rw")
            if run is not None:
                opens[number] = run.count
            for _ in range(2):
                frame = rng.randrange(self.FRAMES)
                obj.seek(frame * self.FRAME)
                obj.write(frame_bytes(frame, 0.5, frame_size=self.FRAME,
                                      generation=number + 1))
            with _Bytecodes() if number in watched else nullcontext() as run:
                obj.close()
                txn.commit()
            if run is not None:
                commits[number] = run.count
        database.close()

        def growth(counts):
            early = median(counts[number] for number in self.EARLY)
            late = median(counts[number] for number in self.LATE)
            assert early > 0
            return late / early

        # lo_open reads the object's size row and nothing else that
        # ages (the store's end is the append cursor): flat.
        # (At the parent of the commit that added this test: 14 times.)
        assert growth(opens) <= 1.03, opens
        # A commit also places the byte store's new tail chunk, and
        # FreeSpaceMap.find walks that relation's pages when the tail
        # page is full: at C speed since the walk became one
        # min(compress(...)), about 5 % more by transaction 290 (it was
        # 1.30 with the Python loop; at the parent of the commit that
        # added this test, nearly 10 times).
        assert growth(commits) <= 1.10, commits


@pytest.mark.perf
class TestChunkRunCounts:
    """A write that wholly covers chunks reaches the chunk class as one
    run: one relation lock, one descent and one leaf splice for all of
    them (docs/performance.md "The chunk run").  Counts, never time."""

    CHUNK = 8000

    @staticmethod
    def _counting(monkeypatch, database):
        """Wrap the relation lock, the B-tree's meta read and its leaf
        store; returns the list the calls are appended to."""
        from repro.access.btree import BTree
        calls = []
        real_acquire = database.locks.acquire

        def acquire(xid, resource, mode, *args, **kwargs):
            if isinstance(resource, tuple) and resource[0] == "relation":
                calls.append(("lock", resource[1]))
            return real_acquire(xid, resource, mode, *args, **kwargs)

        def counted(name):
            real = getattr(BTree, name)

            def wrapper(tree, *args, **kwargs):
                calls.append((name, tree.name))
                return real(tree, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(database.locks, "acquire", acquire)
        for name in ("_read_meta", "_store_leaf"):
            monkeypatch.setattr(BTree, name, counted(name))
        return calls

    def test_a_64k_write_is_one_lock_one_descent_one_splice(
            self, db, monkeypatch):
        txn = db.begin()
        obj = db.lo.open(db.lo.create(txn, "fchunk"), txn, "rw")
        calls = self._counting(monkeypatch, db)
        obj.write(b"\xa5" * 65536)      # chunks 0-7 whole, 1,536 B of 8
        monkeypatch.undo()
        index = obj.index.name
        assert calls.count(("lock", obj.relation.name)) == 1, calls
        assert calls.count(("_read_meta", index)) == 1, calls
        assert 1 <= calls.count(("_store_leaf", index)) <= 2, calls
        assert {name for _call, name in calls} == {obj.relation.name,
                                                   index}, calls
        obj.close()
        txn.commit()
        assert db.check_integrity() == []

    def test_the_run_costs_at_most_0_6_of_eight_chunk_writes(self, db):
        data = bytes(range(256)) * 250           # 64,000 B: eight chunks
        counts = []
        for pieces in ([data], [data[at:at + self.CHUNK] for at in
                                range(0, len(data), self.CHUNK)]):
            txn = db.begin()
            obj = db.lo.open(db.lo.create(txn, "fchunk"), txn, "rw")
            with _Bytecodes() as executed:
                for piece in pieces:
                    obj.write(piece)
            counts.append(executed.count)
            obj.seek(0)
            assert obj.read() == data
            obj.close()
            txn.commit()
        as_a_run, one_by_one = counts
        assert as_a_run <= 0.6 * one_by_one, counts

    def test_truncate_to_zero_is_one_scan_and_one_lock(self, db,
                                                       monkeypatch):
        with db.begin() as txn:
            designator = db.lo.create(txn, "fchunk")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"\x5a" * (32 * self.CHUNK))
        txn = db.begin()
        obj = db.lo.open(designator, txn, "rw")
        calls = self._counting(monkeypatch, db)
        scans = db.access_stats.range_scans
        probes = db.access_stats.probes
        obj.truncate(0)
        monkeypatch.undo()
        assert db.access_stats.range_scans - scans == 1
        assert db.access_stats.probes - probes <= 1      # the size row
        assert calls.count(("lock", obj.relation.name)) == 1, calls
        obj.close()
        txn.commit()
        with db.lo.open(designator) as fresh:
            assert fresh.read() == b""
        assert db.check_integrity() == []

    def test_an_insert_does_not_pay_for_unrelated_indexes(self, db):
        """``Catalog.indexes_on`` used to scan every index in the
        catalog; ``inv_files`` keeps one per file ever created."""
        def one_insert(name):
            """The cheapest of five inserts into a fresh class with one
            index (one in 128 also reserves an oid batch)."""
            db.create_class(name, [("k", "int4")])
            db.create_index(f"{name}_k", name, "k")
            counts = []
            with db.begin() as txn:
                db.insert(txn, name, (0,))       # warm: pages, caches
                for key in range(1, 6):
                    with _Bytecodes() as executed:
                        db.insert(txn, name, (key,))
                    counts.append(executed.count)
            return min(counts)

        alone = one_insert("before")
        db.create_class("U", [("k", "int4")])
        for number in range(300):
            db.create_index(f"u_{number}", "U", "k")
        assert one_insert("after") == alone


@pytest.mark.perf
class TestFreshRunCounts:
    """A write of fresh chunks places its rows as one append
    (docs/performance.md "A fresh run is one append"): each row is
    encoded once and built on its own page, and the stretch of pages
    reaches the pool in one ``BufferManager.extend`` call, with no
    ``allocate``.  Counts, never time; the bytecode ceiling is for
    CPython 3.11 (CI's perf-smoke job)."""

    #: Bytecodes of the measured 64,000-byte write when this pin was set
    #: (9,303 on CPython 3.11.7; 12,689 while each row was placed alone
    #: through ``allocate``), plus 5 %.
    MAX_BYTECODES = 9_768

    def test_a_64000_byte_fresh_write_is_one_extend(self, db, monkeypatch):
        from repro.storage.buffer import BufferManager
        data = bytes(range(256)) * 250          # 64,000 B: eight chunks
        calls = []

        def counted(name):
            real = getattr(BufferManager, name)

            def wrapper(pool, smgr, fileid, *args, **kwargs):
                calls.append((name, fileid))
                return real(pool, smgr, fileid, *args, **kwargs)
            return wrapper

        txn = db.begin()
        obj = db.lo.open(db.lo.create(txn, "fchunk"), txn, "rw")
        for name in ("extend", "allocate"):
            monkeypatch.setattr(BufferManager, name, counted(name))
        obj.write(data)
        monkeypatch.undo()
        heap = obj.relation.fileid
        assert calls.count(("extend", heap)) == 1, calls
        assert ("allocate", heap) not in calls, calls
        obj.close()
        txn.commit()
        txn = db.begin()
        obj = db.lo.open(db.lo.create(txn, "fchunk"), txn, "rw")
        with _Bytecodes() as executed:
            obj.write(data)
        obj.seek(0)
        assert obj.read() == data
        obj.close()
        txn.commit()
        assert executed.count <= self.MAX_BYTECODES, executed.count
        assert db.check_integrity() == []


@pytest.mark.perf
class TestStreamedReadCounts:
    """A 64 KB read through a read-only descriptor pays per call, not per
    chunk (docs/performance.md "The streamed read"): the size row is read
    once per descriptor, the chunk run is one index range scan, each
    cold page is hashed once, and the prefetched run of cold pages is one
    store read (docs/performance.md "A missed run is one read").  Counts,
    never time; the bytecode ceiling is for CPython 3.11 (CI's perf-smoke
    job)."""

    FILE = 256 * 1024
    READ = 64 * 1024
    #: Bytecodes of the measured read, plus 5 %: 8,530 on CPython 3.11.7
    #: since descents start at the handle's root (8,758 when this pin was
    #: set; 9,964 while a run was charged block by block, and 13,845
    #: before the streamed read).
    MAX_BYTECODES = 8_957

    def test_a_cold_64k_read_is_one_scan_no_size_probe_one_hash_a_page(
            self, db, monkeypatch):
        import zlib

        data = bytes(range(256)) * (self.FILE // 256)
        with db.begin() as txn:
            designator = db.lo.create(txn, "fchunk")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(data)
        db.bufmgr.invalidate_all()
        stats, pool = db.access_stats, db.bufmgr.stats
        obj = db.lo.open(designator)
        probes = stats.probes
        assert obj.read(self.READ) == data[:self.READ]
        assert stats.probes - probes == 1            # the size row, once
        hashes = []
        real_crc32 = zlib.crc32

        def crc32(*args):
            hashes.append(args[0])
            return real_crc32(*args)

        runs, charges = [], []
        real_read_run = StorageNode.read_run
        real_charge_run = DevicePort.charge_run

        def read_run(node, fileid, first, count):
            runs.append(count)
            return real_read_run(node, fileid, first, count)

        def charge_run(port, *args):
            charges.append(args)
            return real_charge_run(port, *args)

        probes, scans = stats.probes, stats.range_scans
        misses, prefetched = pool.misses, pool.prefetched
        monkeypatch.setattr(zlib, "crc32", crc32)
        monkeypatch.setattr(StorageNode, "read_run", read_run)
        monkeypatch.setattr(DevicePort, "charge_run", charge_run)
        got = obj.read(self.READ)
        monkeypatch.undo()
        assert got == data[self.READ:2 * self.READ]
        assert stats.probes - probes == 0            # no size-row probe
        assert stats.range_scans - scans == 1
        cold = pool.misses - misses + pool.prefetched - prefetched
        assert cold >= 8 and len(hashes) == cold, (cold, len(hashes))
        # One store read and one device charge for the prefetched run,
        # one of each per demand miss.
        assert runs == [pool.prefetched - prefetched] + \
            [1] * (pool.misses - misses), runs
        assert len(charges) == len(runs), charges
        # The next 64 KB is the same shape: eight cold pages, one chunk
        # already in the descriptor's cache.
        with _Bytecodes() as executed:
            got = obj.read(self.READ)
        assert got == data[2 * self.READ:3 * self.READ]
        assert executed.count <= self.MAX_BYTECODES, executed.count
        obj.close()


def _rewritten_fchunk(db, size: int) -> tuple[int, bytes]:
    """An f-chunk object of *size* bytes written, then rewritten whole by
    a second transaction: every chunk has a dead index entry beside its
    live one, and the heap's deleter map names each dead version."""
    data = bytes(range(256)) * (size // 256)
    with db.begin() as txn:
        designator = db.lo.create(txn, "fchunk")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(data)
    with db.begin() as txn, db.lo.open(designator, txn, "rw") as obj:
        obj.write(data[::-1])
    return designator, data[::-1]


@pytest.mark.perf
class TestRewrittenWindowRead:
    """A 64 KB read of an f-chunk object rewritten once, on a cold pool,
    pays per batch, not per index entry (docs/performance.md): the scan
    hands the deleter filter two entries per chunk, the snapshot is asked
    once about their one deleter, and each readahead run is checksummed
    in one pass.  Counts, never time; the bytecode ceilings are for
    CPython 3.11 (CI's perf-smoke job)."""

    FILE = 256 * 1024
    READ = 64 * 1024
    #: Bytecodes of the measured read, plus 5 %: 6,419 on CPython 3.11.7
    #: (8,202 while the scan, the deleter map and the checksum walked
    #: entry by entry and page by page).
    MAX_BYTECODES = 6_740
    #: A resident one-chunk read of the same kind of object (the
    #: ``frames_f`` shape), plus 5 %: 2,159 on CPython 3.11.7 (2,391
    #: entry by entry) — a batch of one must not cost more than the walk.
    MAX_ONE_CHUNK_BYTECODES = 2_267

    def test_a_cold_64k_window_is_one_deleter_question_and_one_hash_pass(
            self, db, monkeypatch):
        from repro.access.heap import HeapRelation
        from repro.storage import buffer
        from repro.txn.snapshot import Snapshot

        designator, data = _rewritten_fchunk(db, self.FILE)
        db.bufmgr.invalidate_all()
        pool = db.bufmgr.stats
        obj = db.lo.open(designator)
        assert obj.read(self.READ) == data[:self.READ]
        asked, filtered, passes = [], [], []
        sees_deletion, known_dead = Snapshot.sees_deletion, \
            HeapRelation.known_dead
        intact_prefix = buffer.intact_prefix

        def asking(snapshot, xmax, clog):
            asked.append(xmax)
            return sees_deletion(snapshot, xmax, clog)

        def filtering(relation, entries, snapshot):
            filtered.append([key for key, _tid in entries])
            return known_dead(relation, entries, snapshot)

        def verifying(bufs):
            passes.append(len(bufs))
            return intact_prefix(bufs)

        scans, misses = db.access_stats.range_scans, pool.misses
        prefetched = pool.prefetched
        monkeypatch.setattr(Snapshot, "sees_deletion", asking)
        monkeypatch.setattr(HeapRelation, "known_dead", filtering)
        monkeypatch.setattr(buffer, "intact_prefix", verifying)
        got = obj.read(self.READ)
        monkeypatch.undo()
        assert got == data[self.READ:2 * self.READ]
        assert db.access_stats.range_scans - scans == 1
        (keys,) = filtered                          # one batch
        assert len(keys) == 2 * len(set(keys)) >= 16, keys
        assert len(asked) == 1, asked               # one deleter, once
        run = pool.prefetched - prefetched
        assert run >= 8 and passes == [run] + [1] * (pool.misses - misses), \
            passes
        with _Bytecodes() as executed:
            got = obj.read(self.READ)
        assert got == data[2 * self.READ:3 * self.READ]
        assert executed.count <= self.MAX_BYTECODES, executed.count
        obj.close()

    def test_a_resident_one_chunk_read_costs_no_more_than_the_walk(self, db):
        designator, data = _rewritten_fchunk(db, 1024 * 1024)
        rng = random.Random(7)
        offsets = [rng.randrange(len(data) - 4000) for _ in range(20)]
        with db.lo.open(designator) as obj:
            for offset in offsets:                  # all resident
                obj.pread(offset, 4000)
            misses = db.bufmgr.stats.misses
            offset = offsets[3]
            with _Bytecodes() as executed:
                got = obj.pread(offset, 4000)
        assert got == data[offset:offset + 4000]
        assert db.bufmgr.stats.misses == misses
        assert executed.count <= self.MAX_ONE_CHUNK_BYTECODES, executed.count


@pytest.mark.perf
class TestResidentPointReadPins:
    """A point read of a pool-resident object pins no index page: every
    descent starts at the root its B-tree handle keeps, and the nodes
    below come from the decoded-node cache (docs/performance.md "A
    descent starts at the handle's root").  Counts, never time; the
    bytecode ceilings are for CPython 3.11 (CI's perf-smoke job)."""

    FRAME = 4000
    #: Pins of one resident 4,000-byte read, all of heap pages.  Before
    #: the handle kept its root, each descent also pinned the index's
    #: page 0: f-chunk 2 pins (one descent), v-segment 13 (two).
    PINS = {"fchunk": 1, "vsegment": 11}
    #: Bytecodes of the measured read when this pin was set (1,443 and
    #: 8,059 on CPython 3.11.7, since a transaction's later statements
    #: reuse its snapshot and a stored version decodes in one struct
    #: call; 1,628 and 9,317 before that; 1,909 and 9,879 when every
    #: descent pinned page 0), plus 5 %.
    MAX_BYTECODES = {"fchunk": 1_515, "vsegment": 8_462}

    @pytest.mark.parametrize("impl", ["fchunk", "vsegment"])
    def test_a_resident_point_read_pins_no_index_page(self, db, impl,
                                                      monkeypatch):
        data = bytes(range(256)) * 4096                 # 1 MB
        with db.begin() as txn:
            designator = db.lo.create(txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(data)
        rng = random.Random(7)
        offsets = [rng.randrange(len(data) - self.FRAME) for _ in range(20)]
        with db.begin() as txn, db.lo.open(designator, txn) as obj:
            for offset in offsets:                      # all resident
                obj.pread(offset, self.FRAME)
            pins, pin = [], db.bufmgr.pin

            def recording(smgr, fileid, blockno):
                pins.append(fileid)
                return pin(smgr, fileid, blockno)

            monkeypatch.setattr(db.bufmgr, "pin", recording)
            misses = db.bufmgr.stats.misses
            offset = offsets[1]
            with _Bytecodes() as executed:
                got = obj.pread(offset, self.FRAME)
            monkeypatch.undo()
        assert got == data[offset:offset + self.FRAME]
        assert db.bufmgr.stats.misses == misses
        assert not [f for f in pins if f.startswith("btree_")], pins
        assert len(pins) == self.PINS[impl], pins
        assert executed.count <= self.MAX_BYTECODES[impl], executed.count


    @pytest.mark.parametrize("impl", ["fchunk", "vsegment"])
    def test_later_reads_of_a_transaction_build_no_snapshot(
            self, db, impl, monkeypatch):
        """A transaction's second and later resident point reads reuse
        the snapshot its first one took: no transaction ended between."""
        from repro.txn import manager
        data = bytes(range(256)) * 4096                 # 1 MB
        with db.begin() as txn:
            designator = db.lo.create(txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(data)
        rng = random.Random(7)
        offsets = [rng.randrange(len(data) - self.FRAME) for _ in range(20)]
        for offset in offsets:                          # make all resident
            db.lo.open(designator).pread(offset, self.FRAME)
        built, snapshot = [], manager.Snapshot

        def counting(**fields):
            built.append(fields)
            return snapshot(**fields)

        with db.begin() as txn, db.lo.open(designator, txn) as obj:
            obj.pread(offsets[0], self.FRAME)
            monkeypatch.setattr(manager, "Snapshot", counting)
            for offset in offsets[1:]:
                assert obj.pread(offset, self.FRAME) \
                    == data[offset:offset + self.FRAME]
            monkeypatch.undo()
        assert built == []


@pytest.mark.perf
class TestIndexEntryCost:
    """What an index range scan costs per entry it resolves: 512
    single-version chunk keys of a chunk-shaped class (``seqno``, a few
    bytes of ``data``), every page resident, so the count is the scan
    layer's and the heap's per-entry work and no I/O.  A leaf entry's
    value is already the heap TID, handed to ``fetch_many`` as it is."""

    KEYS = 512
    #: Bytecodes of one ``visible`` call when this pin was set (180,061
    #: on CPython 3.11.7; 186,251 when keys were 1-tuples and each entry
    #: was rebuilt into a TID), plus 5 %.
    MAX_BYTECODES = 189_064

    def test_a_range_scan_of_512_keys(self, db):
        from repro.access.scan import IndexRangeScan
        db.create_class("chunks", [("seqno", "int4"), ("data", "bytea")])
        db.create_index("chunks_seqno", "chunks", "seqno")
        with db.begin() as txn:
            db.insert_many(txn, "chunks",
                           [(seqno, bytes(16)) for seqno in range(self.KEYS)])
        scan = IndexRangeScan(db, db.get_index("chunks_seqno"),
                              db.get_class("chunks"), 0, self.KEYS - 1,
                              unique=True)
        snapshot = db.snapshot()
        scan.visible(snapshot)                  # warm the node cache
        misses = db.bufmgr.stats.misses
        with _Bytecodes() as executed:
            found = scan.visible(snapshot)
        assert [key for key, _tup in found] == list(range(self.KEYS))
        assert db.bufmgr.stats.misses == misses
        assert executed.count <= self.MAX_BYTECODES, executed.count


@pytest.mark.perf
class TestDemandMissPins:
    """A cold point read misses the pool page by page: each page it needs
    is one ``read_block`` — a run of one through the storage manager's
    one contract check, one store read and one device charge that only
    bumps counters — and nothing is prefetched.  Counts, never time; the
    bytecode ceilings are for CPython 3.11 (CI's perf-smoke job)."""

    FRAME = 4000
    #: The measured read, then one of the same shape whose calls are
    #: counted (the descriptor keeps the chunk the first one read).
    OFFSETS = (123_456, 400_000)
    #: Pool misses of the read: the B-tree's page 0 and leaf (the pool
    #: was emptied, roots included) and the chunk's heap page.
    MISSES = 3
    #: Bytecodes of the measured read, plus 5 %: 3,387 on CPython 3.11.7
    #: since the clock counts (3,680 before; 6,335 when this pin was set,
    #: 6,365 while each manager applied the contract itself and walked a
    #: node list for the file's length).
    MAX_BYTECODES = 3_556
    #: Of those, the ones run in ``repro/sim`` — the three misses' device
    #: accounting — plus 5 %: 146 on CPython 3.11.7 (451 while each
    #: charge folded its seek and transfer into the clock's floats).
    MAX_DEVICE_BYTECODES = 153

    def test_a_cold_point_read_is_one_demand_read_per_page(self, tmp_path,
                                                           monkeypatch):
        database = Database(str(tmp_path / "db"), charge_cpu=False)
        data = bytes(range(256)) * 4096                 # 1 MB
        with database.begin() as txn:
            designator = database.lo.create(txn, "fchunk")
            with database.lo.open(designator, txn, "rw") as obj:
                obj.write(data)
        obj = database.lo.open(designator)
        obj.pread(0, self.FRAME)                  # the size row, once
        pool, smgr = database.bufmgr, database.storage_manager("disk")
        database.bufmgr.invalidate_all()
        measured, counted = self.OFFSETS
        with _Bytecodes(within=os.path.join("repro", "sim", "")) as executed:
            got = obj.pread(measured, self.FRAME)
        assert got == data[measured:measured + self.FRAME]

        database.bufmgr.invalidate_all()
        demand, runs, charges = [], [], []
        real_read_block, real_read_run = smgr.read_block, StorageNode.read_run
        real_charge_run = DevicePort.charge_run

        def read_block(fileid, blockno):
            demand.append(fileid)
            return real_read_block(fileid, blockno)

        def read_run(node, fileid, first, count):
            runs.append(count)
            return real_read_run(node, fileid, first, count)

        def charge_run(port, *args):
            charges.append(args)
            return real_charge_run(port, *args)

        misses, prefetched = pool.stats.misses, pool.stats.prefetched
        monkeypatch.setattr(smgr, "read_block", read_block)
        monkeypatch.setattr(StorageNode, "read_run", read_run)
        monkeypatch.setattr(DevicePort, "charge_run", charge_run)
        got = obj.pread(counted, self.FRAME)
        monkeypatch.undo()
        assert got == data[counted:counted + self.FRAME]
        assert pool.stats.misses - misses == self.MISSES
        assert pool.stats.prefetched == prefetched
        assert len(demand) == self.MISSES, demand
        assert runs == [1] * self.MISSES, runs
        assert len(charges) == self.MISSES, charges
        obj.close()
        database.close()
        assert executed.count <= self.MAX_BYTECODES, executed.count
        assert executed.within <= self.MAX_DEVICE_BYTECODES, executed.within


@pytest.mark.perf
class TestPoolPassCounts:
    """The pool does each page's work once, and a force none of it in
    the interpreter: forcing a file gathers, seals and cleans its dirty
    pages in C-level passes and hands a contiguous batch over as one run,
    and the clock sweep visits the ring's frames themselves, no key
    looked up per visit.  Counts, never time; the bytecode ceilings are
    for CPython 3.11 (CI's perf-smoke job)."""

    PAGES = 64
    #: Bytecodes of forcing 64 dirty pages, one run the device holds,
    #: plus 5 %: 576 on CPython 3.11.7 since a batch is sealed and
    #: cleaned in C-level passes (4,499 while each page was sealed in
    #: the force's loop; 5,151 before the clock counted; 5,223 when this
    #: pin was set, 6,844 with a run pre-pass and a page-by-page
    #: flattening of the one-device group).
    MAX_FORCE_BYTECODES = 605
    #: Most bytecodes a one-run force of 64 pages may run beyond one of a
    #: single page: none on CPython 3.11.7, where every per-page step is
    #: a C-level pass (62 a page while the force sealed page by page).
    MAX_FORCE_GROWTH_BYTECODES = 36
    #: Bytecodes of the pin whose miss evicts one frame from a full
    #: 64-frame pool whose frames have usage 2 — a sweep of 129 visits —
    #: when this pin was set (2,941 on CPython 3.11.7; 5,880 when each
    #: visit looked its key up in the frame table), plus 5 %.
    MAX_SWEEP_BYTECODES = 3_089
    #: Bytecodes of forcing a 32-page file of a 4-node, R = 3 sharded
    #: manager, up to the manager's ``write_runs``, plus 5 %: 335 on
    #: CPython 3.11.7 since a batch is sealed in C-level passes (2,505
    #: while each page was sealed in the force's loop; 6,778 when a force
    #: grouped its blocks by primary node).
    MAX_SHARDED_FORCE_BYTECODES = 352

    def _device_file(self, smgr, fileid, pages=PAGES):
        from repro.storage.page import SlottedPage
        smgr.create(fileid)
        smgr.write_runs(fileid, [(0, [bytes(SlottedPage().buf)] * pages)])

    def test_forcing_64_dirty_pages_is_one_pass(self):
        from repro.sim import SimClock
        from repro.smgr import MemoryStorageManager
        from repro.storage import BufferManager
        smgr = MemoryStorageManager(SimClock())
        self._device_file(smgr, "t")
        pool = BufferManager(pool_size=2 * self.PAGES)
        for blockno in range(self.PAGES):
            pool.unpin(pool.pin(smgr, "t", blockno), dirty=True)
        runs, write_runs = [], smgr.write_runs

        def recording(fileid, batch):
            runs.extend(first for first, _images in batch)
            return write_runs(fileid, batch)

        smgr.write_runs = recording
        with _Bytecodes() as executed:
            written = pool.flush_file(smgr, "t")
        assert written == self.PAGES and runs == [0]
        assert executed.count <= self.MAX_FORCE_BYTECODES, executed.count

    def test_a_one_run_force_costs_the_same_at_1_and_64_pages(self):
        from repro.sim import SimClock
        from repro.smgr import MemoryStorageManager
        from repro.storage import BufferManager
        counts = []
        for pages in (1, self.PAGES):
            smgr = MemoryStorageManager(SimClock())
            self._device_file(smgr, "t", pages)
            pool = BufferManager(pool_size=2 * self.PAGES)
            for blockno in range(pages):
                pool.unpin(pool.pin(smgr, "t", blockno), dirty=True)
            with _Bytecodes() as executed:
                written = pool.flush_file(smgr, "t")
            assert written == pages
            counts.append(executed.count)
        assert counts[1] - counts[0] <= self.MAX_FORCE_GROWTH_BYTECODES, \
            counts

    def test_forcing_a_32_page_sharded_file_is_one_ascending_run(self):
        from repro.sim import SimClock
        from repro.smgr.sharded import sharded_memory_manager
        from repro.storage import BufferManager
        smgr = sharded_memory_manager(SimClock())
        self._device_file(smgr, "t", 32)
        pool = BufferManager(pool_size=64)
        for blockno in range(32):
            pool.unpin(pool.pin(smgr, "t", blockno), dirty=True)
        batches = []
        smgr.write_runs = lambda fileid, batch: batches.append(batch)
        with _Bytecodes() as executed:
            written = pool.flush_file(smgr, "t")
        assert written == 32
        assert [[(first, len(images)) for first, images in batch]
                for batch in batches] == [[(0, 32)]]
        assert executed.count <= self.MAX_SHARDED_FORCE_BYTECODES, \
            executed.count

    def test_one_eviction_from_a_full_pool_at_usage_2(self):
        from repro.sim import SimClock
        from repro.smgr import MemoryStorageManager
        from repro.storage import BufferManager
        smgr = MemoryStorageManager(SimClock())
        self._device_file(smgr, "t")
        self._device_file(smgr, "u")
        pool = BufferManager(pool_size=self.PAGES)
        for _usage in range(2):
            for blockno in range(self.PAGES):
                pool.unpin(pool.pin(smgr, "t", blockno))
        evictions = pool.stats.evictions
        with _Bytecodes() as executed:
            buf = pool.pin(smgr, "u", 0)
        pool.unpin(buf)
        assert pool.stats.evictions == evictions + 1
        assert (smgr.smgr_id, "t", 0) not in pool._frames
        assert executed.count <= self.MAX_SWEEP_BYTECODES, executed.count


@pytest.mark.perf
class TestSegmentLookupIsFlatInDensity:
    """The v-segment overlap query is a floor probe: a read fetches the
    segment record it returns, however many segments share its 64 KB —
    2, 16 or 65 here.  Counted, so the answer is the same on any host.
    All-zero frames under zero-rle make every stored image the same six
    bytes, so the byte-store fetch beneath the lookup cannot differ and
    what is compared is the lookup."""

    WRITES = 400
    READ = 1000

    def cost_of_a_frame_read(self, write_size):
        database = Database(charge_cpu=False)
        try:
            with database.begin() as txn:
                designator = database.lo.create(txn, "vsegment",
                                                compression="zero-rle")
                with database.lo.open(designator, txn, "rw") as obj:
                    for _ in range(self.WRITES):
                        obj.write(bytes(write_size))
            rng = random.Random(20)
            offsets = [rng.randrange(self.WRITES) * write_size
                       for _ in range(40)]
            stats = database.access_stats
            with database.begin() as txn, \
                    database.lo.open(designator, txn) as obj:
                for offset in offsets:          # warm the node cache
                    obj.pread(offset, self.READ)
                scanned = stats.tuples_scanned
                with _Bytecodes() as run:
                    for offset in offsets:
                        assert obj.pread(offset, self.READ) == bytes(
                            self.READ)
                scanned = stats.tuples_scanned - scanned
            return run.count / len(offsets), scanned / len(offsets)
        finally:
            database.close()

    def test_read_cost_does_not_depend_on_segments_per_64k(self):
        costs = {size: self.cost_of_a_frame_read(size)
                 for size in (1_000, 4_000, 32_000)}
        bytecodes, scanned = zip(*costs.values())
        # (At the parent of the commit that added this test: 62, 18 and
        # 4 records fetched per read; 51,800, 17,100 and 6,200 bytecodes.)
        assert max(scanned) == min(scanned) <= 3, costs
        assert max(bytecodes) <= 1.02 * min(bytecodes), costs


@pytest.mark.perf
class TestWireRoundTrips:
    """The wire is positioned and the cursor is the client's: seek, then
    read is one frame out and one frame back — counted, not timed."""

    FRAMES = 100
    FRAME = 4000

    def test_seek_plus_read_is_one_frame_each_way(self, db, monkeypatch):
        from repro.server import ReproServer, ServerClient, protocol
        with ReproServer(db) as server, \
                ServerClient(*server.address) as client:
            client.begin()
            fd = client.lo_open(client.lo_create("fchunk"), "rw")
            client.lo_write(fd, bytes(self.FRAMES * self.FRAME))
            frames = {"send_message": 0, "recv_message": 0}

            def counted(name):
                real = getattr(protocol, name)

                def wrapper(sock, *args):
                    if sock is client._sock:   # not the server's end
                        frames[name] += 1
                    return real(sock, *args)
                return wrapper

            for name in frames:
                monkeypatch.setattr(protocol, name, counted(name))
            before = client.round_trips
            for number in reversed(range(self.FRAMES)):
                client.lo_seek(fd, number * self.FRAME)
                assert len(client.lo_read(fd, self.FRAME)) == self.FRAME
            monkeypatch.undo()
            assert client.round_trips - before == self.FRAMES
            client.rollback()
        assert frames == {"send_message": self.FRAMES,
                          "recv_message": self.FRAMES}

    def test_a_lo_pread_header_is_a_few_dozen_bytes(self, db, monkeypatch):
        """The header lengths the frame prefixes carry, as received: the
        request by the server thread, the reply by the client."""
        from repro.server import ReproServer, ServerClient, protocol
        main = threading.get_ident()
        lengths = {True: [], False: []}    # read by the client? → lengths
        real = protocol.recv_exact

        def recording(sock, nbytes):
            data = real(sock, nbytes)
            if nbytes == 8:                # a frame prefix
                lengths[threading.get_ident() == main].append(
                    int.from_bytes(data[:4], "big"))
            return data

        # Installed before the server thread first waits for a frame.
        monkeypatch.setattr(protocol, "recv_exact", recording)
        with ReproServer(db) as server, \
                ServerClient(*server.address) as client:
            client.begin()
            fd = client.lo_open(client.lo_create("fchunk"), "rw")
            client.lo_write(fd, bytes(self.FRAME))
            assert len(client.lo_pread(fd, 0, self.FRAME)) == self.FRAME
            request, reply = lengths[False][-1], lengths[True][-1]
            client.rollback()
        # Request: key mask 4 + fd, offset, nbytes 3 x 8 + "lo_pread" 4 + 8.
        # Reply: key mask 4 + ok 1.  (As JSON: 50 and 11 bytes.)
        assert (request, reply) == (40, 5)

    def test_a_lo_pread_round_trip_in_bytecodes(self, db):
        """The client's call plus one turn of the server thread's loop,
        from one wait for a frame prefix to the next: 1,031 on CPython
        3.11.7, against 1,325 with the JSON headers the binary ones
        replaced."""
        from repro.server import ReproServer, ServerClient, protocol
        main = threading.get_ident()
        counts = {main: 0}
        server_marks = []      # the server's count at each prefix wait

        def on_call(frame, event, arg):
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
            thread = threading.get_ident()
            if (thread != main and frame.f_code is protocol.recv_exact.__code__
                    and frame.f_locals["nbytes"] == 8):
                server_marks.append(counts.get(thread, 0))
            return on_event

        def on_event(frame, event, arg):
            if event == "opcode":
                thread = threading.get_ident()
                counts[thread] = counts.get(thread, 0) + 1
            return on_event

        def server_waits():
            """Until the server waits for the next frame: one mark at
            its start and one after each request served."""
            deadline = time.monotonic() + 10.0
            while (len(server_marks) <= client.round_trips
                   and time.monotonic() < deadline):
                time.sleep(0.001)

        def round_trip():
            server_waits()
            client_before = counts[main]
            sys.settrace(on_call)
            assert len(client.lo_pread(fd, 0, self.FRAME)) == self.FRAME
            sys.settrace(None)
            server_waits()
            return (counts[main] - client_before
                    + server_marks[-1] - server_marks[-2])

        with ReproServer(db) as server:
            threading.settrace(on_call)  # for the connection thread ...
            try:
                client = ServerClient(*server.address)
                client.ping()            # ... which has started once served
            finally:
                threading.settrace(None)
            with client:
                client.begin()
                fd = client.lo_open(client.lo_create("fchunk"), "rw")
                client.lo_write(fd, bytes(self.FRAME))
                round_trip()                   # warm the caches
                costs = [round_trip() for _ in range(3)]
                client.rollback()
        assert len(set(costs)) == 1, costs
        assert costs[0] <= 1_050, costs


class TestInversionMicro:
    def test_path_resolution(self, benchmark, db):
        fs = db.inversion
        with db.begin() as txn:
            fs.mkdir(txn, "/a")
            fs.mkdir(txn, "/a/b")
            fs.mkdir(txn, "/a/b/c")
            fs.write_file(txn, "/a/b/c/leaf", b"x")
        info = benchmark(fs.stat, "/a/b/c/leaf")
        assert info["size"] == 1


@pytest.mark.perf
class TestInversionMetadataCounts:
    """Inversion does each metadata step once: a path operation reads
    each directory it names once, and a truncate stamps its chunks
    without decoding them.  Counts, never time; the bytecode ceilings are
    for CPython 3.11 (CI's perf-smoke job)."""

    #: Bytecodes of a cross-directory rename in a 40-file tree with
    #: history when this pin was set (20,550 on CPython 3.11.7; 50,515
    #: when every slot look re-read each directory and the operation
    #: probed the source and destination slots again), plus 5 %.
    MAX_RENAME_BYTECODES = 21_578
    #: Bytecodes of truncate(0) of a committed 256 KB Inversion file when
    #: this pin was set (21,912 on CPython 3.11.7; 33,901 when it decoded
    #: all 32 chunk versions and pinned each page again to stamp it),
    #: plus 5 %.
    MAX_TRUNCATE_BYTECODES = 23_008

    @staticmethod
    def _tree(db):
        """Eight directories, 40 files, and history: every directory has
        seen renames in and out and an unlink."""
        fs = db.inversion
        with db.begin() as txn:
            for index in range(8):
                fs.mkdir(txn, f"/d{index}")
            for index in range(40):
                fs.write_file(txn, f"/d{index % 8}/f{index:02d}", b"x")
        for index in range(16):
            with db.begin() as txn:
                fs.rename(txn, f"/d{index % 8}/f{index:02d}",
                          f"/d{(index + 3) % 8}/r{index:02d}")
            with db.begin() as txn:
                fs.unlink(txn, f"/d{index % 8}/f{index + 16:02d}")
        return fs

    def test_cross_directory_rename_in_a_tree_with_history(self, db):
        fs = self._tree(db)
        txn = db.begin()
        with _Bytecodes() as executed:
            fs.rename(txn, "/d1/f33", "/d6/moved")
        txn.commit()
        assert fs.read_file("/d6/moved") == b"x"
        assert not fs.exists("/d1/f33")
        assert executed.count <= self.MAX_RENAME_BYTECODES, executed.count

    def test_truncate_of_a_256k_file(self, db):
        fs = db.inversion
        with db.begin() as txn:
            fs.write_file(txn, "/f", bytes(range(256)) * 1024)
        txn = db.begin()
        handle = fs.open("/f", txn, "rw")
        with _Bytecodes() as executed:
            handle.truncate(0)
        handle.close()
        txn.commit()
        assert fs.read_file("/f") == b""
        assert executed.count <= self.MAX_TRUNCATE_BYTECODES, executed.count


@pytest.mark.perf
class TestLockPathCounts:
    """A lock nobody contends costs only its own bookkeeping: a range
    acquire decides covered, conflicting and extending in one walk of
    its object's granted ranges, and ``release_all`` walks only the
    releaser's own grants, however many other transactions hold locks.
    Lock-manager calls only, no threads, the order validator disarmed.
    Counts, never time; the ceilings are for CPython 3.11 (CI's
    perf-smoke job)."""

    #: Bytecodes of building one range and acquiring it EXCLUSIVE while
    #: the transaction holds two other ranges of the object, when this pin
    #: was set (280 on CPython 3.11.7; 764 with a dataclass
    #: resource and three walks of the group), plus 5 %.
    MAX_RANGE_ACQUIRE_BYTECODES = 294
    #: Bytecodes of ``release_all`` of a transaction's three locks when
    #: this pin was set (160 on CPython 3.11.7 beside 200 or 2,000
    #: other holders; 3,204 and 28,404 when a release walked the
    #: whole grant table), plus 5 %.
    MAX_RELEASE_BYTECODES = 168

    @pytest.fixture(autouse=True)
    def _disarmed(self, monkeypatch):
        from repro.txn import lockdep
        monkeypatch.setattr(lockdep.VALIDATOR, "armed", False)

    def test_an_uncontended_range_acquire_beside_two_own_ranges(self):
        from repro.txn.locks import LockManager, LockMode
        from repro.txn.rangelock import lo_range
        locks = LockManager()
        locks.acquire(7, lo_range(1, 0, 8192), LockMode.EXCLUSIVE)
        locks.acquire(7, lo_range(1, 16384, 24576), LockMode.EXCLUSIVE)
        with _Bytecodes() as executed:
            locks.acquire(7, lo_range(1, 32768, 40960), LockMode.EXCLUSIVE)
        assert locks.holds(7, lo_range(1, 32768, 40960), LockMode.EXCLUSIVE)
        assert locks.stats.waits == 0
        assert executed.count <= self.MAX_RANGE_ACQUIRE_BYTECODES, \
            executed.count

    @staticmethod
    def _release_beside(others: int) -> int:
        from repro.txn.locks import LockManager, LockMode
        from repro.txn.rangelock import lo_range
        locks = LockManager()
        for xid in range(100, 100 + others):
            locks.acquire(xid, ("relation", f"r{xid}"), LockMode.SHARED)
        locks.acquire(7, ("relation", "t"), LockMode.SHARED)
        locks.acquire(7, ("losize", 1), LockMode.EXCLUSIVE)
        locks.acquire(7, lo_range(1, 0, 8192), LockMode.EXCLUSIVE)
        with _Bytecodes() as executed:
            released = locks.release_all(7)
        assert released == 3
        assert len(locks.holders(("relation", "r100"))) == 1
        return executed.count

    def test_release_all_costs_the_same_beside_200_or_2000_holders(self):
        beside_200 = self._release_beside(200)
        assert self._release_beside(2000) == beside_200
        assert beside_200 <= self.MAX_RELEASE_BYTECODES, beside_200


class TestQueryMicro:
    def test_retrieve_with_qual(self, benchmark, db):
        db.execute("create EMP (name = text, age = int4)")
        with db.begin() as txn:
            for i in range(200):
                db.insert(txn, "EMP", (f"e{i}", i % 60))
        result = benchmark(db.execute,
                           'retrieve (EMP.name) where EMP.age = 30')
        assert result.count > 0
