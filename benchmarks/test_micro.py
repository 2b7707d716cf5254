"""Micro-benchmarks of the substrate layers (wall-clock, pytest-benchmark).

These complement the figure benches: the figures report *simulated* device
seconds; these report real Python-execution time of the hot paths so
regressions in the implementation itself are visible.
"""

import random
import sys
from contextlib import nullcontext
from statistics import median

import pytest

from repro.bench.datasets import frame_bytes
from repro.db import Database


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
        from repro.storage.page import SlottedPage
        page = SlottedPage()
        page.add_item(b"payload" * 500)
        benchmark(page.compute_checksum)


class TestBTreeMicro:
    def test_btree_insert_1000(self, benchmark, db):
        counter = iter(range(10**9))

        def work():
            run = next(counter)
            index = db.create_index if False else None  # noqa: F841
            from repro.access.btree import BTree
            tree = BTree(f"micro{run}", db.storage_manager("memory"),
                         db.bufmgr, key_arity=1)
            tree.create_storage()
            for i in range(1000):
                tree.insert((i,), (i, 0))
            return tree

        tree = benchmark.pedantic(work, rounds=3, iterations=1)
        assert tree.entry_count() == 1000

    def test_btree_search(self, benchmark, db):
        from repro.access.btree import BTree
        tree = BTree("searchme", db.storage_manager("memory"),
                     db.bufmgr, key_arity=1)
        tree.create_storage()
        for i in range(5000):
            tree.insert((i,), (i, 0))
        result = benchmark(tree.search, (2500,))
        assert result == [(2500, 0)]


@pytest.mark.perf
class TestTupleCodecMicro:
    """Batch schema codecs (``encode_many``/``decode_many``): the per-row
    cost under every scan and heap insert."""

    @pytest.mark.parametrize("direction", ["encode", "decode"])
    def test_tuple_codec_batch(self, benchmark, direction):
        from repro.access.schema import Attribute, Schema
        schema = Schema([
            Attribute("id", "int4"), Attribute("oid", "oid"),
            Attribute("weight", "float8"), Attribute("live", "bool"),
            Attribute("label", "text"), Attribute("payload", "bytea"),
        ])
        rows = [(i, i * 7, i * 0.5, i % 2 == 0,
                 None if i % 17 == 0 else f"row-{i}",
                 bytes((i + j) & 0xFF for j in range(120)))
                for i in range(512)]
        images = schema.encode_many(rows)
        if direction == "encode":
            assert benchmark(schema.encode_many, rows) == images
        else:
            assert benchmark(schema.decode_many, images) == rows


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

        assert len(benchmark(work)) == 16384
        reader.close()
        caches = db.statistics()["largeobjects"]
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

        assert len(benchmark(work)) == 16384
        reader.close()
        caches = db.statistics()["largeobjects"]
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
        assert locks["timeouts"] == 0
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
    ``sys.settrace`` idiom of ``tests/test_force.py``)."""

    def __init__(self):
        self.count = 0

    def _on_call(self, frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return self._on_event

    def _on_event(self, frame, event, arg):
        self.count += event == "opcode"
        return self._on_event

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._on_call)
        return self

    def __exit__(self, exc_type, exc, tb):
        sys.settrace(self._previous)


@pytest.mark.perf
class TestCommitCostIsFlatInHistory:
    """Every commit of a v-segment writer leaves one more dead version
    of two ``pg_largeobject`` size rows.  Opening the object and
    committing must not pay for them: counted in bytecodes, so the
    answer is the same on any host."""

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

        # lo_open reads the size rows and nothing else that ages: flat.
        # (At the parent of the commit that added this test: 14 times.)
        assert growth(opens) <= 1.03, opens
        # A commit also places the byte store's new tail chunk, and
        # FreeSpaceMap.find walks that relation's pages when the tail
        # page is full — about a fifth more by transaction 290, and not
        # the version run's doing.  (At the parent: nearly 10 times.)
        assert growth(commits) <= 1.5, commits


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


class TestQueryMicro:
    def test_retrieve_with_qual(self, benchmark, db):
        db.execute("create EMP (name = text, age = int4)")
        with db.begin() as txn:
            for i in range(200):
                db.insert(txn, "EMP", (f"e{i}", i % 60))
        result = benchmark(db.execute,
                           'retrieve (EMP.name) where EMP.age = 30')
        assert result.count > 0
