"""The streaming read path: batched range scans, caches, prefetch.

Covers the read-side machinery end to end: f-chunk reads that span chunk
boundaries and sparse holes, historical (``as_of``) opens through the
batched visibility fetch, decoded-node-cache coherence across replace and
vacuum, and the headline property — a sequential large-object read costs
O(chunks / leaf-fanout) B-tree node decodes, not one descent per chunk.
"""

import random

import pytest

from repro.db import Database
from repro.lo.manager import designator_oid
from repro.storage.constants import CHUNK_PAYLOAD


@pytest.fixture
def db():
    database = Database()
    yield database
    database.close()


def make_fchunk(db, data=b""):
    with db.begin() as txn:
        designator = db.lo.create(txn, "fchunk")
        if data:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(data)
    return designator


class TestBoundarySpanningReads:
    def test_read_across_one_chunk_boundary(self, db):
        data = bytes(range(256)) * 70  # > 2 chunks
        designator = make_fchunk(db, data)
        with db.lo.open(designator) as obj:
            obj.seek(CHUNK_PAYLOAD - 100)
            assert obj.read(200) == data[CHUNK_PAYLOAD - 100:
                                         CHUNK_PAYLOAD + 100]

    def test_read_spanning_many_chunks(self, db):
        data = b"\xab" * (CHUNK_PAYLOAD * 5 + 123)
        designator = make_fchunk(db, data)
        with db.lo.open(designator) as obj:
            obj.seek(37)
            assert obj.read(CHUNK_PAYLOAD * 4) == data[37:37 + CHUNK_PAYLOAD * 4]

    def test_unaligned_stream_reassembles_exactly(self, db):
        data = bytes(i % 251 for i in range(CHUNK_PAYLOAD * 3 + 17))
        designator = make_fchunk(db, data)
        with db.lo.open(designator) as obj:
            got = b""
            while True:
                piece = obj.read(977)  # prime-sized, never chunk-aligned
                if not piece:
                    break
                got += piece
        assert got == data

    def test_batched_read_mixes_buffered_and_stored_chunks(self, db):
        """A read window partly in the write buffer, partly on disk."""
        designator = make_fchunk(db, b"x" * (CHUNK_PAYLOAD * 2))
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.seek(CHUNK_PAYLOAD)
                obj.write(b"y" * 10)
                obj.seek(0)
                got = obj.read(CHUNK_PAYLOAD + 20)
        assert got == b"x" * CHUNK_PAYLOAD + b"y" * 10 + b"x" * 10


class TestSparseHoles:
    def test_hole_reads_as_zeros(self, db):
        designator = make_fchunk(db)
        hole_end = CHUNK_PAYLOAD * 4
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"head")
                obj.seek(hole_end)
                obj.write(b"tail")
        with db.lo.open(designator) as obj:
            data = obj.read()
        assert data[:4] == b"head"
        assert data[4:hole_end] == bytes(hole_end - 4)
        assert data[hole_end:] == b"tail"

    def test_read_entirely_inside_hole(self, db):
        designator = make_fchunk(db)
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.seek(CHUNK_PAYLOAD * 6)
                obj.write(b"end")
        with db.lo.open(designator) as obj:
            obj.seek(CHUNK_PAYLOAD * 2 + 5)
            assert obj.read(CHUNK_PAYLOAD) == bytes(CHUNK_PAYLOAD)


class TestHistoricalReads:
    def test_as_of_sees_old_chunks_via_batched_fetch(self, db):
        data_v1 = b"a" * (CHUNK_PAYLOAD * 3)
        designator = make_fchunk(db, data_v1)
        t1 = db.clock.now()
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.seek(CHUNK_PAYLOAD)  # rewrite the middle chunk only
                obj.write(b"b" * CHUNK_PAYLOAD)
        with db.lo.open(designator, as_of=t1) as obj:
            assert obj.read() == data_v1
        with db.lo.open(designator) as obj:
            current = obj.read()
        assert current[CHUNK_PAYLOAD:CHUNK_PAYLOAD * 2] == b"b" * CHUNK_PAYLOAD

    def test_as_of_streaming_read_is_consistent(self, db):
        designator = make_fchunk(db, bytes(3) * CHUNK_PAYLOAD)
        stamps = []
        for generation in range(1, 4):
            with db.begin() as txn:
                with db.lo.open(designator, txn, "rw") as obj:
                    obj.write(bytes([generation]) * (CHUNK_PAYLOAD * 3))
            stamps.append((generation, db.clock.now()))
        for generation, stamp in stamps:
            with db.lo.open(designator, as_of=stamp) as obj:
                got = b""
                while True:
                    piece = obj.read(4096)
                    if not piece:
                        break
                    got += piece
            assert got == bytes([generation]) * (CHUNK_PAYLOAD * 3)


class TestNodeCacheCoherence:
    """The decoded-node cache must track every index write path."""

    def _indexed_class(self, db, rows=400):
        db.execute("create NUM (n = int4)")
        db.execute("define index NUMIDX on NUM (n)")
        with db.begin() as txn:
            for i in range(rows):
                db.insert(txn, "NUM", (i,))
        return rows

    def test_cache_coherent_after_replace(self, db):
        self._indexed_class(db)
        # Warm the decoded cache with a range scan.
        assert db.execute(
            "retrieve (NUM.n) where NUM.n >= 0").count == 400
        with db.begin() as txn:
            tup = next(t for t in db.scan("NUM", txn)
                       if t.values[0] == 100)
            db.replace(txn, "NUM", tup.tid, (100_000,))
        result = db.execute("retrieve (NUM.n) where NUM.n >= 99999")
        assert result.rows == [(100_000,)]

    def test_cache_coherent_after_vacuum(self, db):
        self._indexed_class(db)
        with db.begin() as txn:
            for tup in list(db.scan("NUM", txn)):
                if tup.values[0] < 200:
                    db.delete(txn, "NUM", tup.tid)
        assert db.execute("retrieve (NUM.n) where NUM.n >= 0").count == 200
        db.vacuum()  # prunes index entries → B-tree deletes → node writes
        result = db.execute("retrieve (NUM.n) where NUM.n <= 250")
        assert sorted(r[0] for r in result.rows) == list(range(200, 251))

    def test_lo_read_correct_after_vacuum(self, db):
        designator = make_fchunk(db, b"v1" * CHUNK_PAYLOAD)
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"v2" * CHUNK_PAYLOAD)
        db.vacuum(horizon=db.clock.now())
        with db.lo.open(designator) as obj:
            assert obj.read(8) == b"v2v2v2v2"


class TestSequentialScaling:
    """Acceptance: an 8 MB sequential read does O(chunks/fanout) node reads."""

    def test_8mb_sequential_read_node_cost(self, db):
        size = 8 * 1024 * 1024
        payload = b"\x5a" * size
        designator = make_fchunk(db, payload)
        nchunks = size // CHUNK_PAYLOAD + 1

        db.bufmgr.invalidate_all()  # cold pool and cold node cache
        before = db.bufmgr.stats.node_cache_misses
        with db.lo.open(designator) as obj:
            total = 0
            while True:
                data = obj.read(65536)
                if not data:
                    break
                total += len(data)
        node_reads = db.bufmgr.stats.node_cache_misses - before

        assert total == size
        # Leaf fanout is ~300 entries/node; a streaming pass should touch
        # each leaf about once (plus one descent per read call), far below
        # one full descent per chunk (which would be >= nchunks * height).
        assert node_reads < nchunks / 4, (
            f"{node_reads} node reads for {nchunks} chunks")

    def test_sequential_read_uses_prefetch(self, db):
        designator = make_fchunk(db, b"\x11" * (512 * 1024))
        db.checkpoint()
        db.bufmgr.invalidate_all()
        before_hits = db.bufmgr.stats.prefetch_hits
        with db.lo.open(designator) as obj:
            while obj.read(65536):
                pass
        assert db.bufmgr.stats.prefetch_hits > before_hits


@pytest.mark.parametrize("impl", ["fchunk", "vsegment"])
def test_one_read_path_inside_and_outside_a_transaction(impl):
    """The same reads execute the same access-layer statements through
    a transaction-less descriptor and through an in-transaction one."""
    db = Database(pool_size=64, charge_cpu=False)
    try:
        size = 400_000
        with db.begin() as txn:
            designator = db.lo.create(txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(bytes(i % 251 for i in range(size)))
        rng = random.Random(16)
        offsets = [rng.randrange(size - 4096) for _ in range(20)]

        def cost(txn):
            before = db.statistics()["access"]
            with db.lo.open(designator, txn) as obj:
                for offset in offsets:
                    obj.seek(offset)
                    assert len(obj.read(4096)) == 4096
            after = db.statistics()["access"]
            return {name: after[name] - before[name]
                    for name in ("probes", "range_scans", "tuples_scanned")}

        outside = cost(None)
        with db.begin() as txn:
            inside = cost(txn)
        assert outside == inside
        assert outside["range_scans"] > 0
    finally:
        db.close()


@pytest.mark.parametrize("charge_cpu", [True, False])
def test_vsegment_frame_read_fetches_the_segment_it_returns(charge_cpu):
    """The overlap query is a floor probe in both clock modes: on an
    object loaded in 4,000-byte writes (16 segments per SEGMENT_MAX) one
    frame read fetches its own segment record, not the 64 KB window's."""
    frame, frames = 4000, 200
    db = Database(pool_size=64, charge_cpu=charge_cpu)
    try:
        with db.begin() as txn:
            designator = db.lo.create(txn, "vsegment")
            with db.lo.open(designator, txn, "rw") as obj:
                for i in range(frames):
                    obj.write(bytes([i % 251 + 1]) * frame)
        stats = db.access_stats
        rng = random.Random(20)
        with db.begin() as txn, db.lo.open(designator, txn) as obj:
            # The descriptor reads its size row once and keeps it while
            # nothing commits: the reads below do not probe it.
            assert obj.size() == frame * frames
            # Even frames only: two frames share a byte-store chunk, and
            # a second read of one would find it in the descriptor's cache.
            for i in [0, frames - 1] + rng.sample(range(2, frames - 2, 2),
                                                  20):
                before = stats.tuples_scanned
                records = obj._segments_overlapping(i * frame,
                                                    (i + 1) * frame)
                assert stats.tuples_scanned - before == 1
                assert [r.values[:2] for r in records] == [(i * frame,
                                                            frame)]
                # The whole read: segment + byte-store chunk.
                before = stats.tuples_scanned
                assert obj.pread(i * frame, frame) == (
                    bytes([i % 251 + 1]) * frame)
                assert stats.tuples_scanned - before == 2
    finally:
        db.close()


@pytest.mark.parametrize("impl", ["fchunk", "vsegment"])
def test_a_commit_probes_each_size_row_once(impl, monkeypatch):
    """Closing a writer and committing reads the object's
    ``pg_largeobject`` row once — a v-segment's byte store keeps none —
    and a flush with nothing written since the last one reads nothing."""
    from collections import Counter

    from repro.lo import metadata

    db = Database(pool_size=64)
    try:
        with db.begin() as txn:
            designator = db.lo.create(txn, impl)
        probes = Counter()
        real = metadata.size_row

        def size_row(database, oid, snapshot):
            probes[oid] += 1
            return real(database, oid, snapshot)

        for round_ in range(3):
            txn = db.begin()
            obj = db.lo.open(designator, txn, "rw")
            obj.seek(round_ * 5000)
            obj.write(bytes([round_ + 1]) * 5000)
            probes.clear()
            monkeypatch.setattr(metadata, "size_row", size_row)
            obj.close()
            txn.commit()
            monkeypatch.undo()
            assert probes == {designator_oid(designator): 1}, probes
        with db.lo.open(designator) as obj:
            assert obj.read() == b"".join(bytes([n]) * 5000
                                          for n in (1, 2, 3))
    finally:
        db.close()
