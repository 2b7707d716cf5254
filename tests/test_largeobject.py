"""Tests for the four large-object implementations (§6 of the paper).

The parametrized suite verifies the shared file-oriented interface on all
four; the per-implementation classes verify the paper's differentiated
claims — transaction semantics, time travel, compression behaviour.
"""

import pytest

from repro.db import Database
from repro.errors import (
    InvalidSeek,
    LargeObjectError,
    LargeObjectNotFound,
    NoActiveTransaction,
    ObjectClosedError,
    ReadOnlyObject,
)


@pytest.fixture
def db():
    database = Database()
    yield database
    database.close()


def make_object(db, txn, impl):
    if impl == "ufile":
        return db.lo.create(txn, "ufile", path="/usr/joe")
    return db.lo.create(txn, impl)


ALL_IMPLS = ["ufile", "pfile", "fchunk", "vsegment"]
CHUNKED = ["fchunk", "vsegment"]


@pytest.mark.parametrize("impl", ALL_IMPLS)
class TestFileInterface:
    """§4: the interface all implementations share."""

    def test_write_then_read(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"hello large world")
                obj.seek(0)
                assert obj.read() == b"hello large world"

    def test_seek_and_partial_read(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"0123456789")
                obj.seek(3)
                assert obj.read(4) == b"3456"
                assert obj.tell() == 7

    def test_seek_whence(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"abcdef")
                assert obj.seek(-2, 2) == 4  # SEEK_END
                assert obj.read() == b"ef"
                obj.seek(1)
                assert obj.seek(2, 1) == 3  # SEEK_CUR
                assert obj.read(1) == b"d"

    def test_negative_seek_rejected(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                with pytest.raises(InvalidSeek):
                    obj.seek(-1)

    def test_read_past_eof_is_short(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"tiny")
                obj.seek(2)
                assert obj.read(100) == b"ny"
                assert obj.read(10) == b""

    def test_overwrite_middle(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"aaaaaaaaaa")
                obj.seek(4)
                obj.write(b"BB")
                obj.seek(0)
                assert obj.read() == b"aaaaBBaaaa"

    def test_write_past_eof_zero_fills(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"ab")
                obj.seek(6)
                obj.write(b"cd")
                obj.seek(0)
                assert obj.read() == b"ab\x00\x00\x00\x00cd"
                assert obj.size() == 8

    def test_size_tracks_writes(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                assert obj.size() == 0
                obj.write(b"x" * 100)
                assert obj.size() == 100
                obj.seek(50)
                obj.write(b"y" * 10)
                assert obj.size() == 100  # overwrite does not grow

    def test_read_only_mode_enforced(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"data")
            with db.lo.open(designator, txn, "r") as obj:
                with pytest.raises(ReadOnlyObject):
                    obj.write(b"nope")

    def test_closed_descriptor_rejected(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            obj = db.lo.open(designator, txn, "rw")
            obj.close()
            with pytest.raises(ObjectClosedError):
                obj.read()
            obj.close()  # idempotent

    def test_large_multichunk_payload(self, db, impl):
        payload = bytes(range(256)) * 150  # 38400 bytes, > 4 chunks
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(payload)
                obj.seek(0)
                assert obj.read() == payload
                obj.seek(8000 - 3)  # straddle a chunk boundary
                assert obj.read(6) == payload[7997:8003]

    def test_unlink(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            assert db.lo.exists(designator)
            db.lo.unlink(txn, designator)
            assert not db.lo.exists(designator)

    def test_implementation_reported(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            assert db.lo.implementation(designator) == impl

    def test_copy_between_objects(self, db, impl):
        with db.begin() as txn:
            src = make_object(db, txn, impl)
            dst = db.lo.create(txn, "fchunk")
            with db.lo.open(src, txn, "rw") as obj:
                obj.write(b"payload to copy" * 100)
            with db.lo.open(src, txn) as source, \
                    db.lo.open(dst, txn, "rw") as sink:
                copied = sink.copy_from(source)
            assert copied == 1500
            with db.lo.open(dst, txn) as sink:
                assert sink.read() == b"payload to copy" * 100


@pytest.mark.parametrize("impl", CHUNKED)
class TestChunkedTransactions:
    """§6.3/§6.4: transactions come for free from no-overwrite storage."""

    def test_abort_rolls_back_creation(self, db, impl):
        txn = db.begin()
        designator = make_object(db, txn, impl)
        txn.abort()
        assert not db.lo.exists(designator)

    def test_abort_rolls_back_writes(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"committed state")
        txn = db.begin()
        with db.lo.open(designator, txn, "rw") as obj:
            obj.seek(0)
            obj.write(b"SCRIBBLED OVER!")
        txn.abort()
        with db.lo.open(designator) as obj:
            assert obj.read() == b"committed state"

    def test_abort_rolls_back_size(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"12345")
        txn = db.begin()
        with db.lo.open(designator, txn, "rw") as obj:
            obj.seek(0, 2)
            obj.write(b"extension")
        txn.abort()
        with db.lo.open(designator) as obj:
            assert obj.size() == 5

    def test_uncommitted_writes_invisible_to_others(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"public")
        writer = db.begin()
        with db.lo.open(designator, writer, "rw") as obj:
            obj.seek(0)
            obj.write(b"hidden")
        # A detached reader sees the committed state only.
        with db.lo.open(designator) as obj:
            assert obj.read() == b"public"
        writer.commit()
        with db.lo.open(designator) as obj:
            assert obj.read() == b"hidden"

    @pytest.mark.parametrize("touch", ["nothing", "append-empty"])
    def test_idle_writable_descriptor_commits_no_size(self, db, impl, touch):
        """A descriptor that wrote nothing max-merges nothing: opened
        "rw" before a neighbour's committed truncate and closed after
        it, it must not re-commit the size it was opened at (the
        FileMonkey long haul's "as_of replay" flake: a zero-byte append
        resurrected the extent a concurrent rewrite had just cut)."""
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"x" * 9600)
        idle = db.begin()
        bystander = db.lo.open(designator, idle, "rw")   # sees 9,600
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.truncate(0)
                obj.write(b"y" * 100)
        if touch == "append-empty":
            assert bystander.append(b"") == 0
        bystander.close()
        idle.commit()
        with db.lo.open(designator) as obj:
            assert obj.size() == 100
            assert obj.read() == b"y" * 100

    def test_write_requires_transaction(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
        with pytest.raises(NoActiveTransaction):
            db.lo.open(designator, None, "rw")

    def test_read_without_transaction_ok(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"readable")
        with db.lo.open(designator) as obj:
            assert obj.read() == b"readable"


@pytest.mark.parametrize("impl", CHUNKED)
class TestChunkedTimeTravel:
    """§6.3/§6.4: 'time travel is automatically available'."""

    def test_read_historical_contents(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"version one")
        t1 = db.clock.now()
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.seek(0)
                obj.write(b"version TWO")
        t2 = db.clock.now()
        with db.lo.open(designator, as_of=t1) as obj:
            assert obj.read() == b"version one"
        with db.lo.open(designator, as_of=t2) as obj:
            assert obj.read() == b"version TWO"

    def test_historical_size(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"short")
        t1 = db.clock.now()
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.seek(0, 2)
                obj.write(b" plus a long extension")
        with db.lo.open(designator, as_of=t1) as obj:
            assert obj.size() == 5

    def test_historical_open_is_read_only(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
        txn = db.begin()
        with pytest.raises(LargeObjectError):
            db.lo.open(designator, txn, "rw", as_of=1.0)
        txn.abort()

    def test_fine_grained_frame_history(self, db, impl):
        """Replace one 'frame' repeatedly; every version stays readable."""
        frame = 2048
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(bytes(frame * 4))
        stamps = []
        for generation in range(1, 4):
            with db.begin() as txn:
                with db.lo.open(designator, txn, "rw") as obj:
                    obj.seek(frame)
                    obj.write(bytes([generation]) * frame)
            stamps.append((generation, db.clock.now()))
        for generation, stamp in stamps:
            with db.lo.open(designator, as_of=stamp) as obj:
                obj.seek(frame)
                assert obj.read(frame) == bytes([generation]) * frame


class TestUFileDrawbacks:
    """§6.1: the documented drawbacks are real behaviour."""

    def test_writes_survive_abort(self, db):
        txn = db.begin()
        designator = db.lo.create(txn, "ufile", path="/usr/joe")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"not rolled back")
        txn.abort()
        with db.lo.open(designator) as obj:
            assert obj.read() == b"not rolled back"

    def test_no_time_travel(self, db):
        with db.begin() as txn:
            designator = db.lo.create(txn, "ufile", path="/usr/joe")
        with pytest.raises(LargeObjectError):
            db.lo.open(designator, as_of=1.0)

    def test_ufile_needs_path(self, db):
        with db.begin() as txn:
            with pytest.raises(LargeObjectError):
                db.lo.create(txn, "ufile")

    def test_reserved_namespaces_rejected(self, db):
        with pytest.raises(LargeObjectError):
            db.lo.create_ufile("pg_pfiles/7")
        with pytest.raises(LargeObjectError):
            db.lo.create_ufile("lo:7")


class TestPFile:
    """§6.2: DBMS-owned file, single writer."""

    def test_newfilename_allocates_unique_names(self, db):
        with db.begin() as txn:
            a = db.lo.newfilename(txn)
            b = db.lo.newfilename(txn)
        assert a != b
        assert a.startswith("pg_pfiles/")

    def test_single_writer_enforced(self, db):
        with db.begin() as txn:
            designator = db.lo.newfilename(txn)
        first = db.lo.open(designator, None, "rw")
        with pytest.raises(LargeObjectError):
            db.lo.open(designator, None, "rw")
        first.close()
        second = db.lo.open(designator, None, "rw")  # freed on close
        second.close()

    def test_concurrent_readers_allowed(self, db):
        with db.begin() as txn:
            designator = db.lo.newfilename(txn)
        readers = [db.lo.open(designator) for _ in range(3)]
        for reader in readers:
            reader.close()

    def test_allocation_undone_on_abort(self, db):
        txn = db.begin()
        designator = db.lo.newfilename(txn)
        txn.abort()
        assert not db.lo.exists(designator)

    def test_contents_not_transactional(self, db):
        with db.begin() as txn:
            designator = db.lo.newfilename(txn)
        txn = db.begin()
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"sticky")
        txn.abort()
        with db.lo.open(designator) as obj:
            assert obj.read() == b"sticky"


class TestCompression:
    """§6.3/§6.4: per-chunk vs per-segment compression."""

    @pytest.mark.parametrize("impl", CHUNKED)
    @pytest.mark.parametrize("compression", ["zero-rle", "zlib"])
    def test_roundtrip_compressed(self, db, impl, compression):
        payload = (b"A" * 3000 + bytes(5000)) * 3
        with db.begin() as txn:
            designator = db.lo.create(txn, impl, compression=compression)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(payload)
                obj.seek(0)
                assert obj.read() == payload

    def test_vsegment_saves_space_at_30pct(self, db):
        """§6.4: any reduction is reflected in object size (unlike f-chunk)."""
        # 30%-compressible frames: 70% random-ish bytes + 30% zeros.
        frame = (b"\xa5" * 2868) + bytes(1228)
        payload = frame * 400  # ~1.6 MB
        sizes = {}
        for impl in ("fchunk", "vsegment"):
            with db.begin() as txn:
                designator = db.lo.create(txn, impl,
                                          compression="zero-rle")
                with db.lo.open(designator, txn, "rw") as obj:
                    for i in range(0, len(payload), 4096):
                        obj.write(payload[i:i + 4096])
                sizes[impl] = db.lo.storage_breakdown(designator)["data"]
        # f-chunk at ~30% compression wastes the savings (one chunk/page);
        # v-segment actually shrinks.
        assert sizes["vsegment"] < 0.8 * sizes["fchunk"]

    def test_fchunk_saves_space_at_50pct(self, db):
        """§6.3: two half-size chunks fit one page."""
        frame = (b"\x5a" * 2048) + bytes(2048)  # 50% compressible
        payload = frame * 400
        sizes = {}
        for compression in ("none", "zero-rle"):
            with db.begin() as txn:
                designator = db.lo.create(txn, "fchunk",
                                          compression=compression)
                with db.lo.open(designator, txn, "rw") as obj:
                    for i in range(0, len(payload), 4096):
                        obj.write(payload[i:i + 4096])
                sizes[compression] = \
                    db.lo.storage_breakdown(designator)["data"]
        assert sizes["zero-rle"] <= 0.55 * sizes["none"]

    def test_fchunk_wastes_space_at_30pct(self, db):
        """§6.3/Fig 1: 30% compression saves nothing for f-chunk."""
        frame = (b"\xa5" * 2868) + bytes(1228)
        payload = frame * 250  # 1,024,000 bytes = exactly 128 chunks
        sizes = {}
        for compression in ("none", "zero-rle"):
            with db.begin() as txn:
                designator = db.lo.create(txn, "fchunk",
                                          compression=compression)
                with db.lo.open(designator, txn, "rw") as obj:
                    obj.write(payload)
                sizes[compression] = \
                    db.lo.storage_breakdown(designator)["data"]
        assert sizes["zero-rle"] == sizes["none"]


class TestWormLargeObjects:
    """§7/§9.3: chunked objects on the write-once jukebox."""

    def test_fchunk_on_worm_roundtrip(self, db):
        payload = bytes(range(256)) * 64
        with db.begin() as txn:
            designator = db.lo.create(txn, "fchunk", smgr="worm")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(payload)
        with db.lo.open(designator) as obj:
            assert obj.read() == payload

    def test_worm_cache_serves_rereads(self, db):
        with db.begin() as txn:
            designator = db.lo.create(txn, "fchunk", smgr="worm")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(bytes(100_000))
        worm = db.storage_manager("worm")
        # Push the pages out of the buffer pool so reads hit the smgr.
        from repro.lo.fchunk import chunk_class_name, chunk_index_name
        from repro.lo.manager import designator_oid
        oid = designator_oid(designator)
        db.checkpoint()
        db.bufmgr.drop_file(worm, db.get_class(chunk_class_name(oid)).fileid)
        db.bufmgr.drop_file(worm, db.get_index(chunk_index_name(oid)).fileid)
        with db.lo.open(designator) as obj:
            obj.read()
        assert worm.hit_rate() > 0.5  # data still staged/cached on disk


class TestStorageBreakdown:
    def test_fchunk_breakdown_reports_index(self, db):
        with db.begin() as txn:
            designator = db.lo.create(txn, "fchunk")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(bytes(100_000))
        breakdown = db.lo.storage_breakdown(designator)
        assert breakdown["data"] >= 100_000
        assert breakdown["btree"] > 0

    def test_vsegment_breakdown_reports_map(self, db):
        with db.begin() as txn:
            designator = db.lo.create(txn, "vsegment")
            with db.lo.open(designator, txn, "rw") as obj:
                for i in range(25):
                    obj.write(bytes(4096))
        breakdown = db.lo.storage_breakdown(designator)
        assert set(breakdown) == {"data", "segment_map", "btree",
                                  "store_btree"}
        assert breakdown["data"] >= 25 * 4096

    def test_native_breakdown(self, db):
        with db.begin() as txn:
            designator = db.lo.create(txn, "pfile")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(bytes(12345))
        assert db.lo.storage_breakdown(designator) == {"data": 12345}


class TestManagerEdgeCases:
    def test_open_unknown_designator(self, db):
        with pytest.raises(LargeObjectNotFound):
            db.lo.open("no/such/file")
        from repro.errors import LargeObjectNotFound as LONF
        with pytest.raises(LONF):
            db.lo.open("lo:999999")

    def test_malformed_designator(self, db):
        with pytest.raises(LargeObjectError):
            db.lo.open("lo:xyz")

    def test_bad_mode(self, db):
        with pytest.raises(LargeObjectError):
            db.lo.open("anything", mode="a+")

    def test_unknown_compression_rejected_at_create(self, db):
        from repro.errors import CompressionError
        txn = db.begin()
        with pytest.raises(CompressionError):
            db.lo.create(txn, "fchunk", compression="snappy")
        txn.abort()

    def test_create_for_type(self, db):
        db.create_large_type("image", storage="v-segment",
                             compression="zero-rle")
        with db.begin() as txn:
            designator = db.lo.create_for_type(txn, "image")
            assert db.lo.implementation(designator) == "vsegment"

    def test_create_for_small_type_rejected(self, db):
        with db.begin() as txn:
            with pytest.raises(LargeObjectError):
                db.lo.create_for_type(txn, "int4")


    def test_store_append_cursors_go_with_their_objects(self, db):
        """Regression: one ``_append_cursors`` entry per v-segment byte
        store stayed behind after unlink and after an aborted create."""
        for _ in range(50):
            with db.begin() as txn:
                designator = db.lo.create(txn, "vsegment")
                with db.lo.open(designator, txn, "rw") as obj:
                    obj.write(b"frame" * 100)
            assert len(db.lo._append_cursors) == 1
            with db.begin() as txn:
                db.lo.unlink(txn, designator)
        txn = db.begin()
        designator = db.lo.create(txn, "vsegment")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"never committed")
        assert len(db.lo._append_cursors) == 1
        txn.abort()
        assert db.lo._append_cursors == {}

    @pytest.mark.parametrize("ending", ["abort", "unlink"])
    def test_a_vsegment_object_leaves_none_of_its_four_relations(
            self, db, ending):
        """Aborting the create, or unlinking, drops the segment class and
        its index and the byte store's class and its index."""
        from repro.lo.fchunk import chunk_class_name, chunk_index_name
        from repro.lo.manager import designator_oid
        from repro.lo.vsegment import segment_class_name, segment_index_name
        txn = db.begin()
        designator = db.lo.create(txn, "vsegment")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"frame" * 100)
        oid = designator_oid(designator)
        store_oid = db.catalog.get_large_object(oid).detail["store_oid"]
        names = {segment_class_name(oid), segment_index_name(oid),
                 chunk_class_name(store_oid), chunk_index_name(store_oid)}

        def left() -> set:
            return names & (set(db.catalog.relations)
                            | set(db.catalog.indexes))

        assert left() == names
        if ending == "abort":
            txn.abort()
        else:
            txn.commit()
            with db.begin() as txn:
                db.lo.unlink(txn, designator)
        assert left() == set()
        assert db.catalog.large_objects.keys().isdisjoint({oid, store_oid})


class TestTemporaryObjects:
    def test_unkept_temporaries_collected(self, db):
        from repro.lo.temporary import TemporaryObjects
        txn = db.begin()
        temps = TemporaryObjects(db, txn)
        designator = temps.register(db.lo.create(txn, "fchunk"))
        assert temps.collect() == 1
        assert not db.lo.exists(designator)
        txn.commit()

    def test_kept_temporaries_survive(self, db):
        from repro.lo.temporary import TemporaryObjects
        txn = db.begin()
        temps = TemporaryObjects(db, txn)
        designator = temps.register(db.lo.create(txn, "fchunk"))
        temps.keep(designator)
        assert temps.collect() == 0
        assert db.lo.exists(designator)
        txn.commit()

    def test_scope_collects_on_exit(self, db):
        from repro.lo.temporary import TemporaryObjects
        txn = db.begin()
        with TemporaryObjects(db, txn) as temps:
            designator = temps.register(db.lo.create(txn, "fchunk"))
        assert not db.lo.exists(designator)
        txn.commit()


class TestStat:
    def test_stat_chunked(self, db):
        with db.begin() as txn:
            designator = db.lo.create(txn, "vsegment",
                                      compression="zero-rle")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(bytes(5000))
        info = db.lo.stat(designator)
        assert info["impl"] == "vsegment"
        assert info["compression"] == "zero-rle"
        assert info["size"] == 5000

    def test_stat_native(self, db):
        with db.begin() as txn:
            designator = db.lo.newfilename(txn)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"abc")
        info = db.lo.stat(designator)
        assert info["impl"] == "pfile"
        assert info["smgr"] == "native"
        assert info["size"] == 3


@pytest.mark.parametrize("impl", ALL_IMPLS)
class TestTruncate:
    def test_shrink(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"0123456789")
                assert obj.truncate(4) == 4
                assert obj.size() == 4
                obj.seek(0)
                assert obj.read() == b"0123"

    def test_shrink_to_zero(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"contents")
                obj.truncate(0)
                assert obj.size() == 0
                obj.seek(0)
                assert obj.read() == b""

    def test_grow_pads_with_zeros(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"ab")
                obj.truncate(6)
                obj.seek(0)
                assert obj.read() == b"ab\x00\x00\x00\x00"

    def test_default_truncates_at_position(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"0123456789")
                obj.seek(3)
                assert obj.truncate() == 3
                assert obj.size() == 3

    def test_no_stale_bytes_after_regrow(self, db, impl):
        """The truncated tail must never resurface on extension."""
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"\xff" * 20_000)  # spans multiple chunks
                obj.truncate(5_000)
                obj.seek(19_999)
                obj.write(b"z")  # regrow to 20,000
                obj.seek(4_000)
                data = obj.read(4_000)
                assert data == b"\xff" * 1_000 + bytes(3_000)

    def test_read_only_truncate_rejected(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"x")
            with db.lo.open(designator, txn, "r") as obj:
                with pytest.raises(ReadOnlyObject):
                    obj.truncate(0)

    def test_negative_truncate_rejected(self, db, impl):
        with db.begin() as txn:
            designator = make_object(db, txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                with pytest.raises(InvalidSeek):
                    obj.truncate(-1)


class TestTruncateHistory:
    @pytest.mark.parametrize("impl", CHUNKED)
    def test_truncated_tail_readable_in_the_past(self, db, impl):
        with db.begin() as txn:
            designator = db.lo.create(txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"A" * 12_000)
        stamp = db.clock.now()
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.truncate(100)
        with db.lo.open(designator) as obj:
            assert obj.size() == 100
        with db.lo.open(designator, as_of=stamp) as obj:
            assert obj.size() == 12_000
            obj.seek(11_000)
            assert obj.read(10) == b"A" * 10

    @pytest.mark.parametrize("impl", CHUNKED)
    def test_truncate_rolls_back_on_abort(self, db, impl):
        with db.begin() as txn:
            designator = db.lo.create(txn, impl)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"B" * 9_000)
        txn = db.begin()
        with db.lo.open(designator, txn, "rw") as obj:
            obj.truncate(5)
        txn.abort()
        with db.lo.open(designator) as obj:
            assert obj.size() == 9_000
            assert obj.read(3) == b"BBB"


class TestSegmentOverlapQuery:
    """``VSegmentObject._segments_overlapping`` (a floor probe) returns
    what a brute-force filter over every visible segment record returns,
    for every kind of snapshot a descriptor can hold."""

    @staticmethod
    def assert_matches_brute_force(db, obj, rng, extent):
        from repro.access.scan import SeqScan
        snapshot = obj._snapshot()
        visible = sorted(SeqScan(db, obj.relation).tuples(snapshot),
                         key=lambda t: t.values[0])
        edges = sorted({t.values[0] for t in visible}
                       | {t.values[0] + t.values[1] for t in visible})
        windows = [(rng.randrange(extent), rng.randrange(1, 150_000))
                   for _ in range(60)]
        # ... and windows starting or ending exactly on a segment edge.
        windows += [(max(0, edge + d), rng.randrange(1, 9_000))
                    for edge in rng.sample(edges, min(20, len(edges)))
                    for d in (-1, 0, 1)]
        for start, length in windows:
            end = start + length
            expected = [t.tid for t in visible
                        if t.values[0] + t.values[1] > start
                        and t.values[0] < end]
            found = obj._segments_overlapping(start, end)
            assert [t.tid for t in found] == expected, (start, end)
        return len(visible)

    @pytest.mark.parametrize("seed", [1993, 4242])
    def test_equals_brute_force_across_a_history(self, seed):
        import random
        rng = random.Random(seed)
        db = Database(charge_cpu=False)
        extent = 400_000
        try:
            def check(txn=None, as_of=None):
                with db.lo.open(designator, txn, as_of=as_of) as obj:
                    return self.assert_matches_brute_force(
                        db, obj, rng, extent)

            def overwrite(obj, count):
                # Random spans: most straddle a segment edge or several.
                for _ in range(count):
                    obj.seek(rng.randrange(obj.size()))
                    obj.write(bytes([rng.randrange(1, 256)])
                              * rng.randrange(1, 12_000))

            with db.begin() as txn:
                designator = db.lo.create(txn, "vsegment")
                with db.lo.open(designator, txn, "rw") as obj:
                    while obj.size() < 300_000:
                        obj.write(b"\x07" * rng.randrange(500, 9_000))
            assert check() > 50
            with db.begin() as txn:
                with db.lo.open(designator, txn, "rw") as obj:
                    overwrite(obj, 25)
            first = db.clock.now()
            check()
            with db.begin() as txn:
                with db.lo.open(designator, txn, "rw") as obj:
                    obj.truncate(rng.randrange(150_000, 200_000))
                    obj.truncate(260_000)            # sparse: a hole
            check()
            with db.begin() as txn:
                with db.lo.open(designator, txn, "rw") as obj:
                    obj.seek(330_000)                # gap-fills from EOF
                    obj.write(b"\x09" * 5_000)
                    overwrite(obj, 10)
            second = db.clock.now()
            check()
            aborted = db.begin()
            with db.lo.open(designator, aborted, "rw") as obj:
                overwrite(obj, 15)
                obj.truncate(100_000)
            aborted.abort()
            check()
            writer = db.begin()
            with db.lo.open(designator, writer, "rw") as obj:
                overwrite(obj, 15)
                # The writer's own uncommitted view, and everyone else's.
                self.assert_matches_brute_force(db, obj, rng, extent)
                check()
            writer.commit()
            check()
            check(as_of=first)
            check(as_of=second)
            assert db.check_integrity() == []
        finally:
            db.close()


@pytest.mark.parametrize("impl", ["ufile", "pfile"])
def test_lo_append_on_a_file_object(db, impl):
    """The ``lo_append`` verb on a u-file or p-file object runs the base
    ``LargeObject.append``: it writes at the size wherever the cursor
    is, leaves the cursor after the data, and an empty append moves
    nothing."""
    from repro.server.server import serve
    with db.begin() as txn:
        designator = make_object(db, txn, impl)
    session = db.session()
    session.begin()
    obj = session.lo_open(designator, "rw")
    obj.write(b"abc")
    obj.seek(1)

    def lo_append(data):
        return serve(session, {"cmd": "lo_append", "fd": obj.fd}, data)[0]

    assert lo_append(b"defg") == {"ok": True, "nbytes": 4, "pos": 7}
    assert lo_append(b"") == {"ok": True, "nbytes": 0, "pos": 7}
    assert obj.read() == b""
    assert obj.pread(0, 100) == b"abcdefg"
    session.commit()
    with db.lo.open(designator) as obj:
        assert obj.read() == b"abcdefg"
        assert obj.size() == 7


def _segment_extents(db, designator):
    """``(byte_pointer, compressed_len)`` of every visible segment."""
    from repro.lo.manager import designator_oid
    from repro.lo.vsegment import segment_class_name
    return {(t.values[3], t.values[2])
            for t in db.scan(segment_class_name(designator_oid(designator)))}


def _store_oid(db, designator):
    from repro.lo.manager import designator_oid
    return db.catalog.get_large_object(
        designator_oid(designator)).detail["store_oid"]


class TestByteStoreKeepsNoSizeRow:
    """A v-segment's byte store only grows and a segment record publishes
    each write, so the store keeps no ``pg_largeobject`` row: its size is
    where its last visible chunk ends."""

    def test_an_overwrite_forces_only_segment_and_store_files(
            self, db, monkeypatch):
        from repro.lo.manager import designator_oid
        with db.begin() as txn:
            designator = db.lo.create(txn, "vsegment")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"A" * 20_000)
        oid, store = designator_oid(designator), _store_oid(db, designator)
        requested = []
        acquire = db.locks.acquire

        def recording(xid, resource, mode):
            requested.append(resource)
            return acquire(xid, resource, mode)

        monkeypatch.setattr(db.locks, "acquire", recording)
        txn = db.begin()
        with db.lo.open(designator, txn, "rw") as obj:
            obj.seek(1_000)
            obj.write(b"B" * 2_000)
        txn.commit()
        assert {fileid for _smgr, fileid in txn.touched} == {
            f"heap_lo_{oid}_seg", f"btree_lo_{oid}_segidx",
            f"heap_lo_{store}", f"btree_lo_{store}_seq"}
        assert ("losize", store) not in requested
        with db.lo.open(designator) as obj:
            assert obj.read() == b"A" * 1_000 + b"B" * 2_000 + b"A" * 17_000

    def test_a_store_knows_its_size_without_a_row(self, db):
        from repro.db import PG_LARGEOBJECT
        with db.begin() as txn:
            designator = db.lo.create(txn, "vsegment")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"A" * 20_000)
        store = _store_oid(db, designator)
        assert store not in {t.values[0] for t in db.scan(PG_LARGEOBJECT)}
        end = max(ptr + clen for ptr, clen
                  in _segment_extents(db, designator))
        assert db.lo.size(f"lo:{store}", db.snapshot()) == end == 20_000

    def test_a_second_descriptor_sees_the_first_ones_appends(self, db):
        """Two writers of one object in one transaction: the first one's
        close puts store chunks the second one's store has not seen (no
        epoch moves inside a transaction); it must replace them, not
        insert a second visible version."""
        with db.begin() as txn:
            designator = db.lo.create(txn, "vsegment")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"A" * 5_000)
        with db.begin() as txn:
            first = db.lo.open(designator, txn, "rw")
            second = db.lo.open(designator, txn, "rw")
            first.seek(0, 2)
            first.write(b"B" * 5_000)
            first.close()
            second.seek(0, 2)
            second.write(b"C" * 5_000)
            second.close()
        with db.lo.open(designator) as obj:
            assert obj.read() == b"A" * 5_000 + b"B" * 5_000 + b"C" * 5_000
        assert db.check_integrity() == []

    def test_a_store_written_with_a_size_row(self, tmp_path):
        """Every directory written before stores stopped keeping a row
        has one per store.  It is never read: the store reads back, new
        segments land past every committed extent, the checker passes
        over the row gone stale, and unlink deletes it."""
        from repro.db import PG_LARGEOBJECT
        path = str(tmp_path / "db")
        db = Database(path)
        with db.begin() as txn:
            designator = db.lo.create(txn, "vsegment",
                                      compression="zero-rle")
            with db.lo.open(designator, txn, "rw") as obj:
                for n in range(12):
                    obj.write(bytes([n + 1]) * 2_000 + bytes(2_000))
        store = _store_oid(db, designator)
        with db.begin() as txn:
            db.insert(txn, PG_LARGEOBJECT,
                      (store, db.lo.size(f"lo:{store}", db.snapshot(txn))))
        committed = _segment_extents(db, designator)
        db.close()

        db = Database(path)
        expected = b"".join(bytes([n + 1]) * 2_000 + bytes(2_000)
                            for n in range(12))
        with db.lo.open(designator) as obj:
            assert obj.read() == expected
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.seek(0, 2)
                obj.write(b"D" * 3_000)
                obj.seek(8_000)
                obj.write(b"E" * 500)
        fresh = _segment_extents(db, designator) - committed
        assert fresh
        last_end = max(ptr + clen for ptr, clen in committed)
        assert all(ptr >= last_end for ptr, _clen in fresh), fresh
        assert db.check_integrity() == []
        expected = expected[:8_000] + b"E" * 500 + expected[8_500:]
        with db.lo.open(designator) as obj:
            assert obj.read() == expected + b"D" * 3_000
        with db.begin() as txn:
            db.lo.unlink(txn, designator)
        assert store not in {t.values[0] for t in db.scan(PG_LARGEOBJECT)}
        assert db.check_integrity() == []
        db.close()
