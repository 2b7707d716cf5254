"""Integration tests for the Database façade."""

from dataclasses import fields

import pytest

from repro.access.scan import SeqScan
from repro.db import Database
from repro.storage.buffer import BufferStats
from repro.errors import (
    DuplicateRelation,
    LockError,
    RelationNotFound,
    SchemaError,
)


@pytest.fixture
def db():
    database = Database()
    yield database
    database.close()


class TestDDL:
    def test_create_and_scan(self, db):
        db.create_class("EMP", [("name", "text"), ("age", "int4")])
        with db.begin() as txn:
            db.insert(txn, "EMP", ("Joe", 30))
            db.insert(txn, "EMP", ("Sam", 40))
        rows = sorted(t.values for t in db.scan("EMP"))
        assert rows == [("Joe", 30), ("Sam", 40)]

    def test_duplicate_class_rejected(self, db):
        db.create_class("EMP", [("name", "text")])
        with pytest.raises(DuplicateRelation):
            db.create_class("EMP", [("name", "text")])

    def test_unknown_type_rejected(self, db):
        with pytest.raises(SchemaError):
            db.create_class("T", [("x", "nonsense")])

    def test_drop_class(self, db):
        db.create_class("EMP", [("name", "text")])
        db.drop_class("EMP")
        with pytest.raises(RelationNotFound):
            db.get_class("EMP")

    def test_class_on_named_storage_manager(self, db):
        db.create_class("ARCHIVE", [("x", "int4")], smgr="memory")
        with db.begin() as txn:
            db.insert(txn, "ARCHIVE", (1,))
        assert [t.values for t in db.scan("ARCHIVE")] == [(1,)]

    def test_adt_column_stores_designator(self, db):
        db.create_large_type("image", storage="fchunk")
        db.create_class("EMP", [("name", "text"), ("picture", "image")])
        with db.begin() as txn:
            db.insert(txn, "EMP", ("Joe", "lo:123"))
        assert next(db.scan("EMP")).values == ("Joe", "lo:123")


class TestIndexes:
    def test_index_lookup(self, db):
        db.create_class("EMP", [("name", "text"), ("empno", "int4")])
        db.create_index("emp_no", "EMP", "empno")
        with db.begin() as txn:
            for i in range(50):
                db.insert(txn, "EMP", (f"e{i}", i))
        hits = db.index_lookup("emp_no", 17)
        assert [t.values for t in hits] == [("e17", 17)]

    def test_index_built_over_existing_rows(self, db):
        db.create_class("EMP", [("name", "text"), ("empno", "int4")])
        with db.begin() as txn:
            db.insert(txn, "EMP", ("pre", 9))
        db.create_index("emp_no", "EMP", "empno")
        assert [t.values for t in db.index_lookup("emp_no", 9)] == [("pre", 9)]

    def test_index_sees_replace(self, db):
        db.create_class("EMP", [("name", "text"), ("empno", "int4")])
        db.create_index("emp_no", "EMP", "empno")
        with db.begin() as txn:
            tid = db.insert(txn, "EMP", ("old", 5))
        with db.begin() as txn:
            db.replace(txn, "EMP", tid, ("new", 5))
        assert [t.values for t in db.index_lookup("emp_no", 5)] == [("new", 5)]

    def test_index_respects_visibility(self, db):
        db.create_class("EMP", [("name", "text"), ("empno", "int4")])
        db.create_index("emp_no", "EMP", "empno")
        txn = db.begin()
        db.insert(txn, "EMP", ("ghost", 1))
        assert db.index_lookup("emp_no", 1) == []
        txn.abort()
        assert db.index_lookup("emp_no", 1) == []

    def test_non_integer_index_rejected(self, db):
        db.create_class("EMP", [("name", "text")])
        with pytest.raises(SchemaError):
            db.create_index("bad", "EMP", "name")


class TestTransactions:
    def test_abort_rolls_back(self, db):
        db.create_class("EMP", [("name", "text")])
        txn = db.begin()
        db.insert(txn, "EMP", ("ghost",))
        txn.abort()
        assert list(db.scan("EMP")) == []

    def test_snapshot_isolation(self, db):
        db.create_class("EMP", [("name", "text")])
        writer = db.begin()
        db.insert(writer, "EMP", ("unseen",))
        reader = db.begin()
        # Reader's snapshot was taken while writer was active.
        snapshot = db.snapshot(reader)
        writer.commit()
        rel = db.get_class("EMP")
        assert SeqScan(db, rel).tuples(snapshot) == []
        reader.commit()
        assert [t.values for t in db.scan("EMP")] == [("unseen",)]

    def test_ddl_locks_conflict_with_writers(self, db):
        db.create_class("EMP", [("name", "text")])
        a = db.begin()
        db.insert(a, "EMP", ("joe",))
        b = db.begin()
        from repro.txn.locks import LockMode
        with pytest.raises(LockError):
            db.locks.acquire(b.xid, ("relation", "EMP"),
                             LockMode.EXCLUSIVE)
        a.commit()
        b.abort()


class TestTimeTravelViaDatabase:
    def test_scan_as_of(self, db):
        db.create_class("EMP", [("name", "text"), ("age", "int4")])
        with db.begin() as txn:
            tid = db.insert(txn, "EMP", ("Joe", 30))
        t_young = db.clock.now()
        with db.begin() as txn:
            db.replace(txn, "EMP", tid, ("Joe", 31))
        assert [t.values for t in db.scan("EMP", as_of=t_young)] \
            == [("Joe", 30)]
        assert [t.values for t in db.scan("EMP")] == [("Joe", 31)]


class TestDurability:
    def test_reopen_preserves_data(self, tmp_path):
        path = str(tmp_path / "db")
        first = Database(path)
        first.create_class("EMP", [("name", "text"), ("age", "int4")])
        with first.begin() as txn:
            first.insert(txn, "EMP", ("Joe", 30))
        first.close()

        second = Database(path)
        assert [t.values for t in second.scan("EMP")] == [("Joe", 30)]
        second.close()

    def test_reopen_preserves_indexes(self, tmp_path):
        path = str(tmp_path / "db")
        first = Database(path)
        first.create_class("EMP", [("name", "text"), ("empno", "int4")])
        first.create_index("emp_no", "EMP", "empno")
        with first.begin() as txn:
            first.insert(txn, "EMP", ("Joe", 7))
        first.close()

        second = Database(path)
        assert [t.values for t in second.index_lookup("emp_no", 7)] \
            == [("Joe", 7)]
        second.close()

    def test_uncommitted_work_lost_on_crash(self, tmp_path):
        path = str(tmp_path / "db")
        first = Database(path)
        first.create_class("EMP", [("name", "text")])
        with first.begin() as txn:
            first.insert(txn, "EMP", ("committed",))
        crashed = first.begin()
        first.insert(crashed, "EMP", ("lost",))
        # Simulate a crash: pages may or may not be flushed, but no commit
        # record was ever written.
        first.checkpoint()
        first.clog.close()
        first.catalog.journal.close()

        second = Database(path)
        assert [t.values for t in second.scan("EMP")] == [("committed",)]
        second.close()

    def test_vacuum_via_database(self, db):
        db.create_class("EMP", [("name", "text")])
        with db.begin() as txn:
            tid = db.insert(txn, "EMP", ("v1",))
        with db.begin() as txn:
            db.replace(txn, "EMP", tid, ("v2",))
        removed = db.vacuum()
        assert removed["EMP"] == 1


class TestStatistics:
    def test_statistics_shape(self, db):
        db.create_class("T", [("v", "int4")])
        with db.begin() as txn:
            db.insert(txn, "T", (1,))
        stats = db.statistics()
        assert stats["buffer"]["hits"] >= 0
        assert 0.0 <= stats["buffer"]["hit_rate"] <= 1.0
        assert stats["catalog"]["classes"] >= 2  # T + pg_largeobject
        assert stats["transactions"]["active"] == 0
        assert "disk" in stats["storage"]
        # The three stats dataclasses are reported field for field
        # (dataclasses.asdict): same keys, same order, on the wire too.
        assert list(stats["locks"]) == [
            "granted_immediately", "waits", "wait_time",
            "deadlocks_detected", "victims", "upgrades",
            "released", "range_locks", "range_waits"]
        assert list(stats["access"]) == [
            "probes", "range_scans", "seq_scans", "tuples_scanned",
            "tuples_visible", "prefetch_batches"]
        assert list(stats["largeobjects"]) == [
            "read_cache_hits", "read_cache_misses", "segment_cache_hits",
            "segment_cache_misses"]

    def test_buffer_block_lists_every_pool_counter_once(self, db):
        """``buffer`` is the pool's counters field for field, then the
        hit rate and the pool size; ``allocations`` moves when a fresh
        heap page is made and stays put when a row fits on one."""
        db.create_class("T", [("v", "int4")])
        assert list(db.statistics()["buffer"]) == [
            field.name for field in fields(BufferStats)] + [
            "hit_rate", "pool_size"]

        def allocations():
            return db.statistics()["buffer"]["allocations"]

        before = allocations()
        with db.begin() as txn:
            db.insert(txn, "T", (1,))      # the class's first page
        made = allocations()
        assert made == before + 1
        with db.begin() as txn:
            db.insert(txn, "T", (2,))      # fits beside the first row
        assert allocations() == made

    def test_clock_advances_with_io(self, db):
        db.create_class("T", [("v", "int4")])
        with db.begin() as txn:
            db.insert(txn, "T", (1,))
        assert db.statistics()["clock"]["elapsed"] > 0


class TestVacuumIndexMaintenance:
    def test_vacuum_prunes_index_entries(self, db):
        db.create_class("T", [("v", "int4")])
        db.create_index("t_v", "T", "v")
        with db.begin() as txn:
            tid = db.insert(txn, "T", (1,))
        with db.begin() as txn:
            db.replace(txn, "T", tid, (2,))
        index = db.get_index("t_v")
        with db.latch:  # raw index reads outside the scan layer
            assert len(index.search(1)) == 1  # dead version indexed
        db.vacuum()
        with db.latch:
            assert index.search(1) == []      # pruned with the version
            assert len(index.search(2)) == 1  # live version kept

    def test_stale_entry_never_surfaces_after_slot_reuse(self, db):
        """The hazard the recheck guards: a freed slot reused by an
        unrelated tuple must not satisfy a stale probe."""
        db.create_class("T", [("v", "int4")])
        db.create_index("t_v", "T", "v")
        with db.begin() as txn:
            tid = db.insert(txn, "T", (111,))
        with db.begin() as txn:
            db.delete(txn, "T", tid)
        # Simulate a vacuum that (buggily) skipped index maintenance.
        with db.latch:
            db.get_class("T").vacuum()
        with db.begin() as txn:
            db.insert(txn, "T", (222,))  # likely reuses the freed slot
        hits = db.index_lookup("t_v", 111)
        assert hits == []  # recheck rejects the stale entry

    def test_archive_prunes_index_entries(self, db):
        db.create_class("T", [("v", "int4")])
        db.create_index("t_v", "T", "v")
        with db.begin() as txn:
            tid = db.insert(txn, "T", (1,))
        with db.begin() as txn:
            db.replace(txn, "T", tid, (2,))
        db.archive_class("T")
        with db.latch:  # raw index read outside the scan layer
            assert db.get_index("t_v").search(1) == []


class TestHistoryApi:
    def test_version_chain(self, db):
        db.create_class("T", [("v", "int4")])
        with db.begin() as txn:
            tid = db.insert(txn, "T", (1,))
        oid = db.get_class("T").fetch_any_version(tid).oid
        with db.begin() as txn:
            tid = db.replace(txn, "T", tid, (2,))
        with db.begin() as txn:
            db.replace(txn, "T", tid, (3,))
        chain = db.history("T", oid)
        assert [v["values"] for v in chain] == [(1,), (2,), (3,)]
        # Intervals tile: each version ends where the next begins.
        assert chain[0]["valid_to"] == chain[1]["valid_from"]
        assert chain[1]["valid_to"] == chain[2]["valid_from"]
        assert chain[2]["valid_to"] is None

    def test_history_skips_aborted(self, db):
        db.create_class("T", [("v", "int4")])
        with db.begin() as txn:
            tid = db.insert(txn, "T", (1,))
        oid = db.get_class("T").fetch_any_version(tid).oid
        doomed = db.begin()
        db.replace(doomed, "T", tid, (99,))
        doomed.abort()
        chain = db.history("T", oid)
        assert [v["values"] for v in chain] == [(1,)]
        assert chain[0]["valid_to"] is None  # the delete aborted too

    def test_history_spans_archive(self, db):
        db.create_class("T", [("v", "int4")])
        with db.begin() as txn:
            tid = db.insert(txn, "T", (1,))
        oid = db.get_class("T").fetch_any_version(tid).oid
        with db.begin() as txn:
            db.replace(txn, "T", tid, (2,))
        db.archive_class("T")
        chain = db.history("T", oid)
        assert [v["values"] for v in chain] == [(1,), (2,)]
