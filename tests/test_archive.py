"""Tests for the archival vacuum cleaner (history → archive storage)."""

import pytest

from repro.db import Database
from repro.errors import RelationError


@pytest.fixture
def db():
    database = Database()
    yield database
    database.close()


def build_history(db):
    """Three committed generations of one row; returns [(stamp, value)]."""
    db.create_class("T", [("v", "int4")])
    stamps = []
    with db.begin() as txn:
        tid = db.insert(txn, "T", (1,))
    stamps.append((db.clock.now(), 1))
    for value in (2, 3):
        with db.begin() as txn:
            tid = db.replace(txn, "T", tid, (value,))
        stamps.append((db.clock.now(), value))
    return stamps


class TestSweep:
    def test_moves_dead_versions(self, db):
        build_history(db)
        result = db.archive_class("T")
        assert result == {"archived": 2, "discarded": 0}
        # Current relation keeps only the live version.
        assert [t.values for t in db.scan("T")] == [(3,)]
        archive = db.get_class("a_T")
        assert len(list(archive.scan_versions())) == 2

    def test_discards_aborted_versions(self, db):
        db.create_class("T", [("v", "int4")])
        txn = db.begin()
        db.insert(txn, "T", (99,))
        txn.abort()
        result = db.archive_class("T")
        assert result == {"archived": 0, "discarded": 1}
        assert not db.class_exists("a_T")  # nothing worth keeping

    def test_keeps_live_and_in_progress(self, db):
        db.create_class("T", [("v", "int4")])
        with db.begin() as txn:
            tid = db.insert(txn, "T", (1,))
        deleter = db.begin()
        db.delete(deleter, "T", tid)  # uncommitted delete
        assert db.archive_class("T") == {"archived": 0, "discarded": 0}
        deleter.abort()

    def test_horizon_limits_sweep(self, db):
        stamps = build_history(db)
        middle = stamps[1][0]
        result = db.archive_class("T", horizon=middle)
        assert result["archived"] == 1  # only the pre-middle version

    def test_idempotent(self, db):
        build_history(db)
        db.archive_class("T")
        assert db.archive_class("T") == {"archived": 0, "discarded": 0}

    def test_archive_of_archive_rejected(self, db):
        build_history(db)
        db.archive_class("T")
        with pytest.raises(RelationError):
            db.archive_class("a_T")

    def test_archive_lands_on_worm(self, db):
        build_history(db)
        db.archive_class("T")
        entry = db.catalog.get_relation("a_T")
        assert entry.smgr_name == "worm"

    def test_stamps_preserved_byte_for_byte(self, db):
        build_history(db)
        before = {(t.oid, t.xmin, t.xmax, t.values)
                  for t in db.get_class("T").scan_versions()
                  if t.xmax != 0}
        db.archive_class("T")
        after = {(t.oid, t.xmin, t.xmax, t.values)
                 for t in db.get_class("a_T").scan_versions()}
        assert before == after


class TestTimeTravelAcrossArchive:
    def test_history_readable_after_archiving(self, db):
        stamps = build_history(db)
        db.archive_class("T")
        for stamp, value in stamps:
            rows = [t.values for t in db.scan("T", as_of=stamp)]
            assert rows == [(value,)]

    def test_current_reads_skip_archive(self, db):
        build_history(db)
        db.archive_class("T")
        assert [t.values for t in db.scan("T")] == [(3,)]

    def test_no_duplicates_after_partial_crash(self, db):
        """A version present in both places (crash between copy and
        delete) appears once in historical scans."""
        stamps = build_history(db)
        relation = db.get_class("T")
        victim = next(t for t in relation.scan_versions() if t.xmax != 0)
        archive = db.archiver.archive_relation("T", create=True)
        from repro.access.tuples import serialize_tuple
        image = serialize_tuple(relation.schema, victim.xmin, victim.oid,
                                victim.values, xmax=victim.xmax)
        archive.insert_raw(image)  # the "crashed" half-done archive copy
        rows = [t.values for t in db.scan("T", as_of=stamps[0][0])]
        assert rows == [(stamps[0][1],)]

    def test_archive_survives_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.create_class("T", [("v", "int4")])
        with db.begin() as txn:
            tid = db.insert(txn, "T", (1,))
        stamp = db.clock.now()
        with db.begin() as txn:
            db.replace(txn, "T", tid, (2,))
        # Durable databases archive to disk (worm media is per-process).
        db.archiver.archive_smgr = "disk"
        db.archive_class("T")
        db.close()
        reopened = Database(path)
        assert [t.values for t in reopened.scan("T", as_of=stamp)] \
            == [(1,)]
        assert [t.values for t in reopened.scan("T")] == [(2,)]
        reopened.close()


class TestSpaceReclamation:
    def test_archived_space_is_reusable(self, db):
        db.create_class("T", [("pad", "text")])
        with db.begin() as txn:
            tids = [db.insert(txn, "T", ("x" * 500,)) for _ in range(100)]
        for generation in range(3):
            with db.begin() as txn:
                tids = [db.replace(txn, "T", tid, (f"{generation}" * 500,))
                        for tid in tids]
        blocks_before = db.get_class("T").nblocks()
        db.archive_class("T")
        with db.begin() as txn:
            for _ in range(100):
                db.insert(txn, "T", ("fresh" * 100,))
        assert db.get_class("T").nblocks() <= blocks_before + 1


# -- one history, read through every surface ----------------------------------

@pytest.fixture
def travelled(db):
    """A user row and one large object of each chunked implementation,
    each overwritten once; ``stamp`` falls between the two states."""
    db.create_class("T", [("k", "int4"), ("v", "text")])
    db.create_index("T_k", "T", "k")
    with db.begin() as txn:
        tid = db.insert(txn, "T", (1, "old"))
    oid = db.get_class("T").fetch_any_version(tid).oid
    objects = {}
    for impl in ("fchunk", "vsegment"):
        with db.begin() as txn:
            objects[impl] = db.lo.create(txn, impl, compression="none")
            with db.lo.open(objects[impl], txn, "rw") as obj:
                obj.write(b"A" * 20_000)
    stamp = db.clock.now()
    with db.begin() as txn:
        db.replace(txn, "T", tid, (1, "new"))
        for designator in objects.values():
            with db.lo.open(designator, txn, "rw") as obj:
                obj.seek(5_000)
                obj.write(b"B" * 10_000)

    def lo_read(impl):
        with db.lo.open(objects[impl], as_of=stamp) as obj:
            return obj.read(30_000)

    surfaces = {
        "scan": lambda: [t.values for t in db.scan("T", as_of=stamp)],
        "retrieve": lambda: db.execute(
            f'retrieve (T.k, T.v) from T["{stamp!r}"]').rows,
        "index_lookup": lambda: [
            t.values for t in db.index_lookup("T_k", 1, as_of=stamp)],
        "history": lambda: [v["values"] for v in db.history("T", oid)],
        "fchunk": lambda: lo_read("fchunk"),
        "vsegment": lambda: lo_read("vsegment"),
    }
    return db, surfaces


SURFACES = ["scan", "retrieve", "index_lookup", "history", "fchunk",
            "vsegment"]


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("swept", [False, True])
def test_every_surface_reads_the_same_past(travelled, surface, swept):
    """Time travel is one answer however it is asked, and a sweep of
    every class involved (``pg_largeobject`` included) does not change
    it.  Before the scan layer read the archive only ``scan`` and
    ``history`` survived the sweep: QL and ``index_lookup`` returned
    nothing and both large objects read as zeros."""
    db, surfaces = travelled
    if swept:
        for name in db.catalog.relation_names():
            if not name.startswith("a_"):
                db.archive_class(name)
        assert db.class_exists("a_pg_largeobject")
    expected = {
        "scan": [(1, "old")], "retrieve": [(1, "old")],
        "index_lookup": [(1, "old")],
        "history": [(1, "old"), (1, "new")],
        "fchunk": b"A" * 20_000, "vsegment": b"A" * 20_000,
    }
    assert surfaces[surface]() == expected[surface]
    assert [t.values for t in db.scan("T")] == [(1, "new")]
    assert db.check_integrity() == []


class TestSweepLeavesArchivesAlone:
    def test_vacuum_skips_archive_classes(self):
        """An archive is write-once: ``vacuum`` used to sweep ``a_T``
        too, deleting what ``archive_class`` had just put there — and,
        once the archive had migrated to WORM media, leaving a dirty
        page no checkpoint or close could ever write."""
        db = Database()
        stamps = build_history(db)
        db.archive_class("T")
        db.storage_manager("worm").sync_all()
        removed = db.vacuum(horizon=db.clock.now())
        assert removed["a_T"] == 0
        db.checkpoint()
        assert [t.values for t in db.scan("T", as_of=stamps[0][0])] \
            == [(stamps[0][1],)]
        db.close()
