"""Tests for the integrity checker — and via it, failure injection."""

import pytest

from repro.db import Database


@pytest.fixture
def db():
    database = Database()
    yield database
    database.close()


def populated(db):
    """A database exercising every subsystem."""
    db.execute('create large type image (storage = f-chunk)')
    db.execute('create EMP (name = text, empno = int4, picture = image)')
    db.execute('define index emp_no on EMP (empno)')
    txn = db.begin()
    fchunk = db.lo.create(txn, "fchunk", compression="zero-rle")
    vseg = db.lo.create(txn, "vsegment")
    with db.lo.open(fchunk, txn, "rw") as obj:
        obj.write(bytes(20_000))
    with db.lo.open(vseg, txn, "rw") as obj:
        obj.write(b"seg" * 5000)
    db.execute(f'append EMP (name = "Joe", empno = 1, '
               f'picture = "{fchunk}")', txn)
    txn.commit()
    fs = db.inversion
    with db.begin() as txn:
        fs.mkdir(txn, "/home")
        fs.write_file(txn, "/home/file", b"contents")
    return fchunk, vseg


class TestHealthyDatabase:
    def test_fresh_database_is_clean(self, db):
        assert db.check_integrity() == []

    def test_populated_database_is_clean(self, db):
        populated(db)
        assert db.check_integrity() == []

    def test_clean_after_churn(self, db):
        populated(db)
        db.execute('replace EMP (empno = EMP.empno + 100)')
        db.execute('delete EMP where EMP.empno > 500')
        db.vacuum()
        assert db.check_integrity() == []

    def test_clean_after_archive(self, db):
        populated(db)
        db.execute('replace EMP (empno = 9)')
        db.archive_class("EMP")
        assert db.check_integrity() == []

    def test_clean_after_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        first = Database(path)
        first.create_class("T", [("v", "int4")])
        with first.begin() as txn:
            first.insert(txn, "T", (1,))
        first.close()
        second = Database(path)
        assert second.check_integrity() == []
        second.close()


class TestInjectedCorruption:
    def test_missing_relation_file_detected(self, db):
        db.create_class("T", [("v", "int4")])
        db.storage_manager("disk").unlink("heap_T")
        db.bufmgr.drop_file(db.storage_manager("disk"), "heap_T")
        problems = db.check_integrity()
        assert any("backing file" in p and "'T'" in p for p in problems)

    def test_dangling_index_tid_detected(self, db):
        db.create_class("T", [("v", "int4")])
        db.create_index("t_v", "T", "v")
        index = db.get_index("t_v")
        index.insert((42,), (999, 7))  # no such heap block
        problems = db.check_integrity()
        assert any("dangling" in p for p in problems)

    def test_btree_disorder_detected(self, db):
        db.create_class("T", [("v", "int4")])
        db.create_index("t_v", "T", "v")
        index = db.get_index("t_v")
        # Corrupt the tree by writing an unordered node directly.
        from repro.access.btree import _Node
        node = _Node(is_leaf=True, keys=[(5,), (1,)],
                     values=[(0, 0), (0, 0)])
        root, _height = index._read_meta()
        index._store_node(root, node)
        problems = db.check_integrity()
        assert any("out of order" in p or "t_v" in p for p in problems)

    def test_missing_size_row_detected(self, db):
        fchunk, _vseg = populated(db)
        from repro.db import PG_LARGEOBJECT
        from repro.lo.manager import designator_oid
        oid = designator_oid(fchunk)
        with db.begin() as txn:
            for tup in db.scan(PG_LARGEOBJECT):
                if tup.values[0] == oid:
                    db.delete(txn, PG_LARGEOBJECT, tup.tid)
        problems = db.check_integrity()
        assert any(f"large object {oid}" in p and "size row" in p
                   for p in problems)

    def test_missing_chunk_class_detected(self, db):
        fchunk, _vseg = populated(db)
        from repro.lo.fchunk import chunk_class_name
        from repro.lo.manager import designator_oid
        oid = designator_oid(fchunk)
        db.drop_class(chunk_class_name(oid))
        problems = db.check_integrity()
        assert any(f"large object {oid}" in p and "missing" in p
                   for p in problems)

    def test_dangling_inversion_designator_detected(self, db):
        populated(db)
        # Destroy the storage behind /home/file behind Inversion's back.
        snapshot = db.snapshot()
        storage = db.get_class("STORAGE")
        designator = next(iter(storage.scan(snapshot))).values[1]
        with db.begin() as txn:
            db.lo.unlink(txn, designator)
        problems = db.check_integrity()
        assert any("dangles" in p for p in problems)

    def test_segment_past_store_detected(self, db):
        _fchunk, vseg = populated(db)
        from repro.lo.manager import designator_oid
        from repro.lo.vsegment import segment_class_name
        oid = designator_oid(vseg)
        seg_class = segment_class_name(oid)
        with db.begin() as txn:
            db.insert(txn, seg_class, (10**9, 100, 100, 10**9))
        problems = db.check_integrity()
        assert any("points past" in p for p in problems)

    @pytest.mark.parametrize("record, complaint", [
        ((5_000, 100, 1, 0), "segment at 5000 overlaps the one ending "
                             "at 15000"),
        ((15_000, 70_000, 1, 0), "segment at 15000 has length 70000"),
        ((15_000, 0, 1, 0), "segment at 15000 has length 0"),
        ((15_000, 100, 1, 0), "segment at 15000 ends past the object's "
                              "size (15000+100 > 15000)"),
    ])
    def test_segment_layout_invariant_checked(self, db, record, complaint):
        """What the overlap query's floor probe relies on: visible
        segments are disjoint, bounded and inside the object."""
        _fchunk, vseg = populated(db)
        from repro.lo.manager import designator_oid
        from repro.lo.vsegment import segment_class_name
        assert db.check_integrity() == []
        with db.begin() as txn:
            db.insert(txn, segment_class_name(designator_oid(vseg)), record)
        problems = db.check_integrity()
        assert any(complaint in p for p in problems), problems

    @pytest.mark.parametrize("record, complaint", [
        ((0, b"dup"), "several visible versions of chunk 0"),
        ((3, b"late"), "chunk 3 starts past the object's size (20000)"),
    ])
    def test_chunk_layout_invariant_checked(self, db, record, complaint):
        """What the f-chunk writer's known-TID map and absence baseline
        rely on: one visible version per chunk, none past the size."""
        fchunk, _vseg = populated(db)
        from repro.lo.fchunk import chunk_class_name
        from repro.lo.manager import designator_oid
        assert db.check_integrity() == []
        with db.begin() as txn:
            db.insert(txn, chunk_class_name(designator_oid(fchunk)), record)
        problems = db.check_integrity()
        assert any(complaint in p for p in problems), problems


class TestInversionCorruption:
    """The PR-8 additions to ``_check_inversion``: each injected fault
    must be called out by name."""

    def test_orphan_filestat_detected(self, db):
        populated(db)
        with db.begin() as txn:
            db.insert(txn, "FILESTAT", (99999, "ghost", 0o644,
                                        0.0, 0.0, 0.0))
        problems = db.check_integrity()
        assert any("FILESTAT: orphan row for id 99999" in p
                   for p in problems)

    def test_orphan_storage_detected(self, db):
        fchunk, _vseg = populated(db)
        with db.begin() as txn:
            db.insert(txn, "STORAGE", (99999, fchunk))
        problems = db.check_integrity()
        assert any("STORAGE: orphan row for id 99999" in p
                   for p in problems)

    def test_duplicate_slot_detected(self, db):
        populated(db)
        fs = db.inversion
        snapshot = db.snapshot()
        entry = fs._resolve("/home/file", snapshot)
        with db.begin() as txn:
            db.insert(txn, "DIRECTORY",
                      ("file", 99999, entry.parent_id, "f"))
            db.insert(txn, "FILESTAT", (99999, "x", 0o644, 0.0, 0.0, 0.0))
        problems = db.check_integrity()
        assert any("duplicate entry 'file'" in p for p in problems)

    def test_duplicate_file_id_detected(self, db):
        populated(db)
        fs = db.inversion
        snapshot = db.snapshot()
        entry = fs._resolve("/home/file", snapshot)
        with db.begin() as txn:
            db.insert(txn, "DIRECTORY",
                      ("alias", entry.file_id, entry.parent_id, "f"))
        problems = db.check_integrity()
        assert any("more than one DIRECTORY row" in p for p in problems)

    def test_dead_parent_detected(self, db):
        populated(db)
        with db.begin() as txn:
            db.insert(txn, "DIRECTORY", ("lost", 99999, 88888, "f"))
            db.insert(txn, "FILESTAT", (99999, "x", 0o644, 0.0, 0.0, 0.0))
        problems = db.check_integrity()
        assert any("parent 88888 is not a live directory" in p
                   for p in problems)

    def test_unreachable_cycle_detected(self, db):
        """Two directories parenting each other, detached from the root
        — the corruption the rename cycle-check prevents."""
        populated(db)
        with db.begin() as txn:
            db.insert(txn, "DIRECTORY", ("ouro", 70001, 70002, "d"))
            db.insert(txn, "DIRECTORY", ("boros", 70002, 70001, "d"))
            for fid in (70001, 70002):
                db.insert(txn, "FILESTAT", (fid, "x", 0o755,
                                            0.0, 0.0, 0.0))
        problems = db.check_integrity()
        assert any("unreachable from the root" in p for p in problems)


class TestCrashOrphanRecovery:
    """A crash between the (non-transactional) catalog registration and
    the creating transaction's commit must not leave a phantom large
    object: reopen sweeps it (LargeObjectManager.recover_orphans)."""

    def _crash_mid_create(self, path, impl):
        from repro.errors import SimulatedCrash
        db = Database(path)
        session = db.session()
        session.begin()
        designator = db.lo.create(session.txn, impl)
        with db.lo.open(designator, session.txn, "rw") as obj:
            obj.write(b"doomed")
        db.inject_faults("on append pg_log: crash")
        with pytest.raises(SimulatedCrash):
            session.commit()
        return designator

    @pytest.mark.parametrize("impl", ["fchunk", "vsegment"])
    def test_reopen_sweeps_uncommitted_create(self, tmp_path, impl):
        from repro.lo.manager import designator_oid
        path = str(tmp_path / "db")
        designator = self._crash_mid_create(path, impl)
        oid = designator_oid(designator)
        db = Database(path)  # reopen: recovery sweep runs here
        assert oid not in db.catalog.large_objects
        assert db.check_integrity() == []
        db.close()

    def test_committed_objects_survive_the_sweep(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        with db.begin() as txn:
            keeper = db.lo.create(txn, "fchunk")
            with db.lo.open(keeper, txn, "rw") as obj:
                obj.write(b"keep me")
        db.close()
        self._crash_mid_create(path, "fchunk")
        db = Database(path)
        with db.lo.open(keeper) as obj:
            assert obj.read() == b"keep me"
        assert db.check_integrity() == []
        db.close()

    def test_crashed_inversion_create_is_swept(self, tmp_path):
        from repro.errors import SimulatedCrash
        path = str(tmp_path / "db")
        db = Database(path)
        fs = db.inversion
        with db.begin() as txn:
            fs.write_file(txn, "/keep", b"safe")
        session = db.session()
        session.begin()
        with fs.create(session.txn, "/doomed") as handle:
            handle.write(b"gone")
        db.inject_faults("on append pg_log: crash")
        with pytest.raises(SimulatedCrash):
            session.commit()
        db = Database(path)
        fs = db.inversion
        assert not fs.exists("/doomed")
        assert fs.read_file("/keep") == b"safe"
        assert db.check_integrity() == []
        db.close()


class TestPrefetchApi:
    def test_prefetch_populates_pool(self, db):
        db.create_class("T", [("pad", "text")])
        with db.begin() as txn:
            for i in range(200):
                db.insert(txn, "T", ("x" * 400,))
        db.bufmgr.invalidate_all()
        relation = db.get_class("T")
        fetched = db.bufmgr.prefetch(relation.smgr, relation.fileid, 0, 5)
        assert fetched == 5
        before = db.bufmgr.stats.misses
        with db.bufmgr.page(relation.smgr, relation.fileid, 3):
            pass
        assert db.bufmgr.stats.misses == before  # it was resident

    def test_prefetch_clamps_to_file_end(self, db):
        db.create_class("T", [("v", "int4")])
        with db.begin() as txn:
            db.insert(txn, "T", (1,))
        relation = db.get_class("T")
        db.bufmgr.invalidate_all()
        assert db.bufmgr.prefetch(relation.smgr, relation.fileid,
                                  0, 100) <= relation.nblocks()
