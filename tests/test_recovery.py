"""Crash-recovery and durability tests.

The POSTGRES recovery story is the absence of one: no WAL, no redo.  A
transaction either wrote its commit record (and its pages were already
forced) or it never happened.  These tests simulate crashes by abandoning
a Database object at various points and reopening the directory.
"""

import os

from repro.db import Database
from repro.lo.manager import designator_oid


def crash(db: Database) -> None:
    """Abandon the database without any graceful shutdown work.

    Closes the underlying OS handles (so the files can be reopened) but
    performs no flushing — whatever reached the device is whatever the
    force-at-commit discipline already put there.
    """
    for smgr in db.switch.instances():
        close = getattr(smgr, "close", None)
        if close:
            close()
    db.clog.close()
    db.catalog.journal.close()


class TestCommitDurability:
    def test_committed_rows_survive_crash(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.create_class("T", [("v", "int4")])
        with db.begin() as txn:
            db.insert(txn, "T", (1,))
            db.insert(txn, "T", (2,))
        crash(db)
        reopened = Database(path)
        assert sorted(t.values for t in reopened.scan("T")) == [(1,), (2,)]
        reopened.close()

    def test_uncommitted_rows_vanish(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.create_class("T", [("v", "int4")])
        with db.begin() as txn:
            db.insert(txn, "T", (1,))
        limbo = db.begin()
        db.insert(limbo, "T", (99,))
        db.checkpoint()  # even if the dirty pages reached the device...
        crash(db)        # ...no commit record was ever written
        reopened = Database(path)
        assert [t.values for t in reopened.scan("T")] == [(1,)]
        reopened.close()

    def test_uncommitted_delete_undone_by_crash(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.create_class("T", [("v", "int4")])
        with db.begin() as txn:
            tid = db.insert(txn, "T", (7,))
        limbo = db.begin()
        db.delete(limbo, "T", tid)
        db.checkpoint()
        crash(db)
        reopened = Database(path)
        assert [t.values for t in reopened.scan("T")] == [(7,)]
        reopened.close()

    def test_commit_time_survives_for_time_travel(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.create_class("T", [("v", "int4")])
        with db.begin() as txn:
            tid = db.insert(txn, "T", (1,))
        stamp = db.clock.now()
        with db.begin() as txn:
            db.replace(txn, "T", tid, (2,))
        crash(db)
        reopened = Database(path)
        # Historical timestamps recorded in pg_log still resolve.
        assert [t.values for t in reopened.scan("T", as_of=stamp)] == [(1,)]
        assert [t.values for t in reopened.scan("T")] == [(2,)]
        reopened.close()


class TestLargeObjectDurability:
    def test_committed_lo_survives_crash(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        txn = db.begin()
        designator = db.lo.create(txn, "fchunk")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"durable bytes" * 1000)
        txn.commit()
        crash(db)
        reopened = Database(path)
        with reopened.lo.open(designator) as obj:
            assert obj.read() == b"durable bytes" * 1000
        reopened.close()

    def test_uncommitted_lo_writes_vanish(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        txn = db.begin()
        designator = db.lo.create(txn, "fchunk")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"v1")
        txn.commit()
        limbo = db.begin()
        with db.lo.open(designator, limbo, "rw") as obj:
            obj.seek(0)
            obj.write(b"XX")
        db.checkpoint()
        crash(db)
        reopened = Database(path)
        with reopened.lo.open(designator) as obj:
            assert obj.read() == b"v1"
        reopened.close()

    def test_inversion_tree_survives_crash(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        fs = db.inversion
        with db.begin() as txn:
            fs.mkdir(txn, "/etc")
            fs.write_file(txn, "/etc/motd", b"welcome back")
        crash(db)
        reopened = Database(path)
        assert reopened.inversion.read_file("/etc/motd") == b"welcome back"
        reopened.close()

    def test_pfile_contents_survive_in_durable_db(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        with db.begin() as txn:
            designator = db.lo.newfilename(txn)
        with db.lo.open(designator, None, "rw") as obj:
            obj.write(b"native bytes")
        crash(db)
        reopened = Database(path)
        with reopened.lo.open(designator) as obj:
            assert obj.read() == b"native bytes"
        reopened.close()


class TestRepeatedCrashes:
    def test_crash_loop_is_stable(self, tmp_path):
        """Crash after every transaction; nothing decays."""
        path = str(tmp_path / "db")
        db = Database(path)
        db.create_class("LOG", [("n", "int4")])
        crash(db)
        for n in range(5):
            db = Database(path)
            with db.begin() as txn:
                db.insert(txn, "LOG", (n,))
            limbo = db.begin()
            db.insert(limbo, "LOG", (1000 + n,))  # never commits
            crash(db)
        final = Database(path)
        assert sorted(t.values for t in final.scan("LOG")) == \
            [(n,) for n in range(5)]
        final.close()

    def test_xids_never_reused_across_crashes(self, tmp_path):
        path = str(tmp_path / "db")
        seen = set()
        for _ in range(3):
            db = Database(path)
            for _ in range(10):
                txn = db.begin()
                assert txn.xid not in seen
                seen.add(txn.xid)
                txn.abort()
            crash(db)


class TestTornCatalogTail:
    """A crash mid-append leaves a torn last line in ``catalog.journal``.
    Reopen must cut it: a record appended behind it would join it into one
    unparseable line, and the next replay would stop there, losing every
    class and object created since."""

    def test_objects_created_after_the_tear_survive(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        with db.begin() as txn:
            first = db.lo.create(txn, "fchunk")
        crash(db)
        with open(os.path.join(path, "catalog.journal"), "ab") as fh:
            fh.write(b'{"action": "oid_h')  # what a crash mid-append leaves
        db = Database(path)
        payload = bytes(range(250)) * 64  # 16,000 bytes: two chunks
        with db.begin() as txn:
            designator = db.lo.create(txn, "fchunk")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(payload)
        db.create_class("AFTER", [("v", "int4")])
        db.close()

        db = Database(path)
        assert db.lo.exists(designator) and db.class_exists("AFTER")
        with db.lo.open(designator) as obj:
            assert obj.read() == payload
        with db.begin() as txn:
            fresh = db.lo.create(txn, "fchunk")
        assert designator_oid(fresh) > max(designator_oid(first),
                                           designator_oid(designator))
        assert db.check_integrity() == []
        db.close()


class TestTimeAfterReopen:
    def test_a_commit_after_a_reopen_is_later_than_the_log(self, tmp_path):
        """The clock resumes above the replayed log: a commit after a
        reopen is stamped later than every commit before it, so a read as
        of any earlier commit still finds one version of each chunk and
        the bytes committed at that instant."""
        path = str(tmp_path / "db")
        db = Database(path)
        with db.begin() as txn:
            designator = db.lo.create(txn, "fchunk")
        committed = []                      # (commit time, byte written)
        for generation in range(20):
            with db.begin() as txn:
                with db.lo.open(designator, txn, "rw") as obj:
                    obj.write(bytes([generation]) * 80_000)
            committed.append((db.clog.commit_time(txn.xid), generation))
        db.close()
        db = Database(path)
        with db.begin() as txn:             # short: the clock barely moves
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(bytes([99]) * 100)
        assert db.clog.commit_time(txn.xid) > max(committed)[0]
        for instant, generation in committed:
            with db.lo.open(designator, as_of=instant) as obj:
                assert obj.read(80_000) == bytes([generation]) * 80_000
        db.close()
