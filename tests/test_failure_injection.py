"""Failure injection: device errors at the worst possible moments.

A fault plan armed on the storage-manager switch fails writes on command;
the tests verify that a device failure during commit or eviction never
produces a state that *looks* committed, and that the database remains
usable (or honestly broken) afterward.
"""

import pytest

from repro.db import Database
from repro.errors import StorageManagerError
from repro.lo.manager import designator_oid
from repro.txn.xlog import TxnStatus

#: Every further block write fails, on every manager.
BAD_DEVICE = "on write *: error"


@pytest.fixture
def db():
    database = Database()
    yield database
    database.clear_faults()  # heal the device for teardown's flush
    database.close()


class TestWriteFailures:
    def test_failure_during_commit_aborts_loudly(self, db):
        db.create_class("T", [("v", "int4")])
        txn = db.begin()
        db.insert(txn, "T", (1,))
        db.inject_faults(BAD_DEVICE)
        with pytest.raises(StorageManagerError):
            txn.commit()
        # The failed commit resolved the transaction: aborted, locks
        # released, no commit record — the session is not left wedged.
        assert db.clog.status(txn.xid) == TxnStatus.ABORTED
        assert not txn.is_active
        assert db.tm.active_count() == 0
        # A detached reader sees nothing from it.
        db.clear_faults()
        assert list(db.scan("T")) == []

    def test_recovery_after_device_heals(self, db):
        db.create_class("T", [("v", "int4")])
        txn = db.begin()
        db.insert(txn, "T", (1,))
        db.inject_faults(BAD_DEVICE)
        with pytest.raises(StorageManagerError):
            txn.commit()  # aborts the transaction as it fails
        db.clear_faults()
        with db.begin() as retry:
            db.insert(retry, "T", (2,))
        assert [t.values for t in db.scan("T")] == [(2,)]

    def test_failure_during_lo_commit(self, db):
        txn = db.begin()
        designator = db.lo.create(txn, "fchunk")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(bytes(50_000))
        plan = db.inject_faults("on write * after 2: error")  # mid-force
        with pytest.raises(StorageManagerError):
            txn.commit()
        assert plan.op_count("write") == 3
        assert db.clog.status(txn.xid) == TxnStatus.ABORTED
        assert not txn.is_active

    def test_failure_during_eviction_surfaces(self):
        """A mid-transaction eviction writeback that fails raises at the
        operation that triggered it — not silently."""
        small = Database(pool_size=8)
        try:
            small.create_class("T", [("pad", "text")])
            small.inject_faults(BAD_DEVICE)
            txn = small.begin()
            with pytest.raises(StorageManagerError):
                for i in range(200):  # overflow the 8-page pool
                    small.insert(txn, "T", ("x" * 2000,))
        finally:
            small.clear_faults()
            small.close()

    def test_reads_unaffected_by_write_failures(self, db):
        db.create_class("T", [("v", "int4")])
        with db.begin() as txn:
            db.insert(txn, "T", (7,))
        db.inject_faults(BAD_DEVICE)
        assert [t.values for t in db.scan("T")] == [(7,)]


class TestCloseFailures:
    def test_failed_flush_still_releases_every_descriptor(self):
        """One descriptor's final flush failing must not leave it — or
        the handles closed after it — counted as open forever (which
        refused ``lo_unlink`` on those objects for the process's life)."""
        db = Database(pool_size=8)
        with db.begin() as txn:
            objects = [db.lo.create(txn), db.lo.create(txn)]
        session = db.session()
        session.begin()
        for designator in objects:
            session.lo_open(designator, "rw").write(b"x" * 100_000)
        # The flush's page allocations overflow the 8-page pool, so its
        # eviction writeback hits the bad device.
        db.inject_faults(BAD_DEVICE)
        with pytest.raises(StorageManagerError):
            session.rollback()
        db.clear_faults()
        for designator in objects:
            assert db.lo.open_descriptors(designator_oid(designator)) == 0
        assert not session.in_transaction  # aborted despite the error
        session.begin()
        for designator in objects:
            session.lo_unlink(designator)
        session.commit()
        assert not any(db.lo.exists(designator) for designator in objects)
        db.close()
