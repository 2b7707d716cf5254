"""Interleaved-transaction stress tests.

Transactions run cooperatively in one process, but the machinery under
test — snapshots, xmax stamping, 2PL, commit ordering — is the real
thing.  These tests interleave many logical transactions and check that
every isolation promise survives.  The deadlock matrix at the bottom
uses real threads: blocked lock requests park, and the wait-for-graph
detector must pick exactly one victim per cycle.
"""

import random
import threading
import time

import pytest

from repro.access.scan import SeqScan
from repro.db import Database
from repro.errors import (DeadlockError, LargeObjectError, LockError,
                          TransactionError)
from repro.txn.locks import LockMode


@pytest.fixture
def db():
    database = Database(charge_cpu=False)
    yield database
    database.close()


class TestInterleavedWriters:
    def test_many_writers_one_class(self, db):
        db.create_class("T", [("writer", "int4"), ("n", "int4")])
        txns = [db.begin() for _ in range(10)]
        rng = random.Random(42)
        work = [(w, n) for w in range(10) for n in range(20)]
        rng.shuffle(work)
        for writer, n in work:
            db.insert(txns[writer], "T", (writer, n))
        # Commit even writers, abort odd ones.
        for i, txn in enumerate(txns):
            if i % 2 == 0:
                txn.commit()
            else:
                txn.abort()
        rows = [t.values for t in db.scan("T")]
        assert len(rows) == 5 * 20
        assert all(writer % 2 == 0 for writer, _ in rows)

    def test_snapshot_stability_under_churn(self, db):
        """A snapshot taken mid-churn sees a frozen world."""
        db.create_class("T", [("n", "int4")])
        with db.begin() as txn:
            for n in range(10):
                db.insert(txn, "T", (n,))
        reader = db.begin()
        frozen = db.snapshot(reader)
        relation = db.get_class("T")

        for round_no in range(5):
            with db.begin() as txn:
                db.insert(txn, "T", (100 + round_no,))
            before = sorted(t.values for t in SeqScan(db, relation).tuples(frozen))
            assert before == [(n,) for n in range(10)]
        reader.commit()

    def test_write_write_conflicts_serialize(self, db):
        db.create_class("T", [("n", "int4")])
        with db.begin() as txn:
            tid = db.insert(txn, "T", (0,))
        winners = 0
        for _ in range(5):
            a, b = db.begin(), db.begin()
            db.replace(a, "T", tid, (1,))
            with pytest.raises(TransactionError):
                db.replace(b, "T", tid, (2,))
            a.abort()  # stamp removed logically: b may retry
            db.replace(b, "T", tid, (3,))
            b.commit()
            tid = next(db.scan("T")).tid
            winners += 1
        assert winners == 5
        assert next(db.scan("T")).values == (3,)

    def test_plain_database_rejects_one_thread_conflict(self):
        """A conflict between two transactions of one thread is rejected
        at once — the paper's no-wait rule — instead of hanging."""
        db = Database(charge_cpu=False)
        db.create_class("T", [("n", "int4")])
        from repro.txn.locks import LockMode
        a = db.begin()
        db.locks.acquire(a.xid, ("relation", "T"), LockMode.EXCLUSIVE)
        b = db.begin()
        with pytest.raises(LockError, match="self-deadlock"):
            db.insert(b, "T", (1,))  # writers take SHARED: conflicts
        a.commit()
        db.insert(b, "T", (1,))  # free after commit
        b.commit()
        db.close()


class TestInterleavedLargeObjects:
    def test_two_writers_different_objects(self, db):
        a, b = db.begin(), db.begin()
        lo_a = db.lo.create(a, "fchunk")
        lo_b = db.lo.create(b, "fchunk")
        with db.lo.open(lo_a, a, "rw") as obj:
            obj.write(b"A" * 10_000)
        with db.lo.open(lo_b, b, "rw") as obj:
            obj.write(b"B" * 10_000)
        a.commit()
        b.abort()
        with db.lo.open(lo_a) as obj:
            assert obj.read(3) == b"AAA"
        assert not db.lo.exists(lo_b)

    def test_reader_isolated_from_concurrent_writer(self, db):
        with db.begin() as txn:
            designator = db.lo.create(txn, "fchunk")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"stable")
        writer = db.begin()
        writer_obj = db.lo.open(designator, writer, "rw")
        writer_obj.seek(0)
        writer_obj.write(b"CHAOS!")
        writer_obj.flush()
        # A detached reader opened mid-write sees the committed state.
        with db.lo.open(designator) as reader_obj:
            assert reader_obj.read() == b"stable"
        writer_obj.close()
        writer.commit()
        with db.lo.open(designator) as reader_obj:
            assert reader_obj.read() == b"CHAOS!"

    def test_interleaved_inversion_transactions(self, db):
        fs = db.inversion
        a, b = db.begin(), db.begin()
        fs.write_file(a, "/from_a", b"a")
        fs.write_file(b, "/from_b", b"b")
        # Neither sees the other's uncommitted file.
        assert fs.listdir("/", txn=a) == ["from_a"]
        assert fs.listdir("/", txn=b) == ["from_b"]
        a.commit()
        b.abort()
        assert fs.listdir("/") == ["from_a"]


class TestUnlinkVsOpenDescriptors:
    """Unlink must not pull relations/files out from under live handles."""

    def test_unlink_chunked_refused_while_reader_open(self, db):
        """The chunk-relation drop is non-transactional DDL; a lock-free
        reader in another session must not lose its relations mid-scan."""
        with db.begin() as txn:
            designator = db.lo.create(txn, "fchunk")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"still being read")
        reader_session = db.session()
        reader_session.begin()
        reader = reader_session.lo_open(designator)
        assert reader.read(5) == b"still"

        unlinker = db.session()
        unlinker.begin()
        with pytest.raises(LargeObjectError,
                           match="open descriptor"):
            unlinker.lo_unlink(designator)
        unlinker.rollback()

        # The reader is unharmed and, once it closes, unlink succeeds.
        assert reader.read() == b" being read"
        reader_session.close()
        unlinker.begin()
        unlinker.lo_unlink(designator)
        unlinker.commit()
        assert not db.lo.exists(designator)

    def test_unlink_native_refused_while_writer_open(self, db):
        """A p-file writer flushes straight to the filesystem: unlinking
        under it would resurrect the file on flush or lose the bytes."""
        with db.begin() as txn:
            designator = db.lo.create(txn, "pfile")
        session = db.session()
        session.begin()
        writer = session.lo_open(designator, "rw")
        writer.write(b"half-written")

        other = db.session()
        other.begin()
        with pytest.raises(LargeObjectError, match="open writer"):
            other.lo_unlink(designator)

        writer.close()
        other.lo_unlink(designator)
        other.commit()
        session.close()
        assert not db.lo.exists(designator)

    def test_user_closed_handle_deregisters_from_session(self, db):
        """A handle the user closes early leaves the session's descriptor
        table: commit does not re-close it, and unlink no longer counts
        it."""
        session = db.session()
        session.begin()
        designator = session.lo_create("fchunk")
        handle = session.lo_open(designator, "rw")
        assert session.handle(handle.fd) is handle
        handle.write(b"brief")
        handle.close()
        handle.close()  # double close stays idempotent
        with pytest.raises(LargeObjectError, match="bad large-object"):
            session.handle(handle.fd)
        # With the handle deregistered, unlink sees no open descriptor.
        session.lo_unlink(designator)
        session.commit()
        assert not db.lo.exists(designator)

    def test_api_fd_names_nothing_after_a_close_whose_flush_raised(self):
        """``LargeObjectApi`` addresses the same table: a ``lo_close``
        whose final flush fails still retires the descriptor (the server
        case is in tests/test_server.py)."""
        from repro.client import LargeObjectApi
        from repro.errors import StorageManagerError
        db = Database(pool_size=8, charge_cpu=False)
        try:
            api = LargeObjectApi(db)
            api.begin()
            fd = api.lo_open(api.lo_creat(), api.INV_WRITE)
            api.lo_write(fd, b"x" * 100_000)
            # From a cold pool the flush's first page read, whichever
            # page it is, hits the bad device.
            db.bufmgr.invalidate_all()
            plan = db.inject_faults("on read *: error")
            with pytest.raises(StorageManagerError):
                api.lo_close(fd)
            assert plan.fired
            db.clear_faults()
            with pytest.raises(LargeObjectError, match="bad large-object"):
                api.lo_tell(fd)
            api.rollback()
        finally:
            db.close()

    def test_unlink_own_open_handle_refused(self, db):
        """Even the owning session cannot unlink under its own handle."""
        session = db.session()
        session.begin()
        designator = session.lo_create("fchunk")
        handle = session.lo_open(designator, "rw")
        with pytest.raises(LargeObjectError, match="open descriptor"):
            session.lo_unlink(designator)
        handle.close()
        session.lo_unlink(designator)
        session.commit()


class TestCommitOrderingAndTime:
    def test_commit_times_strictly_ordered(self, db):
        stamps = []
        for _ in range(20):
            txn = db.begin()
            txn.commit()
            stamps.append(db.clog.commit_time(txn.xid))
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 20

    def test_history_linearizes_by_commit_not_begin(self, db):
        """A txn that began first but committed second is the newer state."""
        db.create_class("T", [("v", "int4")])
        with db.begin() as txn:
            tid = db.insert(txn, "T", (0,))

        early = db.begin()  # begins first
        db.replace(early, "T", tid, (1,))
        early.commit()
        after_early = db.clock.now()

        late = db.begin()
        new_tid = next(db.scan("T")).tid
        db.replace(late, "T", new_tid, (2,))
        late.commit()

        assert [t.values for t in db.scan("T", as_of=after_early)] == [(1,)]
        assert [t.values for t in db.scan("T")] == [(2,)]


class TestDeadlockMatrix:
    """Wait-for cycles of every flavour: one victim, survivors finish.

    Detection is synchronous (the parking waiter walks the wait-for
    graph), so no test here relies on a timeout to break a cycle — the
    generous ``join`` bounds only guard against a hung regression.
    """

    def _race(self, workers, timeout=15.0):
        """Run the worker callables in threads; fail instead of hanging."""
        threads = [threading.Thread(target=fn, daemon=True)
                   for fn in workers]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
        assert not any(t.is_alive() for t in threads), \
            "deadlock was not detected within the bound"

    def _contender(self, db, txn, acquires, outcome, start):
        """Acquire each (resource, mode) in turn; commit, or abort as victim."""
        def run():
            start.wait(10)
            try:
                for resource, mode in acquires:
                    db.locks.acquire(txn.xid, resource, mode)
                txn.commit()
                outcome[txn.xid] = "committed"
            except DeadlockError:
                txn.abort()  # the victim must abort to break the cycle
                outcome[txn.xid] = "aborted"
        return run

    def test_two_cycle_one_victim(self, db):
        a, b = db.begin(), db.begin()
        db.locks.acquire(a.xid, "X", LockMode.EXCLUSIVE)
        db.locks.acquire(b.xid, "Y", LockMode.EXCLUSIVE)
        outcome = {}
        start = threading.Barrier(2)
        self._race([
            self._contender(db, a, [("Y", LockMode.EXCLUSIVE)],
                            outcome, start),
            self._contender(db, b, [("X", LockMode.EXCLUSIVE)],
                            outcome, start),
        ])
        assert sorted(outcome.values()) == ["aborted", "committed"]
        # The victim is the youngest transaction in the cycle.
        assert outcome[max(a.xid, b.xid)] == "aborted"
        assert db.locks.grant_table_empty()
        stats = db.statistics()["locks"]
        assert stats["deadlocks_detected"] == 1
        assert stats["victims"] == 1

    def test_three_cycle_one_victim(self, db):
        txns = [db.begin() for _ in range(3)]
        held = ["X", "Y", "Z"]
        for txn, resource in zip(txns, held):
            db.locks.acquire(txn.xid, resource, LockMode.EXCLUSIVE)
        outcome = {}
        start = threading.Barrier(3)
        self._race([
            self._contender(db, txn, [(held[(i + 1) % 3],
                                       LockMode.EXCLUSIVE)],
                            outcome, start)
            for i, txn in enumerate(txns)
        ])
        assert sorted(outcome.values()) == ["aborted", "committed",
                                            "committed"]
        assert outcome[max(t.xid for t in txns)] == "aborted"
        assert db.locks.grant_table_empty()
        assert db.statistics()["locks"]["victims"] == 1

    def test_upgrade_deadlock(self, db):
        """Two sharers both upgrading is a cycle; one survives upgraded."""
        a, b = db.begin(), db.begin()
        db.locks.acquire(a.xid, "R", LockMode.SHARED)
        db.locks.acquire(b.xid, "R", LockMode.SHARED)
        outcome = {}
        start = threading.Barrier(2)
        self._race([
            self._contender(db, a, [("R", LockMode.EXCLUSIVE)],
                            outcome, start),
            self._contender(db, b, [("R", LockMode.EXCLUSIVE)],
                            outcome, start),
        ])
        assert sorted(outcome.values()) == ["aborted", "committed"]
        assert outcome[max(a.xid, b.xid)] == "aborted"
        assert db.locks.grant_table_empty()
        assert db.statistics()["locks"]["deadlocks_detected"] == 1

    def test_one_edge_closes_two_cycles_every_cycle_victimized(self, db):
        """One wait edge can close several cycles; each needs a victim.

        A 3-way star: two sharers of R each wait on the hub, then the
        hub requests EXCLUSIVE on R, closing *two* cycles at once.  The
        hub is the oldest transaction, so the per-cycle youngest-victim
        rule never picks the common node — without re-detection after
        the first victim, the second cycle would hang forever.
        """
        hub = db.begin()  # lowest xid: never chosen as victim
        spokes = [db.begin(), db.begin()]
        db.locks.acquire(hub.xid, "X0", LockMode.EXCLUSIVE)
        db.locks.acquire(hub.xid, "X1", LockMode.EXCLUSIVE)
        for txn in spokes:
            db.locks.acquire(txn.xid, "R", LockMode.SHARED)
        outcome = {}
        start = threading.Barrier(2)
        threads = [threading.Thread(
            target=self._contender(db, txn, [(f"X{i}", LockMode.EXCLUSIVE)],
                                   outcome, start),
            daemon=True) for i, txn in enumerate(spokes)]
        for t in threads:
            t.start()
        # Both spokes must be parked before the hub's request can close
        # both cycles with a single edge.
        deadline = time.monotonic() + 10
        while len(db.locks.waiting()) < 2:
            assert time.monotonic() < deadline, "spokes never parked"
            time.sleep(0.001)
        db.locks.acquire(hub.xid, "R", LockMode.EXCLUSIVE)
        hub.commit()
        for t in threads:
            t.join(15)
        assert not any(t.is_alive() for t in threads), "residual cycle hung"
        assert sorted(outcome.values()) == ["aborted", "aborted"]
        assert db.locks.grant_table_empty()
        stats = db.statistics()["locks"]
        assert stats["deadlocks_detected"] == 2
        assert stats["victims"] == 2

    def test_large_object_writer_deadlock_end_to_end(self, db):
        """The real write path deadlocks and recovers: two sessions open
        the same two objects write-mode in opposite orders."""
        with db.begin() as txn:
            lo_x = db.lo.create(txn, "fchunk")
            lo_y = db.lo.create(txn, "fchunk")
        outcome = {}
        start = threading.Barrier(2)

        def writer(name, first, second):
            def run():
                session = db.session()
                session.begin()
                try:
                    with session.lo_open(first, "rw") as obj:
                        obj.write(name.encode())
                    start.wait(10)
                    with session.lo_open(second, "rw") as obj:
                        obj.write(name.encode())
                    session.commit()
                    outcome[name] = "committed"
                except DeadlockError:
                    session.rollback()
                    outcome[name] = "aborted"
            return run

        self._race([writer("a", lo_x, lo_y), writer("b", lo_y, lo_x)])
        assert sorted(outcome.values()) == ["aborted", "committed"]
        assert db.locks.grant_table_empty()
        # The survivor's bytes are committed in both objects.
        survivor = next(k for k, v in outcome.items() if v == "committed")
        for designator in (lo_x, lo_y):
            with db.lo.open(designator) as obj:
                assert obj.read().decode() == survivor


class TestSameThreadSelfWait:
    """One thread running two conflicting transactions must not hang.

    The blocker *holds* but never waits, so no wait-for cycle exists for
    the detector; the doomed request has to be refused up front with
    ``LockError`` — the same outcome the old no-wait policy gave this
    pattern.
    """

    def test_direct_conflict_raises_immediately(self, db):
        a, b = db.begin(), db.begin()
        db.locks.acquire(a.xid, "Q", LockMode.EXCLUSIVE)
        with pytest.raises(LockError):
            db.locks.acquire(b.xid, "Q", LockMode.EXCLUSIVE)
        a.commit()
        db.locks.acquire(b.xid, "Q", LockMode.EXCLUSIVE)  # free now
        b.commit()
        assert db.locks.grant_table_empty()

    def test_transitive_conflict_through_a_parked_waiter(self, db):
        """The self-wait may be indirect: b waits on a parked worker that
        in turn waits on a lock this thread holds."""
        a, b = db.begin(), db.begin()
        db.locks.acquire(a.xid, "Q", LockMode.EXCLUSIVE)
        finished = []

        def worker():
            c = db.begin()
            db.locks.acquire(c.xid, "R", LockMode.EXCLUSIVE)
            db.locks.acquire(c.xid, "Q", LockMode.EXCLUSIVE)  # parks
            c.commit()
            finished.append(True)

        t = threading.Thread(target=worker, daemon=True)
        t.start()
        deadline = time.monotonic() + 10
        while not db.locks.waiting("Q"):
            assert time.monotonic() < deadline, "worker never parked"
            time.sleep(0.001)
        with pytest.raises(LockError):
            db.locks.acquire(b.xid, "R", LockMode.EXCLUSIVE)
        b.abort()
        a.commit()  # releases Q; the worker proceeds and finishes
        t.join(10)
        assert not t.is_alive() and finished
        assert db.locks.grant_table_empty()
