"""Unit tests for the commit log, locks, snapshots, and transactions."""

import threading
import types

import pytest

from repro.errors import LockError, TransactionError
from repro.sim import SimClock
from repro.storage import BufferManager
from repro.storage.constants import INVALID_XID
from repro.txn import (
    CommitLog,
    LockManager,
    LockMode,
    Snapshot,
    TransactionManager,
    TxnStatus,
)


@pytest.fixture
def clog():
    return CommitLog()


@pytest.fixture
def tm(clog):
    return TransactionManager(clog, BufferManager(pool_size=8),
                              LockManager(), SimClock())


class TestCommitLog:
    def test_xids_are_unique_and_increasing(self, clog):
        xids = [clog.allocate_xid() for _ in range(10)]
        assert xids == sorted(set(xids))

    def test_fresh_xid_in_progress(self, clog):
        xid = clog.allocate_xid()
        assert clog.status(xid) == TxnStatus.IN_PROGRESS

    def test_commit(self, clog):
        xid = clog.allocate_xid()
        clog.set_committed(xid, 42.0)
        assert clog.is_committed(xid)
        assert clog.commit_time(xid) == 42.0

    def test_abort(self, clog):
        xid = clog.allocate_xid()
        clog.set_aborted(xid)
        assert clog.status(xid) == TxnStatus.ABORTED

    def test_double_commit_rejected(self, clog):
        xid = clog.allocate_xid()
        clog.set_committed(xid, 1.0)
        with pytest.raises(TransactionError):
            clog.set_committed(xid, 2.0)
        with pytest.raises(TransactionError):
            clog.set_aborted(xid)

    def test_unknown_xid_is_aborted(self, clog):
        assert clog.status(99999) == TxnStatus.ABORTED

    def test_invalid_xid_rejected(self, clog):
        with pytest.raises(TransactionError):
            clog.status(INVALID_XID)

    def test_commit_time_of_uncommitted_rejected(self, clog):
        xid = clog.allocate_xid()
        with pytest.raises(TransactionError):
            clog.commit_time(xid)

    def test_persistence_roundtrip(self, tmp_path):
        path = str(tmp_path / "pg_log")
        log = CommitLog(path)
        a = log.allocate_xid()
        b = log.allocate_xid()
        c = log.allocate_xid()
        log.set_committed(a, 10.5)
        log.set_aborted(b)
        log.close()  # c never decided: crash
        reopened = CommitLog(path)
        assert reopened.is_committed(a)
        assert reopened.commit_time(a) == 10.5
        assert reopened.status(b) == TxnStatus.ABORTED
        assert reopened.status(c) == TxnStatus.ABORTED  # crash semantics
        assert reopened.allocate_xid() > c
        reopened.close()

    def test_torn_tail_ignored(self, tmp_path):
        path = str(tmp_path / "pg_log")
        log = CommitLog(path)
        a = log.allocate_xid()
        log.set_committed(a, 1.0)
        log.close()
        with open(path, "ab") as fh:
            fh.write(b"\x01\x02\x03")  # torn partial record
        reopened = CommitLog(path)
        assert reopened.is_committed(a)
        reopened.close()


class TestLockManager:
    def test_shared_locks_coexist(self):
        locks = LockManager()
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(2, "r", LockMode.SHARED)
        assert locks.holds(1, "r") and locks.holds(2, "r")

    def test_exclusive_conflicts_with_shared(self):
        locks = LockManager()
        locks.acquire(1, "r", LockMode.SHARED)
        with pytest.raises(LockError):
            locks.acquire(2, "r", LockMode.EXCLUSIVE)

    def test_shared_conflicts_with_exclusive(self):
        locks = LockManager()
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        with pytest.raises(LockError):
            locks.acquire(2, "r", LockMode.SHARED)

    def test_reacquire_is_noop(self):
        locks = LockManager()
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(1, "r", LockMode.SHARED)

    def test_upgrade_when_alone(self):
        locks = LockManager()
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        assert locks.holds(1, "r", LockMode.EXCLUSIVE)

    def test_upgrade_blocked_by_other_sharer(self):
        locks = LockManager()
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(2, "r", LockMode.SHARED)
        with pytest.raises(LockError):
            locks.acquire(1, "r", LockMode.EXCLUSIVE)

    def test_exclusive_implies_shared(self):
        locks = LockManager()
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        assert locks.holds(1, "r", LockMode.SHARED)
        locks.acquire(1, "r", LockMode.SHARED)  # no downgrade, no error
        assert locks.holds(1, "r", LockMode.EXCLUSIVE)

    def test_release_all(self):
        locks = LockManager()
        locks.acquire(1, "a", LockMode.SHARED)
        locks.acquire(1, "b", LockMode.EXCLUSIVE)
        assert locks.release_all(1) == 2
        locks.acquire(2, "b", LockMode.EXCLUSIVE)  # now free

    def test_release_returns_zero_when_nothing_held(self):
        assert LockManager().release_all(7) == 0

    def test_one_thread_conflict_is_rejected_without_parking(self):
        # The only rejection path: the holder is controlled by the very
        # thread that would park, so waiting could never end.
        locks = LockManager()
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        waits = locks.stats.waits
        with pytest.raises(LockError, match="self-deadlock"):
            locks.acquire(2, "r", LockMode.SHARED)
        assert locks.waiting() == []
        assert locks.stats.waits == waits
        assert locks.holders("r") == {1: LockMode.EXCLUSIVE}

    def test_other_thread_conflict_parks_until_release(self):
        locks = LockManager()
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        granted = threading.Event()

        def request():
            locks.acquire(2, "r", LockMode.SHARED)
            granted.set()

        thread = threading.Thread(target=request, daemon=True)
        thread.start()
        deadline = 100
        while not locks.waiting() and deadline:
            deadline -= 1
            threading.Event().wait(0.01)
        assert locks.waiting() == [(2, "r", LockMode.SHARED)]
        assert not granted.is_set()
        locks.release_all(1)
        thread.join(10.0)
        assert granted.is_set()
        assert locks.holds(2, "r", LockMode.SHARED)
        assert locks.stats.waits == 1
        locks.release_all(2)
        assert locks.grant_table_empty()


class TestSnapshotVisibility:
    def test_own_insert_visible(self, clog):
        xid = clog.allocate_xid()
        snap = Snapshot(xid=xid)
        assert snap.is_visible(xid, INVALID_XID, clog)

    def test_committed_insert_visible(self, clog):
        writer = clog.allocate_xid()
        clog.set_committed(writer, 1.0)
        snap = Snapshot(xid=clog.allocate_xid())
        assert snap.is_visible(writer, INVALID_XID, clog)

    def test_aborted_insert_invisible(self, clog):
        writer = clog.allocate_xid()
        clog.set_aborted(writer)
        snap = Snapshot(xid=clog.allocate_xid())
        assert not snap.is_visible(writer, INVALID_XID, clog)

    def test_concurrent_insert_invisible_even_after_commit(self, clog):
        writer = clog.allocate_xid()
        snap = Snapshot(xid=clog.allocate_xid(),
                        active_xids=frozenset({writer}))
        clog.set_committed(writer, 1.0)
        assert not snap.is_visible(writer, INVALID_XID, clog)

    def test_committed_delete_invisible(self, clog):
        writer = clog.allocate_xid()
        deleter = clog.allocate_xid()
        clog.set_committed(writer, 1.0)
        clog.set_committed(deleter, 2.0)
        snap = Snapshot(xid=clog.allocate_xid())
        assert not snap.is_visible(writer, deleter, clog)

    def test_own_delete_invisible(self, clog):
        writer = clog.allocate_xid()
        clog.set_committed(writer, 1.0)
        xid = clog.allocate_xid()
        snap = Snapshot(xid=xid)
        assert not snap.is_visible(writer, xid, clog)

    def test_aborted_delete_still_visible(self, clog):
        writer = clog.allocate_xid()
        deleter = clog.allocate_xid()
        clog.set_committed(writer, 1.0)
        clog.set_aborted(deleter)
        snap = Snapshot(xid=clog.allocate_xid())
        assert snap.is_visible(writer, deleter, clog)


class TestTimeTravel:
    def test_version_selected_by_timestamp(self, clog):
        v1 = clog.allocate_xid()
        v2 = clog.allocate_xid()
        clog.set_committed(v1, 10.0)
        clog.set_committed(v2, 20.0)
        # Version 1 lives [10, 20); version 2 lives [20, inf).
        at_15 = Snapshot(xid=0, as_of=15.0)
        at_25 = Snapshot(xid=0, as_of=25.0)
        assert at_15.is_visible(v1, v2, clog)
        assert not at_15.is_visible(v2, INVALID_XID, clog)
        assert not at_25.is_visible(v1, v2, clog)
        assert at_25.is_visible(v2, INVALID_XID, clog)

    def test_before_creation_nothing_visible(self, clog):
        v1 = clog.allocate_xid()
        clog.set_committed(v1, 10.0)
        snap = Snapshot(xid=0, as_of=5.0)
        assert not snap.is_visible(v1, INVALID_XID, clog)

    def test_uncommitted_delete_keeps_version_alive(self, clog):
        v1 = clog.allocate_xid()
        deleter = clog.allocate_xid()
        clog.set_committed(v1, 10.0)
        snap = Snapshot(xid=0, as_of=15.0)
        assert snap.is_visible(v1, deleter, clog)

    def test_travel_ignores_own_uncommitted_work(self, clog):
        mine = clog.allocate_xid()
        snap = Snapshot(xid=mine, as_of=100.0)
        assert not snap.is_visible(mine, INVALID_XID, clog)


class TestTransactionManager:
    def test_commit_records_status_and_time(self, tm, clog):
        txn = tm.begin()
        txn.commit()
        assert clog.is_committed(txn.xid)
        assert clog.commit_time(txn.xid) > 0

    def test_abort(self, tm, clog):
        txn = tm.begin()
        txn.abort()
        assert clog.status(txn.xid) == TxnStatus.ABORTED

    def test_commit_twice_rejected(self, tm):
        txn = tm.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_context_manager_commits(self, tm, clog):
        with tm.begin() as txn:
            pass
        assert clog.is_committed(txn.xid)

    def test_context_manager_aborts_on_error(self, tm, clog):
        with pytest.raises(RuntimeError):
            with tm.begin() as txn:
                raise RuntimeError("boom")
        assert clog.status(txn.xid) == TxnStatus.ABORTED

    def test_commit_releases_locks(self, tm):
        txn = tm.begin()
        tm.locks.acquire(txn.xid, "r", LockMode.EXCLUSIVE)
        txn.commit()
        other = tm.begin()
        tm.locks.acquire(other.xid, "r", LockMode.EXCLUSIVE)
        other.commit()

    def test_snapshot_excludes_concurrent(self, tm):
        a = tm.begin()
        b = tm.begin()
        snap = tm.snapshot(a)
        assert b.xid in snap.active_xids
        assert a.xid not in snap.active_xids
        a.commit()
        b.commit()

    def test_commit_hooks_run(self, tm):
        ran = []
        txn = tm.begin()
        txn.on_commit.append(lambda: ran.append("commit"))
        txn.on_abort.append(lambda: ran.append("abort"))
        txn.commit()
        assert ran == ["commit"]

    def test_abort_hooks_run(self, tm):
        ran = []
        txn = tm.begin()
        txn.on_abort.append(lambda: ran.append("abort"))
        txn.abort()
        assert ran == ["abort"]

    def test_hook_failure_reported(self, tm):
        txn = tm.begin()
        txn.on_commit.append(lambda: 1 / 0)
        with pytest.raises(TransactionError):
            txn.commit()

    def test_active_count(self, tm):
        a = tm.begin()
        b = tm.begin()
        assert tm.active_count() == 2
        a.commit()
        b.abort()
        assert tm.active_count() == 0

    def test_require_transaction(self, tm):
        from repro.errors import NoActiveTransaction
        with pytest.raises(NoActiveTransaction):
            tm.require_transaction(None)
        txn = tm.begin()
        assert tm.require_transaction(txn) is txn
        txn.commit()

    def test_touch_deduplicates(self, tm):
        txn = tm.begin()
        smgr = types.SimpleNamespace(smgr_id="fake#1")
        txn.touch(smgr, "f")
        txn.touch(smgr, "f")
        assert len(txn.touched) == 1
        txn.abort()

    def test_touch_keys_by_smgr_id_not_object_identity(self, tm):
        """Two handles with the same stable identity dedupe; two managers
        with distinct identities do not (the frame-key contract)."""
        txn = tm.begin()
        txn.touch(types.SimpleNamespace(smgr_id="disk#1"), "f")
        txn.touch(types.SimpleNamespace(smgr_id="disk#1"), "f")
        txn.touch(types.SimpleNamespace(smgr_id="disk#2"), "f")
        assert len(txn.touched) == 2
        txn.abort()


def _fresh(tm, txn):
    """What a snapshot built now decides for *txn*: the reference a kept
    one must match, built from the active set without touching it."""
    return Snapshot(xid=txn.xid, xid_ceiling=tm.clog.next_xid,
                    active_xids=frozenset(x for x in tm._active
                                          if x != txn.xid))


def _decisions(snapshot, clog, xids):
    """Every decision *snapshot* makes over *xids*, as inserter and as
    deleter of a version the other stamps could not hide."""
    return [(snapshot.is_visible(x, INVALID_XID, clog),
             snapshot.sees_deletion(x, clog)) for x in xids]


class TestKeptSnapshot:
    """A transaction's current snapshot is handed back while no
    transaction has left the active set since it was taken; it must
    decide every xid as a fresh one would."""

    def test_handed_back_while_no_transaction_ends(self, tm, clog):
        reader = tm.begin()
        first = tm.snapshot(reader)
        assert tm.snapshot(reader) is first
        late = tm.begin()                       # a begin changes nothing
        assert tm.snapshot(reader) is first
        xids = range(reader.xid - 1, clog.next_xid + 2)
        assert _decisions(first, clog, xids) == \
            _decisions(_fresh(tm, reader), clog, xids)
        late.commit()                           # begun since, now ended
        assert tm.snapshot(reader).is_visible(late.xid, INVALID_XID, clog)
        reader.commit()

    @pytest.mark.parametrize("outcome", ["commit", "abort"])
    def test_a_statement_after_another_ends_sees_its_outcome(
            self, tm, clog, outcome):
        writer = tm.begin()
        reader = tm.begin()
        before = tm.snapshot(reader)
        assert not before.is_visible(writer.xid, INVALID_XID, clog)
        getattr(writer, outcome)()
        after = tm.snapshot(reader)
        assert after is not before
        assert after.is_visible(writer.xid, INVALID_XID, clog) \
            == (outcome == "commit")
        assert after.sees_deletion(writer.xid, clog) == (outcome == "commit")
        assert tm.snapshot(reader) is after
        reader.commit()

    def test_the_readers_own_writes_stay_visible(self, tm, clog):
        reader = tm.begin()
        for _ in range(2):
            kept = tm.snapshot(reader)
            assert kept.is_visible(reader.xid, INVALID_XID, clog)
            assert kept.sees_deletion(reader.xid, clog)
        tm.begin().commit()
        assert tm.snapshot(reader).is_visible(reader.xid, INVALID_XID, clog)
        reader.commit()

    def test_the_first_snapshot_sets_the_bound(self, tm):
        early = tm.begin()
        reader = tm.begin()
        tm.snapshot(reader)
        assert reader.xid_bound == early.xid
        early.commit()
        tm.snapshot(reader)
        assert reader.xid_bound == early.xid    # later ones never lower it
        reader.commit()

    def test_as_of_and_detached_snapshots_are_never_reused(self, tm):
        reader = tm.begin()
        current = tm.snapshot(reader)
        views = [tm.snapshot(reader, as_of=1.0),
                 tm.snapshot(reader, as_of=1.0), tm.snapshot(), tm.snapshot()]
        assert len({id(view) for view in views}) == 4
        assert all(view is not current for view in views)
        assert len(tm._views) == 4              # each registers its own view
        assert tm.snapshot(reader) is current
        reader.commit()

    def test_a_snapshot_taken_while_a_committer_is_still_active(
            self, tm, clog, monkeypatch):
        """Between ``set_committed`` and ``_finish`` the committer is
        still active: a snapshot then hides it, and the next statement
        after ``_finish`` must not be handed that one back (the commit
        log's visibility epoch does not move in between)."""
        writer = tm.begin()
        reader = tm.begin()
        tm.snapshot(reader)
        finish, between = tm._finish, []

        def finishing(txn, hooks):
            between.append((clog.visibility_epoch, tm.snapshot(reader)))
            finish(txn, hooks)

        monkeypatch.setattr(tm, "_finish", finishing)
        writer.commit()
        epoch, mid = between[0]
        assert clog.is_committed(writer.xid)
        assert not mid.is_visible(writer.xid, INVALID_XID, clog)
        assert clog.visibility_epoch == epoch
        after = tm.snapshot(reader)
        assert after.is_visible(writer.xid, INVALID_XID, clog)
        reader.commit()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_histories_decide_as_fresh_snapshots(self, tm, clog,
                                                        seed):
        import random
        rng = random.Random(seed)
        active = []
        for _ in range(300):
            action = rng.random()
            if action < 0.3 or not active:
                active.append(tm.begin())
            elif action < 0.5:
                txn = active.pop(rng.randrange(len(active)))
                if rng.random() < 0.6:
                    txn.commit()
                else:
                    txn.abort()
            else:
                reader = rng.choice(active)
                xids = range(1, clog.next_xid + 2)
                assert _decisions(tm.snapshot(reader), clog, xids) == \
                    _decisions(_fresh(tm, reader), clog, xids)
        for txn in active:
            txn.abort()


class TestSnapshotCeiling:
    """Transactions that begin after a snapshot must stay invisible."""

    def test_later_xid_invisible_even_after_commit(self, clog):
        snap_ceiling = clog.next_xid
        snap = Snapshot(xid=0, xid_ceiling=snap_ceiling)
        late = clog.allocate_xid()
        clog.set_committed(late, 1.0)
        assert not snap.is_visible(late, INVALID_XID, clog)

    def test_manager_snapshots_carry_ceiling(self, tm, clog):
        snap = tm.snapshot()
        late = tm.begin()
        late.commit()
        assert not snap.is_visible(late.xid, INVALID_XID, clog)

    def test_time_travel_ignores_ceiling(self, clog):
        """Historical visibility is governed by commit times alone."""
        writer = clog.allocate_xid()
        clog.set_committed(writer, 5.0)
        snap = Snapshot(xid=0, as_of=10.0, xid_ceiling=writer)  # below!
        assert snap.is_visible(writer, INVALID_XID, clog)
