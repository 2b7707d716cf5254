"""Real-thread stress tests for the concurrent engine.

Where ``test_concurrency.py`` interleaves transactions cooperatively,
these tests run genuinely parallel sessions against one shared
:class:`~repro.db.Database`, hammering the two write paths the lock
manager serializes:

* counter increments — read-modify-write races that lose updates the
  instant an EXCLUSIVE lock is skipped or released early;
* appends to one shared large object — interleaved chunk writes that
  corrupt the byte stream unless writers serialize per object.

Workers retry on :class:`~repro.errors.DeadlockError` (the victim aborts
and goes again), so every planned increment/append eventually lands —
the final state is exact, not probabilistic.

The full-size run (8 threads × 100 transactions) carries the ``stress``
marker: ``pytest -m stress``.  The unmarked smoke variant keeps the same
machinery in every tier-1 run.
"""

import threading

import pytest

from repro.db import Database
from repro.errors import DeadlockError, TransactionError
from repro.txn.locks import LockMode

#: Fixed-width append record: thread id, then per-thread sequence number.
RECORD = "T{:02d}S{:04d};"
RECORD_LEN = len(RECORD.format(0, 0))


def _run_workers(workers, timeout):
    threads = [threading.Thread(target=fn, daemon=True) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads), "worker hung"


def _increment_counter(db, session, tid_box):
    """One read-modify-write transaction under an EXCLUSIVE counter lock."""
    session.begin()
    try:
        # The lock serializes the read with the write; a SHARED relation
        # lock alone would let two sessions read the same version and
        # lose one increment.
        db.locks.acquire(session.txn.xid, ("counter", 0),
                         LockMode.EXCLUSIVE)
        row = db.fetch("counters", tid_box[0], txn=session.txn)
        if row is None:  # another session just replaced it
            row = next(iter(session.scan("counters")))
        tid_box[0] = session.replace("counters", row.tid,
                                     (row.values[0] + 1,))
        session.commit()
        return True
    except (DeadlockError, TransactionError):
        if session.in_transaction:
            session.rollback()
        return False


def _append_record(db, session, designator, record):
    """Append one tagged record to the shared large object."""
    session.begin()
    try:
        with session.lo_open(designator, "rw") as obj:
            # append() re-resolves EOF under the write range lock, so
            # concurrent appenders land exactly once.
            obj.append(record)
        session.commit()
        return True
    except (DeadlockError, TransactionError):
        if session.in_transaction:
            session.rollback()
        return False


def _mixed_workload(db, designator, tid_box, n_threads, txns_per_thread,
                    timeout=120.0):
    """Run the counter/append workload; verify exact final state."""
    failures = []

    def worker(thread_no):
        def run():
            try:
                session = db.session()
                for seq in range(txns_per_thread):
                    if seq % 2 == 0:
                        while not _increment_counter(db, session, tid_box):
                            pass
                    else:
                        record = RECORD.format(thread_no, seq).encode()
                        while not _append_record(db, session, designator,
                                                 record):
                            pass
            except BaseException as exc:  # pragma: no cover - diagnostics
                failures.append((thread_no, exc))
        return run

    _run_workers([worker(i) for i in range(n_threads)], timeout)
    assert not failures, f"workers crashed: {failures}"

    increments_each = (txns_per_thread + 1) // 2
    appends_each = txns_per_thread // 2

    # No lost updates: the counter saw every increment.
    final = [t.values for t in db.scan("counters")]
    assert final == [(n_threads * increments_each,)]

    # Byte-exact appends: every record present exactly once, per-thread
    # order preserved, nothing interleaved mid-record.
    with db.lo.open(designator) as obj:
        data = obj.read()
    assert len(data) == n_threads * appends_each * RECORD_LEN
    per_thread = {i: [] for i in range(n_threads)}
    for at in range(0, len(data), RECORD_LEN):
        record = data[at:at + RECORD_LEN].decode()
        assert record[0] == "T" and record[-1] == ";", record
        per_thread[int(record[1:3])].append(int(record[4:8]))
    for thread_no, seqs in per_thread.items():
        assert seqs == sorted(seqs), f"thread {thread_no} out of order"
        assert seqs == [s for s in range(txns_per_thread) if s % 2 == 1]

    # The lock statistics add up and nothing is left granted or parked.
    stats = db.statistics()
    locks = stats["locks"]
    assert locks["victims"] == locks["deadlocks_detected"]
    assert locks["wait_time"] >= 0.0
    assert locks["deadlocks_detected"] >= 0
    assert stats["transactions"]["active"] == 0
    assert db.locks.grant_table_empty()
    assert db.locks.waiting() == []


@pytest.fixture
def arena(request):
    """One database, one counter row, one shared large object — f-chunk
    unless the test asks for another implementation (indirect param)."""
    db = Database(charge_cpu=False)
    db.create_class("counters", [("value", "int4")])
    with db.begin() as txn:
        tid = db.insert(txn, "counters", (0,))
        designator = db.lo.create(txn, getattr(request, "param", "fchunk"))
    yield db, designator, [tid]
    db.close()


def test_threaded_mixed_workload_smoke(arena):
    """Tier-1 sized: 4 threads × 10 transactions."""
    db, designator, tid_box = arena
    _mixed_workload(db, designator, tid_box, n_threads=4,
                    txns_per_thread=10)


@pytest.mark.stress
def test_threaded_mixed_workload_stress(arena):
    """The acceptance-criteria run: 8 threads × 100 transactions."""
    db, designator, tid_box = arena
    _mixed_workload(db, designator, tid_box, n_threads=8,
                    txns_per_thread=100, timeout=600.0)


def _disjoint_range_workload(db, designator, n_threads, span, timeout=120.0):
    """Writers on disjoint grains of ONE object: parallel, byte-exact."""
    from repro.lo.fchunk import LOCK_GRAIN_CHUNKS
    from repro.storage.constants import CHUNK_PAYLOAD
    grain = CHUNK_PAYLOAD * LOCK_GRAIN_CHUNKS
    waits_before = db.locks.stats.range_waits
    failures = []

    def worker(thread_no):
        def run():
            try:
                session = db.session()
                session.begin()
                with session.lo_open(designator, "rw") as obj:
                    obj.seek(thread_no * grain)
                    obj.write(bytes([thread_no + 1]) * span)
                session.commit()
            except BaseException as exc:  # pragma: no cover - diagnostics
                failures.append((thread_no, exc))
                if session.in_transaction:
                    session.rollback()
        return run

    _run_workers([worker(i) for i in range(n_threads)], timeout)
    assert not failures, f"workers crashed: {failures}"

    # The tentpole claim: disjoint-range writers never queue on the
    # object's range lock — the per-object serialization of the old
    # whole-object EXCLUSIVE lock is gone.  F-chunk only: v-segment
    # writers gap-fill from the EOF and share one byte store whose
    # reserved extents are adjacent, so their range locks legitimately
    # collide; for them only the byte-exactness below is claimed.
    if db.lo.implementation(designator) == "fchunk":
        assert db.locks.stats.range_waits == waits_before

    with db.lo.open(designator) as obj:
        for i in range(n_threads):
            obj.seek(i * grain)
            assert obj.read(span) == bytes([i + 1]) * span
    assert db.locks.grant_table_empty()


def test_disjoint_range_writers_do_not_wait(arena):
    """Tier-1: 4 writers, one object, disjoint grains, zero lock waits."""
    db, designator, _ = arena
    _disjoint_range_workload(db, designator, n_threads=4, span=3000)


@pytest.mark.stress
def test_disjoint_range_writers_stress(arena):
    """Full-size disjoint-range run: 8 writers, grain-sized spans."""
    db, designator, _ = arena
    _disjoint_range_workload(db, designator, n_threads=8, span=40000,
                             timeout=300.0)


@pytest.mark.stress
def test_two_sessions_write_disjoint_chunk_runs_without_waiting(arena):
    """Each 64 KB ``write`` is a chunk run (ISSUE 22): eight chunks under
    one relation lock and one latch hold.  Two sessions send 64 KB-aligned
    runs into their own lock grain of ONE object; while both hold
    uncommitted runs neither has waited for any lock, and every byte
    reads back after both commit."""
    db, designator, _ = arena
    block, calls = 65536, 7
    bases = [0, 8 * block]          # 524,288: the second 512,000-byte grain
    waits_before = db.locks.stats.waits
    both_written = threading.Barrier(2, timeout=120.0)
    waits_at_barrier, failures = [], []

    def worker(number):
        def run():
            session = db.session()
            try:
                session.begin()
                obj = session.lo_open(designator, "rw")
                for call in range(calls):
                    obj.seek(bases[number] + call * block)
                    obj.write(bytes([10 * number + call + 1]) * block)
                both_written.wait()
                waits_at_barrier.append(db.locks.stats.waits)
                both_written.wait()
                obj.close()         # the size-row flush may queue: fine
                session.commit()
            except BaseException as exc:  # pragma: no cover - diagnostics
                failures.append((number, exc))
                both_written.abort()
                if session.in_transaction:
                    session.rollback()
        return run

    _run_workers([worker(0), worker(1)], timeout=300.0)
    assert not failures, f"workers crashed: {failures}"
    assert waits_at_barrier == [waits_before] * 2
    with db.lo.open(designator) as obj:
        for number, base in enumerate(bases):
            for call in range(calls):
                obj.seek(base + call * block)
                assert obj.read(block) == bytes(
                    [10 * number + call + 1]) * block
    assert db.check_integrity() == []
    assert db.locks.grant_table_empty()


def test_size_row_replaced_between_row_read_and_size_lock(arena,
                                                          monkeypatch):
    """The disjoint-range race above, made deterministic: a neighbour
    commits its extension after ``write_size`` read the size row and
    before it holds the ``losize`` lock.  The committer must notice and
    re-read, not replace a row version that is already dead."""
    from repro.lo import metadata
    from repro.lo.fchunk import LOCK_GRAIN_CHUNKS
    from repro.storage.constants import CHUNK_PAYLOAD
    db, designator, _ = arena
    grain = CHUNK_PAYLOAD * LOCK_GRAIN_CHUNKS
    size_row = metadata.size_row
    armed = []

    def size_row_then_neighbour_commits(*args):
        row = size_row(*args)
        if armed:
            armed.clear()
            with db.begin() as neighbour:
                with db.lo.open(designator, neighbour, "rw") as obj:
                    obj.seek(grain)
                    obj.write(b"N" * 10)
        return row

    monkeypatch.setattr(metadata, "size_row",
                        size_row_then_neighbour_commits)
    with db.begin() as txn:
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"V" * 100)
            armed.append(True)  # next size-row read: this close's flush
    assert not armed
    with db.lo.open(designator) as obj:
        assert obj.size() == grain + 10
        assert obj.read(100) == b"V" * 100
        obj.seek(grain)
        assert obj.read() == b"N" * 10


def test_overlapping_writers_conflict(arena):
    """Writers on the SAME range serialize: the second one must wait."""
    db, designator, _ = arena
    waits_before = db.locks.stats.range_waits
    first_locked = threading.Event()
    release_first = threading.Event()
    failures = []

    def holder():
        session = db.session()
        session.begin()
        try:
            with session.lo_open(designator, "rw") as obj:
                obj.write(b"A" * 100)
                first_locked.set()
                assert release_first.wait(60.0), "never released"
            session.commit()
        except BaseException as exc:  # pragma: no cover - diagnostics
            failures.append(("holder", exc))
            if session.in_transaction:
                session.rollback()

    def contender():
        session = db.session()
        assert first_locked.wait(60.0), "holder never locked"
        session.begin()
        try:
            with session.lo_open(designator, "rw") as obj:
                obj.seek(50)  # overlaps the holder's [0, grain) lock
                obj.write(b"B" * 100)
            session.commit()
        except BaseException as exc:  # pragma: no cover - diagnostics
            failures.append(("contender", exc))
            if session.in_transaction:
                session.rollback()

    t_holder = threading.Thread(target=holder, daemon=True)
    t_contender = threading.Thread(target=contender, daemon=True)
    t_holder.start()
    t_contender.start()
    # Wait until the contender actually parks on the range lock, then
    # let the holder commit.
    deadline = 500
    while db.locks.stats.range_waits == waits_before and deadline:
        deadline -= 1
        threading.Event().wait(0.01)
    assert db.locks.stats.range_waits == waits_before + 1
    release_first.set()
    t_holder.join(60.0)
    t_contender.join(60.0)
    assert not (t_holder.is_alive() or t_contender.is_alive())
    assert not failures, f"workers crashed: {failures}"

    # Strict 2PL ordering: the contender's bytes overwrote the holder's
    # on the overlap, and both writes are present elsewhere.
    with db.lo.open(designator) as obj:
        data = obj.read()
    assert data == b"A" * 50 + b"B" * 100


@pytest.mark.parametrize("arena", ["vsegment"], indirect=True)
@pytest.mark.parametrize("case", [test_threaded_mixed_workload_smoke,
                                  test_disjoint_range_writers_do_not_wait,
                                  test_overlapping_writers_conflict],
                         ids=lambda case: case.__name__)
def test_vsegment_arena(arena, case):
    """One protocol, both inputs: the tier-1 cases above, unchanged, on a
    v-segment object."""
    case(arena)


@pytest.mark.stress
def test_threaded_writers_distinct_objects_stress(arena):
    """Writers on distinct objects never wait on each other."""
    db, _, _ = arena
    with db.begin() as txn:
        designators = [db.lo.create(txn, "fchunk") for _ in range(8)]
    failures = []

    def worker(thread_no):
        def run():
            try:
                session = db.session()
                for seq in range(50):
                    record = RECORD.format(thread_no, seq).encode()
                    assert _append_record(db, session, designators[thread_no],
                                          record)
            except BaseException as exc:  # pragma: no cover - diagnostics
                failures.append((thread_no, exc))
        return run

    baseline = db.locks.stats.deadlocks_detected
    _run_workers([worker(i) for i in range(8)], timeout=300.0)
    assert not failures, f"workers crashed: {failures}"
    assert db.locks.stats.deadlocks_detected == baseline
    for thread_no, designator in enumerate(designators):
        with db.lo.open(designator) as obj:
            data = obj.read()
        expected = b"".join(RECORD.format(thread_no, s).encode()
                            for s in range(50))
        assert data == expected


@pytest.mark.parametrize("arena", ["fchunk", "vsegment"], indirect=True)
def test_readers_verify_while_the_sweep_runs(arena):
    """Maintenance is just another latched operation: while the main
    thread alternates overwrite → ``archive_class`` → ``vacuum(horizon)``,
    readers verify a large object and an indexed user class, now and at a
    fixed past instant, through fresh and held descriptors.

    Each sweep's horizon is the writer's last commit: a current-state
    reader whose snapshot predates a version's death still finds it in
    the class, because the sweep's horizon is never later than the
    oldest live snapshot's.
    """
    db, designator, _ = arena
    size, rounds = 20_000, 12
    db.create_class("T", [("k", "int4"), ("v", "int4")])
    db.create_index("T_k", "T", "k")

    def overwrite(generation, commit=True):
        txn = db.begin()
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(bytes([generation]) * size)
        row = next(iter(db.scan("T", txn=txn)), None)
        if row is None:
            db.insert(txn, "T", (1, generation))
        else:
            db.replace(txn, "T", row.tid, (1, generation))
        txn.commit() if commit else txn.abort()
        return db.clock.now()

    stamps = [overwrite(0)]
    past = stamps[0]
    stop = threading.Event()
    mismatches, failures, laps = [], [], []

    def check(what, got, ok):
        if not ok:
            mismatches.append((what, got))

    def uniform(data, generation=None):
        return (len(data) == size and len(set(data)) == 1
                and generation in (None, data[0]))

    def reader():
        held_now = db.lo.open(designator)
        held_past = db.lo.open(designator, as_of=past)
        done = 0
        try:
            while not stop.is_set():
                for obj in (held_now, db.lo.open(designator)):
                    obj.seek(0)
                    data = obj.read(size + 1)
                    check("lo now", data[:4], uniform(data))
                for obj in (held_past, db.lo.open(designator, as_of=past)):
                    obj.seek(0)
                    data = obj.read(size + 1)
                    check("lo past", data[:4], uniform(data, 0))
                rows = [t.values for t in db.scan("T")]
                check("scan now", rows, len(rows) == 1)
                rows = [t.values for t in db.index_lookup("T_k", 1)]
                check("index now", rows, len(rows) == 1)
                rows = [t.values for t in db.scan("T", as_of=past)]
                check("scan past", rows, rows == [(1, 0)])
                rows = [t.values
                        for t in db.index_lookup("T_k", 1, as_of=past)]
                check("index past", rows, rows == [(1, 0)])
                done += 1
        except BaseException as exc:  # LockOrderError included
            failures.append(exc)
        finally:
            laps.append(done)

    threads = [threading.Thread(target=reader, daemon=True)
               for _ in range(3)]
    violations = db.statistics()["lockdep"]["violations"]
    for t in threads:
        t.start()
    try:
        for generation in range(1, rounds + 1):
            stamps.append(overwrite(generation))
            horizon = stamps[generation]
            for name in db.catalog.relation_names():
                if not name.startswith("a_"):
                    db.archive_class(name, horizon=horizon)
            overwrite(99, commit=False)  # aborted versions: vacuum's share
            swept = db.vacuum(horizon=horizon)
            assert sum(swept.values()) > 0
    finally:
        stop.set()
        for t in threads:
            t.join(60)
    assert not any(t.is_alive() for t in threads), "reader hung"
    assert not failures, f"readers crashed: {failures!r}"
    assert mismatches == []
    assert all(laps) and len(laps) == 3
    assert db.statistics()["lockdep"]["violations"] == violations
    assert db.class_exists("a_T")
    assert db.check_integrity() == []


def test_reader_transactions_see_every_commit_they_waited_for(arena):
    """Long reader transactions read the counter statement after
    statement while a writer thread commits increments.  Each keeps its
    snapshot between statements and races every commit's ``_finish``
    (the switch interval is shortened to force interleavings); still each
    statement sees exactly one row, never an older value than the one
    before, and, once the writer has reported a commit, that value or a
    later one."""
    import sys
    db, _, tid_box = arena
    rounds, readers = 60, 2
    reported, failures = [], []

    def writer():
        try:
            session = db.session()
            for value in range(1, rounds + 1):
                while not _increment_counter(db, session, tid_box):
                    pass
                reported.append(value)
        except BaseException as exc:  # pragma: no cover - diagnostics
            failures.append(exc)

    def reader():
        try:
            session = db.session()
            session.begin()
            seen = 0
            while seen < rounds and not failures:
                floor = reported[-1] if reported else 0
                values = [t.values[0] for t in session.scan("counters")]
                assert len(values) == 1, values
                assert values[0] >= max(floor, seen), (floor, seen, values)
                seen = values[0]
            session.commit()
        except BaseException as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _run_workers([writer] + [reader] * readers, timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures
