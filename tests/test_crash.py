"""Crash-safe commit path: the fault-injection matrix and its plumbing.

The POSTGRES commit discipline — force dirty pages, then append one record
to ``pg_log`` — is only as good as its behaviour when the process dies
between (or inside) those steps.  These tests drive a committing
transaction into scripted faults at every interesting point:

* **pre-flush** — die before any page reaches the device;
* **mid-flush** — die with some of the transaction's pages forced;
* **torn-page** — a page write persists only a 512-byte prefix;
* **pre-log** — every page forced, die before the ``pg_log`` append;
* **torn-log** — the commit record itself persists only a prefix;
* **size-row** — die writing the shared ``pg_largeobject`` page that holds
  the object's size row (reachable because the plan lives in the switch,
  so it covers system classes too, not only the object's own files).

After each crash the database directory is reopened cold and the same
invariants must hold: committed large-object bytes intact byte for byte,
the crashed transaction invisible, time travel unaffected, and the
crashed xid never reissued.

The smaller classes below cover the plan DSL, a plan armed on a bare
manager, and the durability bugs this PR fixes (each written to fail on the seed code).
"""

import os
import re

import pytest

from repro.db import Database
from repro.errors import (
    ChecksumError,
    LockError,
    SimulatedCrash,
    StorageManagerError,
)
from repro.lo.manager import designator_oid
from repro.sim.clock import SimClock
from repro.sim.devices import CpuModel
from repro.sim.faults import FaultPlan, parse_plan
from repro.smgr.memory import MemoryStorageManager
from repro.storage.buffer import _MISS_INSTRUCTIONS, BufferManager
from repro.storage.constants import CHUNK_PAYLOAD, PAGE_SIZE
from repro.txn.locks import LockMode
from repro.txn.xlog import TxnStatus


def crash(db: Database) -> None:
    """Abandon the database as a dead process would: no flushing."""
    for smgr in db.switch.instances():
        close = getattr(smgr, "close", None)
        if close:
            close()
    db.clog.close()
    db.catalog.journal.close()


def pattern_bytes(n: int, seed: int) -> bytes:
    """Deterministic non-repeating filler so torn reads cannot pass."""
    unit = bytes((i * seed + seed) % 251 + 1 for i in range(997))
    return (unit * (n // len(unit) + 1))[:n]


#: Two committed batches (exact chunk multiples, so a later append starts
#: on a fresh page) and one batch that is never allowed to commit.
B0 = pattern_bytes(3 * CHUNK_PAYLOAD, 3)
B1 = pattern_bytes(2 * CHUNK_PAYLOAD, 5)
JUNK = pattern_bytes(3 * CHUNK_PAYLOAD + 123, 7)


def seeded_db(path: str, impl: str, base: str = "disk"):
    """A durable database with one LO holding B0 + B1 over two commits.

    ``base`` picks the storage manager the object lives on: the plain
    local ``disk`` manager or the replicated ``sharded`` one — the whole
    crash matrix must hold no matter where the blocks live.
    """
    db = Database(path)
    txn = db.begin()
    designator = db.lo.create(txn, impl, smgr=base)
    with db.lo.open(designator, txn, "rw") as obj:
        obj.write(B0)
    txn.commit()
    stamp0 = db.clock.now()  # between the commits: sees B0 only
    txn = db.begin()
    with db.lo.open(designator, txn, "rw") as obj:
        obj.seek(0, 2)
        obj.write(B1)
    txn.commit()
    return db, designator, stamp0


def chunk_fileid(db: Database, designator: str) -> str:
    """The heap file holding the object's bytes (the store for v-segment)."""
    oid = designator_oid(designator)
    entry = db.catalog.get_large_object(oid)
    if entry.impl == "vsegment":
        return f"heap_lo_{entry.detail['store_oid']}"
    return f"heap_lo_{oid}"


#: Injection point -> plan text (given the object's chunk heap file).
INJECTION_POINTS = {
    "pre-flush": lambda cf: "on write *: crash",
    "mid-flush": lambda cf: f"on write {cf} after 1: crash",
    "torn-page": lambda cf: f"on write {cf} after 1: torn 512",
    "pre-log": lambda cf: "on append pg_log: crash",
    "torn-log": lambda cf: "on append pg_log: torn 12",
    "size-row": lambda cf: "on write heap_pg_largeobject: crash",
}


def crashed_commit_never_happened(tmp_path, impl, point, base,
                                  junk=JUNK):
    """Die at *point* committing an append of *junk*; reopen cold and
    check every invariant in the module docstring."""
    path = str(tmp_path / "db")
    db, designator, stamp0 = seeded_db(path, impl, base)
    cf = chunk_fileid(db, designator)

    txn = db.begin()
    crashed_xid = txn.xid
    with db.lo.open(designator, txn, "rw") as obj:
        obj.seek(0, 2)
        obj.write(junk)
    plan = db.inject_faults(INJECTION_POINTS[point](cf))
    with pytest.raises(SimulatedCrash):
        txn.commit()
    assert plan.fired, "the scripted fault never fired"
    crash(db)

    reopened = Database(path)
    # Committed bytes intact, byte for byte; the junk is invisible.
    with reopened.lo.open(designator) as obj:
        assert obj.read() == B0 + B1
    assert reopened.lo.stat(designator)["size"] == len(B0) + len(B1)
    # Time travel is unaffected by the crash.
    with reopened.lo.open(designator, as_of=stamp0) as obj:
        assert obj.read() == B0
    # The crashed transaction never committed...
    assert reopened.clog.status(crashed_xid) != TxnStatus.COMMITTED
    # ...and its xid is never handed out again.
    retry = reopened.begin()
    assert retry.xid > crashed_xid

    if point == "torn-page":
        # Without a WAL a torn page is permanent damage; the invariant
        # is honest detection: the checksum refuses the page rather
        # than serving half-written bytes.  (Committed reads above
        # never touch it — the crashed index entries were never
        # forced, so nothing durable points there.)
        torn_block = int(
            re.search(r"block (\d+)", plan.fired[0]).group(1))
        smgr = reopened.storage_manager(base)
        with pytest.raises(ChecksumError):
            reopened.bufmgr.pin(smgr, cf, torn_block)
        retry.abort()
    else:
        # The database stays fully usable: redo the append.
        with reopened.lo.open(designator, retry, "rw") as obj:
            obj.seek(0, 2)
            obj.write(junk)
        retry.commit()
        with reopened.lo.open(designator) as obj:
            assert obj.read() == B0 + B1 + junk
    reopened.close()


@pytest.mark.faults
@pytest.mark.parametrize("base", ["disk", "sharded"])
@pytest.mark.parametrize("impl", ["fchunk", "vsegment"])
@pytest.mark.parametrize("point", sorted(INJECTION_POINTS))
class TestCrashMatrix:
    def test_crashed_commit_never_happened(self, tmp_path, impl, point,
                                           base):
        crashed_commit_never_happened(tmp_path, impl, point, base)


@pytest.mark.faults
@pytest.mark.parametrize("impl", ["fchunk", "vsegment"])
@pytest.mark.parametrize("point", ["torn-page", "pre-log"])
def test_crashed_transaction_is_a_single_64k_write(tmp_path, impl, point):
    """The crashed transaction is one 64 KB ``write``: eight whole chunks
    placed, indexed and forced as one run (ISSUE 22), so the page a torn
    write hits, and every page forced before the lost ``pg_log`` append,
    is a run's."""
    crashed_commit_never_happened(tmp_path, impl, point, "disk",
                                  junk=pattern_bytes(65536, 11))


def crash_during_commit(db: Database, designator: str, offset: int,
                        data: bytes, plan: str) -> None:
    """Write *data* at *offset* of the object, then die committing it
    where *plan* says."""
    txn = db.begin()
    with db.lo.open(designator, txn, "rw") as obj:
        obj.seek(offset)
        obj.write(data)
    armed = db.inject_faults(plan)
    with pytest.raises(SimulatedCrash):
        txn.commit()
    assert armed.fired
    crash(db)


def committed_object(path: str, impl: str, data: bytes,
                     call: int | None = None):
    """A durable database holding one committed object of *data*, written
    in calls of *call* bytes (one call by default)."""
    db = Database(path)
    call = call or len(data)
    with db.begin() as txn:
        designator = db.lo.create(txn, impl)
        with db.lo.open(designator, txn, "rw") as obj:
            for at in range(0, len(data), call):
                obj.write(data[at:at + call])
    return db, designator


def catalog_names(db: Database) -> tuple[set, set, set]:
    """The cataloged large objects, classes and indexes."""
    catalog = db.catalog
    return (set(catalog.large_objects), set(catalog.relations),
            set(catalog.indexes))


@pytest.mark.faults
@pytest.mark.parametrize("impl", ["fchunk", "vsegment"])
def test_crash_at_every_catalog_append_of_a_create(tmp_path, impl):
    """Die at each catalog append of one create, whole or torn: the
    committed object survives, the create leaves no large object, class
    or index behind (nor after a second reopen), no oid is handed out
    twice, and the journal keeps taking records."""
    db, _ = committed_object(str(tmp_path / "count"), impl, B0)
    plan = db.inject_faults(FaultPlan())
    with db.begin() as txn:
        db.lo.create(txn, impl)
    db.close()
    appends = plan.op_count("append", "catalog.journal")
    assert appends >= 3  # the large object, its class, its index
    for k in range(appends):
        for action in ("crash", "torn 12"):
            path = str(tmp_path / f"{k}-{action.split()[0]}")
            db, keeper = committed_object(path, impl, B0)
            before = catalog_names(db)
            kept = set(db.catalog.large_objects)
            issued = []
            allocate = db.catalog.allocate_oid

            def recording():
                issued.append(allocate())
                return issued[-1]

            db.catalog.allocate_oid = recording
            plan = db.inject_faults(
                f"on append catalog.journal after {k}: {action}")
            with pytest.raises(SimulatedCrash):
                db.lo.create(db.begin(), impl)
            assert plan.fired, (k, action)
            crash(db)

            db = Database(path)
            with db.lo.open(keeper) as obj:
                assert obj.read() == B0
            assert catalog_names(db) == before, (k, action)
            db.close()
            db = Database(path)         # recovery's drops are durable
            assert catalog_names(db) == before, (k, action)
            with db.begin() as txn:
                fresh = db.lo.create(txn, impl)
                with db.lo.open(fresh, txn, "rw") as obj:
                    obj.write(B1)
            assert designator_oid(fresh) > max(kept | set(issued))
            crash(db)
            db = Database(path)
            with db.lo.open(fresh) as obj:
                assert obj.read() == B1
            assert db.check_integrity() == [], (k, action)
            db.close()


def _segments(db: Database, designator: str) -> set[tuple]:
    """``(locn, length, compressed_len, byte_pointer)`` of every visible
    segment."""
    from repro.lo.vsegment import segment_class_name
    name = segment_class_name(designator_oid(designator))
    return {t.values for t in db.scan(name)}


def _frame(n: int, generation: int = 0) -> bytes:
    """A 4,000-byte frame whose second half is zeros (zero-rle halves it)."""
    return pattern_bytes(2_000, n + 7 * generation + 1) + bytes(2_000)


@pytest.mark.faults
def test_crash_at_every_store_write_of_a_vsegment_append(tmp_path):
    """A byte store keeps no size row: its size, where the append cursor
    anchors after a reopen, is where its last visible chunk ends.  Die
    committing a v-segment append at each guarded write of the store's
    two files and at the ``pg_log`` append, reopen, and write again:
    every committed frame reads back, no new segment's store extent
    overlaps a committed one's (the cursor handed nothing out twice),
    the checker passes and vacuum runs."""
    frames = 24

    def committed(path):
        db = Database(path)
        with db.begin() as txn:
            designator = db.lo.create(txn, "vsegment",
                                      compression="zero-rle")
            with db.lo.open(designator, txn, "rw") as obj:
                for n in range(frames):
                    obj.write(_frame(n))
        return db, designator

    def append(db, designator, first, count, generation=0):
        with db.lo.open(designator, db.begin(), "rw") as obj:
            obj.seek(first * 4_000)
            for n in range(first, first + count):
                obj.write(_frame(n, generation))
            return obj.txn

    db, designator = committed(str(tmp_path / "count"))
    store = db.catalog.get_large_object(
        designator_oid(designator)).detail["store_oid"]
    files = (f"heap_lo_{store}", f"btree_lo_{store}_seq")
    plan = db.inject_faults(FaultPlan())
    append(db, designator, frames, 6).commit()
    writes = {fileid: plan.op_count("write", fileid) for fileid in files}
    db.close()
    assert all(writes.values()), writes
    points = [f"on write {fileid} after {k}: crash"
              for fileid, count in writes.items() for k in range(count)]
    points.append("on append pg_log: crash")
    for number, point in enumerate(points):
        path = str(tmp_path / str(number))
        db, designator = committed(path)
        before = _segments(db, designator)
        txn = append(db, designator, frames, 6)
        armed = db.inject_faults(point)
        with pytest.raises(SimulatedCrash):
            txn.commit()
        assert armed.fired, point
        crash(db)

        db = Database(path)
        with db.lo.open(designator) as obj:
            assert obj.read() == b"".join(map(_frame, range(frames))), point
        # Write again: an append past the end and an overwrite inside.
        append(db, designator, frames, 6, generation=1).commit()
        append(db, designator, 3, 2, generation=2).commit()
        fresh = _segments(db, designator) - before
        assert fresh, point
        for _locn, _length, clen, ptr in fresh:
            assert all(ptr + clen <= old or old + old_len <= ptr
                       for _l, _n, old_len, old in before), (point, ptr)
        assert db.check_integrity() == [], point
        db.vacuum()
        expected = [_frame(n) for n in range(frames)]
        expected[3:5] = [_frame(3, 2), _frame(4, 2)]
        expected += [_frame(n, 1) for n in range(frames, frames + 6)]
        with db.lo.open(designator) as obj:
            assert obj.read() == b"".join(expected), point
        db.close()


@pytest.mark.faults
class TestCrashLosesCommittedData:
    """A crash at the wrong write loses committed data today.  Each test
    asserts the correct outcome and is a strict xfail until the B-tree and
    shared-page fixes land; a test that starts passing fails the run."""

    @pytest.mark.xfail(strict=True, raises=StorageManagerError, reason=(
        "a 300-chunk object, a 60-chunk append that splits the index "
        "root, 'on write btree_lo_1000_seq after 1: crash': reopen reads "
        "'block 3 of 2' — a rewritten page names a block never written"))
    def test_root_split(self, tmp_path):
        path = str(tmp_path / "db")
        data = pattern_bytes(300 * CHUNK_PAYLOAD, 3)
        db, designator = committed_object(path, "fchunk", data)
        crash_during_commit(db, designator, len(data),
                            pattern_bytes(60 * CHUNK_PAYLOAD, 5),
                            "on write btree_lo_1000_seq after 1: crash")
        db = Database(path)
        with db.lo.open(designator) as obj:
            assert obj.read() == data
        assert db.check_integrity() == []

    @pytest.mark.parametrize("after", [2, 3])
    @pytest.mark.xfail(strict=True, raises=StorageManagerError, reason=(
        "200 chunks of a 400-chunk object overwritten, the commit killed "
        "after 2 or 3 index-block writes: reopen reads 'block 4 of 4'"))
    def test_overwrite_of_400_chunks(self, tmp_path, after):
        path = str(tmp_path / "db")
        data = pattern_bytes(400 * CHUNK_PAYLOAD, 3)
        db, designator = committed_object(path, "fchunk", data)
        crash_during_commit(
            db, designator, 100 * CHUNK_PAYLOAD,
            pattern_bytes(200 * CHUNK_PAYLOAD, 5),
            f"on write btree_lo_1000_seq after {after}: crash")
        db = Database(path)
        with db.lo.open(designator) as obj:
            assert obj.read() == data

    @pytest.mark.xfail(strict=True, raises=StorageManagerError, reason=(
        "the first large object's commit killed after 1 write of "
        "btree_pg_largeobject_loid: its meta page names a root never "
        "written, and every later lo.create reads 'block 1 of 1'"))
    def test_first_pg_largeobject_loid_commit(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        txn = db.begin()
        designator = db.lo.create(txn, "fchunk")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(B0)
        armed = db.inject_faults(
            "on write btree_pg_largeobject_loid after 1: crash")
        with pytest.raises(SimulatedCrash):
            txn.commit()
        assert armed.fired
        crash(db)
        db = Database(path)
        with db.begin() as txn:
            fresh = db.lo.create(txn, "fchunk")
            with db.lo.open(fresh, txn, "rw") as obj:
                obj.write(B1)
        with db.lo.open(fresh) as obj:
            assert obj.read() == B1
        assert db.check_integrity() == []

    @pytest.mark.parametrize("keep", [64, 512, 2048, 4096])
    @pytest.mark.xfail(strict=True, raises=ChecksumError, reason=(
        "2,500 bytes of a committed 40-segment v-segment object "
        "overwritten, 'on write heap_lo_*_seg: torn N' for N = 64, 512, "
        "2048, 4096: block 0 of the segment index, shared with committed "
        "rows, fails its checksum"))
    def test_segment_index_tear(self, tmp_path, keep):
        path = str(tmp_path / "db")
        data = pattern_bytes(40 * CHUNK_PAYLOAD, 3)
        db, designator = committed_object(path, "vsegment", data,
                                          call=CHUNK_PAYLOAD)
        crash_during_commit(db, designator, 1000, pattern_bytes(2500, 5),
                            f"on write heap_lo_*_seg: torn {keep}")
        db = Database(path)
        with db.lo.open(designator) as obj:
            assert obj.read() == data

    @pytest.mark.xfail(strict=True, raises=ChecksumError, reason=(
        "'on write heap_lo_1000 after 3: torn 512' tears a page only the "
        "crashed transaction wrote: committed reads are right, but "
        "vacuum() and check_integrity() raise ChecksumError on it"))
    def test_fresh_page_tear(self, tmp_path):
        path = str(tmp_path / "db")
        db, designator, _ = seeded_db(path, "fchunk")
        crash_during_commit(db, designator, len(B0 + B1), JUNK,
                            "on write heap_lo_1000 after 3: torn 512")
        db = Database(path)
        with db.lo.open(designator) as obj:
            assert obj.read() == B0 + B1
        db.vacuum()
        assert db.check_integrity() == []
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.seek(0, 2)
                obj.write(B1)
        with db.lo.open(designator) as obj:
            assert obj.read() == B0 + B1 + B1


class TestPlanReachesEveryRelation:
    """The plan is armed on the switch, so it covers relations no test
    ever routed through a special manager: the ``pg_largeobject`` size
    rows and the Inversion system classes."""

    @pytest.mark.parametrize("impl", ["fchunk", "vsegment"])
    def test_size_row_write_error_aborts_then_heals(self, impl):
        db = Database()
        txn = db.begin()
        designator = db.lo.create(txn, impl)
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(B0)
        plan = db.inject_faults("on write heap_pg_largeobject: error")
        with pytest.raises(StorageManagerError):
            txn.commit()
        assert plan.fired
        assert db.clog.status(txn.xid) == TxnStatus.ABORTED
        db.clear_faults()
        assert not db.lo.exists(designator)
        with db.begin() as retry:
            designator = db.lo.create(retry, impl)
            with db.lo.open(designator, retry, "rw") as obj:
                obj.write(B1)
        with db.lo.open(designator) as obj:
            assert obj.read() == B1
        assert db.check_integrity() == []
        db.close()

    def test_inversion_directory_write_error_aborts_the_create(self):
        db = Database()
        fs = db.inversion
        with db.begin() as txn:
            fs.write_file(txn, "/keep", b"safe")
        txn = db.begin()
        fs.write_file(txn, "/doomed", b"gone")
        plan = db.inject_faults("on write heap_DIRECTORY: error")
        with pytest.raises(StorageManagerError):
            txn.commit()
        assert plan.fired
        assert db.clog.status(txn.xid) == TxnStatus.ABORTED
        db.clear_faults()
        assert not fs.exists("/doomed")
        assert fs.read_file("/keep") == b"safe"
        assert db.check_integrity() == []
        db.close()

    def test_arming_and_clearing_constructs_nothing(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)

        def state():
            listing = sorted(
                os.path.relpath(os.path.join(root, name), path)
                for root, dirs, files in os.walk(path)
                for name in dirs + files)
            return sorted(name for name, _ in db.switch.items()), listing

        before = state()
        db.inject_faults("on write *: error\n"
                         "on append pg_log: crash\n"
                         "on node node1: down")
        assert state() == before
        db.clear_faults()
        assert state() == before
        db.close()


class TestFaultPlanDSL:
    def test_parse_full_plan(self):
        plan = parse_plan("""
            # commit-path faults
            on write heap_lo_17* after 1: torn 512
            on sync *: error
            on append pg_log: crash
        """)
        torn, err, crash_rule = plan.rules
        assert (torn.op, torn.pattern, torn.after) == \
            ("write", "heap_lo_17*", 1)
        assert (torn.action, torn.keep_bytes) == ("torn", 512)
        assert (err.op, err.pattern, err.action) == ("sync", "*", "error")
        assert (crash_rule.op, crash_rule.pattern, crash_rule.action) == \
            ("append", "pg_log", "crash")

    def test_plan_text_round_trips(self):
        text = "on write heap_T after 2: torn 100\non read *: crash"
        assert str(parse_plan(str(parse_plan(text)))) == text

    @pytest.mark.parametrize("bad", [
        "write heap_T: error",          # missing 'on'
        "on write heap_T error",        # missing colon
        "on write heap_T: torn",        # torn wants a byte count
        "on write heap_T: torn x",      # ...an integer one
        "on frobnicate heap_T: error",  # unknown op
        "on write heap_T: explode",     # unknown action
        "on write heap_T after x: error",
        "on write heap_T sometimes: error",
        "on write heap_T: error loudly",
        "on sync heap_T: torn 10",      # torn only tears writes/appends
    ])
    def test_bad_plan_lines_raise(self, bad):
        with pytest.raises(ValueError):
            parse_plan(bad)

    def test_after_budget_counts_only_matches(self):
        plan = parse_plan("on write heap_T after 2: error")
        assert plan.check("write", "heap_other") is None
        assert plan.check("sync", "heap_T") is None
        assert plan.check("write", "heap_T") is None   # 1st match
        assert plan.check("write", "heap_T") is None   # 2nd match
        rule = plan.check("write", "heap_T")           # 3rd: fires
        assert rule is plan.rules[0]

    def test_halted_plan_fails_all_guarded_io(self):
        plan = parse_plan("on write *: crash")
        with pytest.raises(SimulatedCrash):
            plan.fire(plan.check("write", "f"), "write 'f' block 0")
        assert plan.halted
        for op in ("read", "write", "sync", "append"):
            with pytest.raises(SimulatedCrash):
                plan.check(op, "anything")


class TestFaultPlanOnManager:
    """A plain manager carrying a plan (what the switch stamps on each)."""

    def make(self, plan=None):
        smgr = MemoryStorageManager(SimClock())
        smgr.set_fault_plan(plan)
        smgr.create("f")
        return smgr

    def test_transparent_without_a_plan(self):
        plan = FaultPlan()  # no rules: a pure protocol trace
        smgr = self.make(plan)
        smgr.write_block("f", 0, bytes([7]) * PAGE_SIZE)
        assert smgr.read_block("f", 0) == bytes([7]) * PAGE_SIZE
        smgr.sync("f")
        assert plan.op_count("write", "f") == 1
        assert plan.op_count("read", "f") == 1
        assert plan.op_count("sync", "f") == 1
        assert plan.fired == []

    def test_error_rule_lets_budget_through_then_fails(self):
        plan = parse_plan("on write f after 2: error")
        smgr = self.make(plan)
        page = bytes(PAGE_SIZE)
        smgr.write_block("f", 0, page)
        smgr.write_block("f", 1, page)
        with pytest.raises(StorageManagerError):
            smgr.write_block("f", 2, page)
        # The failed write never reached the device.
        assert smgr.nblocks("f") == 2
        assert len(plan.fired) == 1

    def test_torn_write_persists_prefix_of_fresh_block(self):
        smgr = self.make(parse_plan("on write f: torn 100"))
        data = pattern_bytes(PAGE_SIZE, 11)
        with pytest.raises(SimulatedCrash):
            smgr.write_block("f", 0, data)
        smgr.set_fault_plan(None)
        stored = bytes(smgr.read_block("f", 0))
        assert stored[:100] == data[:100]
        assert stored[100:] == bytes(PAGE_SIZE - 100)  # fresh block: zeros

    def test_torn_overwrite_keeps_the_old_tail(self):
        smgr = self.make()
        old = pattern_bytes(PAGE_SIZE, 5)
        smgr.write_block("f", 0, old)
        plan = parse_plan("on write f: torn 256")
        smgr.set_fault_plan(plan)
        new = pattern_bytes(PAGE_SIZE, 9)
        with pytest.raises(SimulatedCrash):
            smgr.write_block("f", 0, new)
        # Reading the old image to tear over it is not a guarded op.
        assert plan.op_count("read") == 0
        smgr.set_fault_plan(None)
        stored = bytes(smgr.read_block("f", 0))
        assert stored == new[:256] + old[256:]

    def test_crash_halts_every_later_operation(self):
        smgr = self.make(parse_plan("on sync f: crash"))
        smgr.write_block("f", 0, bytes(PAGE_SIZE))
        with pytest.raises(SimulatedCrash):
            smgr.sync("f")
        with pytest.raises(SimulatedCrash):
            smgr.read_block("f", 0)
        smgr.set_fault_plan(None)
        assert smgr.read_block("f", 0) == bytes(PAGE_SIZE)


class TestDurabilityBugfixes:
    """Each test here fails on the seed code this PR fixed."""

    def test_flush_file_syncs_even_with_no_dirty_pages(self):
        """Eviction write-backs leave device writes that only a later
        flush_file can sync; skipping the sync on an empty dirty list
        left committed pages unforced."""
        clock = SimClock()
        smgr = MemoryStorageManager(clock)
        trace = FaultPlan()  # no rules: a pure protocol trace
        smgr.set_fault_plan(trace)
        bm = BufferManager(pool_size=1, clock=clock)
        smgr.create("f")
        smgr.create("g")
        buf = bm.allocate(smgr, "f")
        bm.unpin(buf, dirty=True)
        other = bm.allocate(smgr, "g")  # evicts f's page: write, no sync
        bm.unpin(other, dirty=True)
        assert trace.op_count("write", "f") == 1
        assert trace.op_count("sync", "f") == 0
        flushed = bm.flush_file(smgr, "f")  # force-at-commit for file f
        assert flushed == 0  # nothing dirty in the pool...
        assert trace.op_count("sync", "f") == 1  # ...but the sync must happen

    def test_commit_syncs_files_checkpoint_already_cleaned(self):
        db = Database()
        db.create_class("T", [("v", "int4")])
        txn = db.begin()
        db.insert(txn, "T", (1,))
        db.checkpoint()  # a checkpoint mid-transaction cleans the pool
        trace = db.inject_faults(FaultPlan()).trace  # armed after it
        txn.commit()
        assert ("sync", "heap_T") in trace, \
            "commit skipped the force for a checkpoint-cleaned file"
        db.close()

    def test_failing_before_commit_hook_aborts_the_transaction(self):
        db = Database()
        db.create_class("T", [("v", "int4")])
        txn = db.begin()
        db.insert(txn, "T", (1,))

        def explode():
            raise RuntimeError("buffered flush failed")

        txn.before_commit.append(explode)
        with pytest.raises(RuntimeError):
            txn.commit()
        # Not wedged: aborted, deregistered, and its locks are released.
        assert not txn.is_active
        assert db.clog.status(txn.xid) == TxnStatus.ABORTED
        assert db.tm.active_count() == 0
        retry = db.begin()
        db.locks.acquire(retry.xid, ("relation", "T"), LockMode.EXCLUSIVE)
        db.insert(retry, "T", (2,))
        retry.commit()
        assert [t.values for t in db.scan("T")] == [(2,)]
        db.close()

    def test_failing_flush_aborts_the_transaction(self):
        db = Database()
        db.create_class("T", [("v", "int4")])
        txn = db.begin()
        db.insert(txn, "T", (3,))
        db.inject_faults("on sync heap_T: error")
        with pytest.raises(StorageManagerError):
            txn.commit()
        assert not txn.is_active
        assert db.clog.status(txn.xid) == TxnStatus.ABORTED
        db.clear_faults()
        with db.begin() as retry:
            db.insert(retry, "T", (4,))
        assert [t.values for t in db.scan("T")] == [(4,)]
        db.close()

    def test_seed_lock_leak_would_block_this_acquire(self):
        """Companion check: a wedged transaction's shared lock must not
        outlive the failed commit (no-wait 2PL turns leaks into errors)."""
        db = Database()
        db.create_class("T", [("v", "int4")])
        txn = db.begin()
        db.insert(txn, "T", (1,))
        txn.before_commit.append(lambda: (_ for _ in ()).throw(
            RuntimeError("boom")))
        with pytest.raises(RuntimeError):
            txn.commit()
        bystander = db.begin()
        try:
            db.locks.acquire(bystander.xid, ("relation", "T"),
                             LockMode.EXCLUSIVE)
        except LockError:
            pytest.fail("failed commit leaked its relation lock")
        bystander.abort()
        db.close()


class TestDescriptorHookDeregistration:
    """Closed LO descriptors must not stay pinned by before_commit."""

    @pytest.mark.parametrize("impl", ["fchunk", "vsegment"])
    def test_close_deregisters_flush_hooks(self, impl):
        db = Database()
        txn = db.begin()
        designator = db.lo.create(txn, impl)
        baseline = len(txn.before_commit)
        for i in range(25):
            with db.lo.open(designator, txn, "rw") as obj:
                obj.seek(0)
                obj.write(bytes([i + 1]) * 16)
        # A v-segment open registers two hooks (descriptor + its byte
        # store); each close must remove every one it added.
        assert len(txn.before_commit) == baseline
        txn.commit()
        with db.lo.open(designator) as obj:
            assert obj.read() == bytes([25]) * 16
        db.close()

    def test_open_descriptor_still_flushed_at_commit(self):
        db = Database()
        txn = db.begin()
        designator = db.lo.create(txn, "fchunk")
        obj = db.lo.open(designator, txn, "rw")
        obj.write(b"buffered, never explicitly flushed")
        txn.commit()  # the still-registered hook materializes the buffer
        with db.lo.open(designator) as check:
            assert check.read() == b"buffered, never explicitly flushed"
        db.close()

    def test_read_only_descriptors_never_register_hooks(self):
        db = Database()
        txn = db.begin()
        designator = db.lo.create(txn, "fchunk")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"x")
        baseline = len(txn.before_commit)
        with db.lo.open(designator, txn, "r") as obj:
            obj.read()
        assert len(txn.before_commit) == baseline
        txn.commit()
        db.close()


class TestPrefetchCharging:
    def test_prefetch_charges_miss_instructions_per_block(self):
        clock = SimClock()
        cpu = CpuModel(mips=15.0)
        smgr = MemoryStorageManager(clock)
        smgr.create("f")
        loader = BufferManager(pool_size=16, clock=clock, cpu=cpu)
        for _ in range(4):
            buf = loader.allocate(smgr, "f")
            loader.unpin(buf, dirty=True)
        loader.flush_all()

        cold = BufferManager(pool_size=16, clock=clock, cpu=cpu)
        before = clock.elapsed_in("cpu")
        fetched = cold.prefetch(smgr, "f", 0, 4)
        assert fetched == 4
        spent = clock.elapsed_in("cpu") - before
        assert spent == pytest.approx(
            fetched * cpu.seconds_for(_MISS_INSTRUCTIONS))

    def test_prefetch_skips_resident_blocks_without_charge(self):
        clock = SimClock()
        cpu = CpuModel(mips=15.0)
        smgr = MemoryStorageManager(clock)
        smgr.create("f")
        bm = BufferManager(pool_size=16, clock=clock, cpu=cpu)
        buf = bm.allocate(smgr, "f")
        bm.unpin(buf, dirty=True)
        bm.flush_all()
        before = clock.elapsed_in("cpu")
        assert bm.prefetch(smgr, "f", 0, 1) == 0  # already in the pool
        assert clock.elapsed_in("cpu") == before
