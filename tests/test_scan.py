"""The unified access-path layer: scan descriptors, per-scan statistics,
the ``unique`` visible-version invariant, and the latch tripwire."""

import threading

import pytest

from repro.access.scan import (
    EngineLatch,
    IndexProbe,
    IndexRangeScan,
    SeqScan,
)
from repro.db import PG_LARGEOBJECT, Database
from repro.errors import LargeObjectError, ReproError
from repro.lo import metadata
from repro.lo.fchunk import chunk_class_name
from repro.lo.manager import designator_oid
from repro.lo.vsegment import segment_class_name
from repro.txn.lockdep import VALIDATOR


@pytest.fixture
def db():
    database = Database()
    yield database
    database.close()


def _fill(db, rows=10):
    db.create_class("T", [("k", "int4"), ("v", "int4")])
    db.create_index("t_k", "T", "k")
    with db.begin() as txn:
        for i in range(rows):
            db.insert(txn, "T", (i, i * 100))


class TestEngineLatch:
    def test_held_tracks_owner_reentrantly(self):
        latch = EngineLatch()
        assert not latch.held()
        with latch:
            assert latch.held()
            with latch:
                assert latch.held()
            assert latch.held()  # still owned after inner exit
        assert not latch.held()

    def test_held_is_per_thread(self):
        latch = EngineLatch()
        seen = []
        with latch:
            worker = threading.Thread(
                target=lambda: seen.append(latch.held()), daemon=True)
            worker.start()
            worker.join(5)
        assert seen == [False]


class TestIndexProbe:
    def test_probe_returns_visible_versions(self, db):
        _fill(db)
        probe = IndexProbe(db, db.get_index("t_k"), db.get_class("T"),
                           (4,))
        [tup] = probe.tuples(db.snapshot())
        assert tup.values == (4, 400)

    def test_first_stops_at_first_visible(self, db):
        _fill(db)
        probe = IndexProbe(db, db.get_index("t_k"), db.get_class("T"),
                           (4,))
        assert probe.first(db.snapshot()).values == (4, 400)
        assert probe.first(db.snapshot(as_of=0.0)) is None

    def test_unique_mode_raises_on_duplicates(self, db):
        _fill(db)
        with db.begin() as txn:
            db.insert(txn, "T", (4, 999))  # second visible row, same key
        index, relation = db.get_index("t_k"), db.get_class("T")
        # Non-unique: both versions surface.
        assert len(IndexProbe(db, index, relation,
                              (4,)).tuples(db.snapshot())) == 2
        with pytest.raises(ReproError, match="snapshot anomaly"):
            IndexProbe(db, index, relation, (4,),
                       unique=True).tuples(db.snapshot())

    def test_unique_mode_uses_caller_anomaly(self, db):
        _fill(db)
        with db.begin() as txn:
            db.insert(txn, "T", (4, 999))
        probe = IndexProbe(
            db, db.get_index("t_k"), db.get_class("T"), (4,),
            unique=True,
            anomaly=lambda key, count: LargeObjectError(
                f"dup {key[0]} x{count}"))
        with pytest.raises(LargeObjectError, match="dup 4 x2"):
            probe.tuples(db.snapshot())

    def test_recheck_rejects_stale_entries(self, db):
        """A freed slot reused by an unrelated tuple must not satisfy a
        stale index probe when a recheck position is given."""
        db.create_class("T", [("k", "int4")])
        db.create_index("t_k", "T", "k")
        with db.begin() as txn:
            tid = db.insert(txn, "T", (111,))
        with db.begin() as txn:
            db.delete(txn, "T", tid)
        with db.latch:
            db.get_class("T").vacuum()  # frees the slot, keeps the entry
        with db.begin() as txn:
            db.insert(txn, "T", (222,))  # reuses the freed slot
        probe = IndexProbe(db, db.get_index("t_k"), db.get_class("T"),
                           (111,), recheck_position=0)
        assert probe.tuples(db.snapshot()) == []


class TestIndexRangeScan:
    def test_bounds_and_order(self, db):
        _fill(db)
        scan = IndexRangeScan(db, db.get_index("t_k"), db.get_class("T"),
                              (3,), (7,))
        assert [t.values[0] for t in scan.tuples(db.snapshot())] == [
            3, 4, 5, 6, 7]

    def test_open_bounds(self, db):
        _fill(db)
        scan = IndexRangeScan(db, db.get_index("t_k"), db.get_class("T"),
                              None, None)
        assert len(scan.tuples(db.snapshot())) == 10

    def test_wanted_filters_keys(self, db):
        _fill(db)
        scan = IndexRangeScan(db, db.get_index("t_k"), db.get_class("T"),
                              (0,), (9,))
        pairs = scan.visible(db.snapshot(), wanted={(2,), (5,)})
        assert [key for key, _tup in pairs] == [(2,), (5,)]

    def test_unique_mode_raises_on_duplicates(self, db):
        _fill(db)
        with db.begin() as txn:
            db.insert(txn, "T", (6, 999))
        scan = IndexRangeScan(db, db.get_index("t_k"), db.get_class("T"),
                              (0,), (9,), unique=True)
        with pytest.raises(ReproError, match="snapshot anomaly"):
            scan.visible(db.snapshot())

    def test_visible_from_floor(self, db):
        """Keys 0, 10, ..., 90; key 30 deleted, key 40 re-versioned
        three times.  The walk fetches what it returns plus the dead
        versions it must pass, and stops at ``lo``."""
        db.create_class("T", [("k", "int4"), ("v", "int4")])
        db.create_index("t_k", "T", "k")
        with db.begin() as txn:
            tids = [db.insert(txn, "T", (10 * i, 0)) for i in range(10)]
        with db.begin() as txn:
            db.delete(txn, "T", tids[3])
        tid = tids[4]
        for version in range(1, 4):
            with db.begin() as txn:
                tid = db.replace(txn, "T", tid, (40, version))
        index, relation = db.get_index("t_k"), db.get_class("T")
        stats = db.access_stats

        def floor(lo, hi, pivot, unique=True):
            before = stats.tuples_scanned
            pairs = IndexRangeScan(db, index, relation, lo, hi,
                                   unique=unique).visible_from_floor(
                                       db.snapshot(), pivot)
            return ([key[0] for key, _tup in pairs],
                    stats.tuples_scanned - before)

        assert floor((0,), (69,), (55,)) == ([50, 60], 2)
        assert floor((0,), (69,), (50,)) == ([50, 60], 2)
        # The live version of 40 is the newest entry of its run; the
        # run is finished so ``unique`` sees every version of the key.
        assert floor((0,), (45,), (45,)) == ([40], 4)
        assert floor((0,), (45,), (45,), unique=False) == ([40], 4)
        assert floor((0,), (39,), (35,)) == ([20], 2)   # past dead 30
        assert floor((25,), (39,), (35,)) == ([], 1)    # stops at lo
        assert floor(None, (5,), (-1,)) == ([0], 1)      # all above
        assert floor(None, (95,), (-1,))[0] == [0, 10, 20, 40, 50, 60,
                                                70, 80, 90]
        with db.begin() as txn:
            db.insert(txn, "T", (40, 99))   # a second visible version
        for pivot in ((45,), (15,)):        # at the floor; above it
            with pytest.raises(ReproError, match="snapshot anomaly"):
                floor((0,), (49,), pivot)


class TestSeqScan:
    def test_matches_relation_scan(self, db):
        _fill(db)
        with db.begin() as txn:
            uncommitted = db.begin()
            db.insert(uncommitted, "T", (50, 0))  # never committed
            tuples = SeqScan(db, db.get_class("T")).tuples(
                db.snapshot(txn))
            assert [t.values[0] for t in tuples] == list(range(10))
            uncommitted.abort()


class TestScansAcrossTheArchive:
    """Time travel reads one history through every descriptor, on both
    sides of a sweep: the index descriptors equal a brute-force filter
    over ``SeqScan``, and ``SeqScan`` equals the oracle kept while the
    history was written."""

    KEYS = 12

    def _history(self, db, rng, steps, live, oracle):
        """*steps* committed transactions over keys ``0..KEYS-1`` (several
        live rows may share a key); appends ``(stamp, rows)`` to *oracle*."""
        for _ in range(steps):
            with db.begin() as txn:
                for _ in range(rng.randint(1, 3)):
                    action = rng.choice(["insert", "replace", "delete"])
                    if action == "insert" or not live:
                        row = (rng.randrange(self.KEYS), rng.randrange(10**6))
                        live[db.insert(txn, "T", row)] = row
                        continue
                    tid = rng.choice(sorted(live))
                    row = live.pop(tid)
                    if action == "replace":
                        row = (row[0], rng.randrange(10**6))
                        live[db.replace(txn, "T", tid, row)] = row
                    else:
                        db.delete(txn, "T", tid)
            oracle.append((db.clock.now(), sorted(live.values())))

    @pytest.mark.parametrize("seed", range(4))
    def test_index_descriptors_equal_brute_force(self, db, seed):
        import random
        rng = random.Random(seed)
        db.create_class("T", [("k", "int4"), ("v", "int4")])
        db.create_index("t_k", "T", "k")
        relation, index = db.get_class("T"), db.get_index("t_k")
        live, oracle = {}, []
        self._history(db, rng, 25, live, oracle)
        # Sweep the first half of history only, write on (reusing the
        # freed slots), then sweep everything that is dead by now.
        assert db.archive_class("T", horizon=oracle[12][0])["archived"]
        self._history(db, rng, 15, live, oracle)
        db.archive_class("T")
        self._history(db, rng, 5, live, oracle)

        for as_of, rows in oracle + [(None, oracle[-1][1])]:
            snapshot = db.snapshot(as_of=as_of)
            scanned = SeqScan(db, relation).tuples(snapshot)
            assert sorted(t.values for t in scanned) == rows
            for _ in range(6):
                key = rng.randrange(self.KEYS)
                assert sorted(
                    t.values for t in IndexProbe(
                        db, index, relation, (key,)).tuples(snapshot)
                ) == [row for row in rows if row[0] == key]
                lo, hi = sorted(rng.sample(range(-1, self.KEYS + 1), 2))
                inside = [row for row in rows if lo <= row[0] <= hi]
                scan = IndexRangeScan(db, index, relation, (lo,), (hi,))
                found = scan.visible(snapshot)
                assert [key for key, _tup in found] == [
                    (row[0],) for row in inside]
                assert sorted(t.values for _key, t in found) == inside
                pivot = rng.randint(lo, hi)
                floor = max((row[0] for row in inside if row[0] <= pivot),
                            default=pivot)
                assert sorted(
                    t.values for _key, t in scan.visible_from_floor(
                        snapshot, (pivot,))
                ) == [row for row in inside if row[0] >= floor]
        assert db.check_integrity() == []

    def test_current_reads_never_open_the_archive(self, db):
        """A current-state snapshot cannot see an archived version, so
        no descriptor looks: ``tuples_scanned`` is what the class holds."""
        _fill(db)
        with db.begin() as txn:
            for tup in list(db.scan("T")):
                db.replace(txn, "T", tup.tid, (tup.values[0], 7))
        db.archive_class("T")
        before = db.access_stats.tuples_scanned
        assert len(SeqScan(db, db.get_class("T")).tuples(
            db.snapshot())) == 10
        assert db.access_stats.tuples_scanned - before == 10


class TestAccessStatistics:
    def test_probe_and_seq_counters(self, db):
        _fill(db)
        before = db.statistics()["access"]
        [hit] = db.index_lookup("t_k", 5)
        assert hit.values == (5, 500)
        after = db.statistics()["access"]
        assert after["probes"] == before["probes"] + 1
        assert after["tuples_visible"] == before["tuples_visible"] + 1
        db.execute("retrieve (T.v)")
        assert db.statistics()["access"]["seq_scans"] \
            == after["seq_scans"] + 1

    def test_executor_range_scan_counted(self, db):
        _fill(db)
        before = db.statistics()["access"]["range_scans"]
        result = db.execute(
            "retrieve (T.v) where T.k >= 3 and T.k <= 7")
        assert result.count == 5
        assert db.statistics()["access"]["range_scans"] == before + 1

    def test_lo_read_counts_scan_and_prefetch(self, db):
        txn = db.begin()
        designator = db.lo.create(txn, "fchunk")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(bytes(8000 * 12))  # 12 chunks -> 12 heap blocks
        txn.commit()
        db.bufmgr.invalidate_all()  # cold pool, so readahead really reads
        before = db.statistics()["access"]
        with db.lo.open(designator) as obj:
            assert len(obj.read()) == 8000 * 12
        after = db.statistics()["access"]
        assert after["range_scans"] > before["range_scans"]
        assert after["tuples_visible"] >= before["tuples_visible"] + 12
        # 12 contiguous chunk blocks form at least one readahead run.
        assert after["prefetch_batches"] > before["prefetch_batches"]


class TestLargeObjectCacheStatistics:
    def test_zeros_before_any_large_object(self, db):
        # Must not construct the LO manager as a side effect.
        assert db.statistics()["largeobjects"] == {
            "read_cache_hits": 0, "read_cache_misses": 0,
            "segment_cache_hits": 0, "segment_cache_misses": 0}
        assert db._lo_manager is None

    def test_fchunk_read_cache_counted(self, db):
        txn = db.begin()
        designator = db.lo.create(txn, "fchunk")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"a" * 100)
        txn.commit()
        with db.lo.open(designator) as obj:
            obj.read()
            obj.seek(0)
            obj.read()  # same chunk again: must hit the read cache
        caches = db.statistics()["largeobjects"]
        assert caches["read_cache_misses"] >= 1
        assert caches["read_cache_hits"] >= 1

    def test_vsegment_segment_cache_counted(self, db):
        txn = db.begin()
        designator = db.lo.create(txn, "vsegment")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"b" * 100)
        txn.commit()
        with db.lo.open(designator) as obj:
            obj.read()
            obj.seek(0)
            obj.read()
        caches = db.statistics()["largeobjects"]
        assert caches["segment_cache_misses"] >= 1
        assert caches["segment_cache_hits"] >= 1


class TestVisibleVersionInvariant:
    """The snapshot-anomaly diagnostics both chunked implementations now
    get from the scan layer's ``unique`` mode."""

    def test_fchunk_duplicate_chunk_version_raises(self, db):
        txn = db.begin()
        designator = db.lo.create(txn, "fchunk")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"x" * 100)
        txn.commit()
        oid = int(designator[3:])
        [chunk] = list(db.scan(chunk_class_name(oid)))
        with db.begin() as txn:
            db.insert(txn, chunk_class_name(oid), chunk.values)
        with db.lo.open(designator) as obj:
            with pytest.raises(LargeObjectError,
                               match="2 visible versions of chunk 0 "
                                     r"\(snapshot anomaly\)"):
                obj.read(10)

    def test_vsegment_duplicate_segment_version_raises(self, db):
        """Regression: duplicate visible versions of one ``locn`` used to
        be accepted silently, the later one overwriting the earlier one's
        bytes in ``_read_at``."""
        txn = db.begin()
        designator = db.lo.create(txn, "vsegment")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"y" * 100)
        txn.commit()
        oid = int(designator[3:])
        [segment] = list(db.scan(segment_class_name(oid)))
        with db.begin() as txn:
            db.insert(txn, segment_class_name(oid), segment.values)
        with db.lo.open(designator) as obj:
            with pytest.raises(LargeObjectError,
                               match="2 visible versions of segment 0 "
                                     r"\(snapshot anomaly\)"):
                obj.read(10)

    def test_size_row_missing_diagnostic(self, db):
        with pytest.raises(LargeObjectError, match="no size record"):
            metadata.size_row(db, 424242, db.snapshot())


@pytest.mark.parametrize("charge_cpu", [True, False])
class TestSizeRowProbeInBothModes:
    """Exactly one ``pg_largeobject`` version of an oid is visible to any
    snapshot, and ``IndexProbe.first`` reaches it from the newest end of
    the version run — the same fetches whether or not their CPU is
    charged to the simulated clock, and a cost that does not grow with
    history."""

    def test_first_is_the_single_visible_version(self, charge_cpu):
        with Database(charge_cpu=charge_cpu) as db:
            with db.begin() as txn:
                oid = designator_oid(db.lo.create(txn, "fchunk"))
            index = db.get_index(metadata.SIZE_INDEX)
            probe = IndexProbe(db, index, db.get_class(PG_LARGEOBJECT),
                               (oid,))

            def first_matches_tuples(snapshot, size):
                """Returns (versions fetched by first, run length)."""
                [only] = probe.tuples(snapshot)
                assert only.values == (oid, size)
                before = db.access_stats.tuples_scanned
                first = probe.first(snapshot)
                scanned = db.access_stats.tuples_scanned - before
                assert (first.tid, first.values) == (only.tid, only.values)
                with db.latch:
                    run = index.search((oid,))
                position = run.index((only.tid.blockno, only.tid.slot))
                # It stops at the visible version, from the newest end.
                assert scanned == len(run) - position
                return scanned, len(run)

            history = [(db.clock.now(), 0)]

            def committed_replace(size):
                with db.begin() as txn:
                    metadata.write_size(db, txn, oid, size)
                history.append((db.clock.now(), size))

            for size in (10, 20, 30):
                committed_replace(size)
            aborted = db.begin()
            metadata.write_size(db, aborted, oid, 666)
            aborted.abort()
            for size in (40, 50):
                committed_replace(size)
            # Quiescent: 1 insert + 5 committed + 1 aborted replace.
            scanned, run = first_matches_tuples(db.snapshot(), 50)
            assert (scanned, run) == (1, 7)

            mine, other = db.begin(), db.begin()
            metadata.write_size(db, mine, oid, 60)   # in flight from here
            own, run = first_matches_tuples(db.snapshot(mine), 60)
            foreign, _ = first_matches_tuples(db.snapshot(other), 50)
            plain, _ = first_matches_tuples(db.snapshot(), 50)
            assert (own, foreign, plain, run) == (1, 2, 2, 8)
            for stamp, size in history:
                first_matches_tuples(db.snapshot(as_of=stamp), size)
            mine.commit()
            other.abort()
            first_matches_tuples(db.snapshot(), 60)

    def test_absent_key_is_none(self, charge_cpu):
        with Database(charge_cpu=charge_cpu) as db:
            probe = IndexProbe(db, db.get_index(metadata.SIZE_INDEX),
                               db.get_class(PG_LARGEOBJECT), (424242,))
            assert probe.first(db.snapshot()) is None


class TestLatchTripwire:
    def test_armed_by_default_under_pytest(self, db):
        # conftest.py arms lockdep (REPRO_LOCKDEP=1) and the tripwire
        # rides on it, so the whole tier-1 suite (this fixture included)
        # runs with it armed.
        assert VALIDATOR.armed
        db.create_class("T", [("v", "int4")])
        assert db.get_class("T").latch_probe is not None

    def test_raw_heap_fetch_trips(self, db):
        db.create_class("T", [("v", "int4")])
        with db.begin() as txn:
            tid = db.insert(txn, "T", (1,))
        relation = db.get_class("T")
        snapshot = db.snapshot()
        with pytest.raises(AssertionError, match="engine latch"):
            relation.fetch(tid, snapshot)
        with pytest.raises(AssertionError, match="engine latch"):
            relation.fetch_many([tid], snapshot)
        with db.latch:  # latched raw access stays legal
            assert relation.fetch(tid, snapshot).values == (1,)

    def test_raw_index_reads_trip(self, db):
        _fill(db)
        index = db.get_index("t_k")
        with pytest.raises(AssertionError, match="engine latch"):
            index.search((1,))
        # range_scan must trip at call time, not at first next(): the
        # generator body would otherwise run after the caller's latch
        # block already exited.
        with pytest.raises(AssertionError, match="engine latch"):
            index.range_scan()
        # ... and so must the lazy newest-first probe, for the same reason.
        with pytest.raises(AssertionError, match="engine latch"):
            index.search_newest((1,))
        with db.begin() as txn:
            newest = db.insert(txn, "T", (1, 999))
        with db.latch:
            assert len(index.search((1,))) == 2
            assert next(index.search_newest((1,))) == (
                newest.blockno, newest.slot)

    def test_diagnostics_bypass_the_tripwire(self, db):
        _fill(db)
        index = db.get_index("t_k")
        assert index.entry_count() == 10
        index.check_invariants()

    def test_disarmed_database_allows_raw_reads(self):
        was_armed = VALIDATOR.armed
        VALIDATOR.disarm()
        try:
            with Database() as db:
                db.create_class("T", [("v", "int4")])
                with db.begin() as txn:
                    tid = db.insert(txn, "T", (1,))
                assert db.get_class("T").fetch(
                    tid, db.snapshot()).values == (1,)
        finally:
            if was_armed:
                VALIDATOR.arm()

    def test_scan_layer_satisfies_the_tripwire(self, db):
        _fill(db)
        probe = IndexProbe(db, db.get_index("t_k"), db.get_class("T"),
                           (3,))
        assert len(probe.tuples(db.snapshot())) == 1

    def test_integrity_sweep_runs_clean_with_tripwire(self, db):
        _fill(db)
        txn = db.begin()
        designator = db.lo.create(txn, "vsegment")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"z" * 100)
        txn.commit()
        assert db.check_integrity() == []