"""The lockdep runtime validator (repro.txn.lockdep).

The suite runs with ``REPRO_LOCKDEP=1`` (tests/conftest.py), so every
instrumented acquisition in every other test already flows through the
validator; these tests exercise the validator *itself* — the declared
hierarchy, deliberate inversions raising with both stacks, and the
observed-edge graph surfaced through ``db.statistics()["lockdep"]`` —
and, under ``-m mutation``, the planted-bug table that shows armed
tier-1 catches an ordering bug at every ordering-relevant site, a raw
read outside the latch at six sites, and a leaked autocommit
transaction.

Deliberate violations record their (bad) edge before raising, so each
such test resets the global graph afterwards — otherwise a later test
asserting ``check_edges(...) == []`` would trip over the seeded edge.
"""

import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.db import Database
from repro.errors import LockOrderError
from repro.txn.lockdep import (
    HIERARCHY,
    INV_FAMILY,
    VALIDATOR,
    LockdepMutex,
    check_edges,
    classify_resource,
    declared_allows,
)
from repro.txn.locks import LockManager, LockMode
from repro.txn.rangelock import RangeResource


@pytest.fixture
def clean_graph():
    """Reset the observed-edge graph before and after the test."""
    VALIDATOR.reset()
    yield
    VALIDATOR.reset()


class TestHierarchyTable:
    @pytest.mark.armed
    def test_suite_runs_armed(self):
        # conftest.py arms the validator for the whole suite; the
        # acceptance criterion is that everything passes this way.
        assert VALIDATOR.armed

    def test_every_class_has_unique_rank_within_domain(self):
        scoped = [c.rank for c in HIERARCHY.values()
                  if c.domain == "scoped"]
        heavy = [c.rank for c in HIERARCHY.values() if c.domain == "heavy"]
        assert len(scoped) == len(set(scoped))
        assert len(heavy) == len(set(heavy))

    def test_inv_family_is_rank_ordered(self):
        ranks = [HIERARCHY[name].rank for name in INV_FAMILY]
        assert ranks == sorted(ranks)

    def test_classify_resource(self):
        assert classify_resource(("relation", "T")) == "lock:relation"
        assert classify_resource(("inv_tree", 7)) == "lock:inv_tree"
        assert classify_resource(("losize", 3)) == "lock:losize"
        assert classify_resource(("mystery", 1)) == "lock:other"
        assert classify_resource(42) == "lock:other"
        rng = RangeResource("largeobject", 5, 0, 100)
        assert classify_resource(rng) == "lock:largeobject"

    def test_declared_allows(self):
        assert declared_allows("latch", "mutex:buffer")      # 40 -> 65
        assert not declared_allows("mutex:buffer", "latch")  # 65 -> 40
        assert declared_allows("mutex:txn", "mutex:txn")          # re-entrant
        assert not declared_allows("mutex:txn", "lock:relation")  # heavy under
        assert declared_allows("lock:relation", "mutex:txn")      # heavy first
        assert declared_allows("lock:inv_stat", "lock:inv_tree")  # heavy edges
        assert not declared_allows("nonsense", "mutex:txn")

    def test_check_edges_flags_offenders(self):
        edges = {
            "latch -> mutex:buffer": 10,
            "mutex:clock -> mutex:buffer": 1,   # 90 -> 65: inverted
            "mutex:txn -> lock:relation": 2,    # heavy under mutex
        }
        assert check_edges(edges) == [
            "mutex:clock -> mutex:buffer",
            "mutex:txn -> lock:relation",
        ]
        assert check_edges({"latch -> mutex:buffer": 1}) == []

    def test_unknown_class_rejected_at_construction(self):
        with pytest.raises(ValueError):
            LockdepMutex("mutex:not_in_table")
        with pytest.raises(ValueError):
            LockdepMutex("lock:relation")  # heavy classes aren't mutexes


@pytest.mark.armed
class TestScopedInversion:
    def test_inversion_raises_with_both_stacks(self, clean_graph):
        outer = LockdepMutex("mutex:buffer")   # rank 65
        inner = LockdepMutex("mutex:txn")      # rank 45: must come first
        with outer:
            with pytest.raises(LockOrderError) as exc:
                inner.acquire()
        message = str(exc.value)
        assert "mutex:txn" in message and "mutex:buffer" in message
        assert "was acquired at" in message       # holder's stack
        assert "is being acquired at" in message  # acquirer's stack
        # The raise happened *before* blocking: inner is untouched and
        # still acquirable in the correct order.
        with inner:
            with outer:
                pass

    def test_inversion_raises_in_worker_thread(self, clean_graph):
        first = LockdepMutex("mutex:clock")    # rank 90 (innermost)
        second = LockdepMutex("mutex:smgr", reentrant=True)  # rank 70
        caught = []

        def worker():
            with first:
                try:
                    with second:
                        pass
                except LockOrderError as exc:
                    caught.append(exc)

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(caught) == 1
        assert "mutex:clock" in str(caught[0])

    def test_reentrant_same_instance_allowed(self, clean_graph):
        mutex = LockdepMutex("mutex:smgr", reentrant=True)
        with mutex:
            with mutex:
                assert "mutex:smgr" in VALIDATOR.scoped_held()
        assert "mutex:smgr" not in VALIDATOR.scoped_held()

    def test_second_acquire_of_a_non_reentrant_mutex_raises(
            self, clean_graph):
        """The thread would wait for itself: raise before blocking, where
        a reentrant instance is let through."""
        mutex = LockdepMutex("mutex:txn")
        with mutex:
            with pytest.raises(LockOrderError) as exc:
                mutex.acquire(True, 0.5)
        message = str(exc.value)
        assert "self-deadlock" in message and "mutex:txn" in message
        assert "acquired at" in message             # the holder's stack
        assert "mutex:txn" not in VALIDATOR.scoped_held()
        with mutex:         # nothing was taken: it is free again
            pass

    def test_correct_order_records_edges(self, clean_graph):
        outer = LockdepMutex("mutex:txn")
        inner = LockdepMutex("mutex:buffer")
        with outer:
            with inner:
                pass
        assert VALIDATOR.edges().get("mutex:txn -> mutex:buffer", 0) >= 1
        assert check_edges(VALIDATOR.edges()) == []


@pytest.mark.armed
class TestBlockingUnderMutex:
    def test_heavy_acquire_under_mutex_raises(self, clean_graph):
        locks = LockManager()
        mutex = LockdepMutex("mutex:txn")
        with mutex:
            with pytest.raises(LockOrderError) as exc:
                locks.acquire(1, ("relation", "T"), LockMode.SHARED)
        message = str(exc.value)
        assert "blocking-under-mutex" in message
        assert "lock:relation" in message and "mutex:txn" in message
        assert "was acquired at" in message
        # Nothing was granted: the same request succeeds outside.
        locks.acquire(1, ("relation", "T"), LockMode.SHARED)
        locks.release_all(1)

    def test_latched_heavy_wait_raises(self, clean_graph):
        """The end-to-end shape the validator exists for: a thread
        holding the engine latch must not park on a heavy lock."""
        db = Database(charge_cpu=False)
        try:
            db.create_class("T", [("n", "int4")])
            with db.begin() as txn:
                db.insert(txn, "T", (1,))
            txn = db.begin()
            with pytest.raises(LockOrderError):
                with db.latch:
                    db.locks.acquire(txn.xid, ("relation", "T"),
                                     LockMode.EXCLUSIVE)
            txn.abort()
        finally:
            db.close()


class TestOperationScopes:
    @pytest.mark.armed
    def test_protocol_order_enforced_within_scope(self, clean_graph):
        locks = LockManager()
        with VALIDATOR.operation("seeded-attempt"):
            locks.acquire(7, ("inv_tree", 1), LockMode.EXCLUSIVE)
            with pytest.raises(LockOrderError) as exc:
                locks.acquire(7, ("inv_entry", 2), LockMode.EXCLUSIVE)
        message = str(exc.value)
        assert "seeded-attempt" in message
        assert "lock:inv_entry" in message and "lock:inv_tree" in message
        locks.release_all(7)

    def test_order_free_across_scopes(self, clean_graph):
        # Strict 2PL: separate attempts may touch the family in any
        # order (the retry loop in _lock_slots relies on this).
        locks = LockManager()
        with VALIDATOR.operation("first"):
            locks.acquire(8, ("inv_stat", 1), LockMode.SHARED)
        with VALIDATOR.operation("second"):
            locks.acquire(8, ("inv_entry", 2), LockMode.EXCLUSIVE)
        locks.release_all(8)

    def test_no_scope_no_protocol_check(self, clean_graph):
        locks = LockManager()
        locks.acquire(9, ("inv_stat", 1), LockMode.SHARED)
        locks.acquire(9, ("inv_entry", 2), LockMode.EXCLUSIVE)
        locks.release_all(9)


@pytest.mark.armed
class TestObservedGraph:
    def test_statistics_payload_shape(self, clean_graph):
        db = Database()
        try:
            stats = db.statistics()["lockdep"]
            assert set(stats) == {"armed", "edges", "violations"}
            assert stats["armed"] is True
            assert stats["violations"] == 0
        finally:
            db.close()

    def test_threaded_workload_graph_matches_declared_order(
            self, clean_graph):
        """The acceptance gate: hammer a real Database from several
        threads and assert every observed edge is in the declared
        hierarchy (the runtime graph is a subgraph of the docs)."""
        db = Database(charge_cpu=False)
        errors = []

        def writer(n):
            try:
                for i in range(20):
                    with db.begin() as txn:
                        db.insert(txn, "T", (n * 100 + i,))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        def filer(n):
            try:
                fs = db.inversion
                with db.begin() as txn:
                    fs.mkdir(txn, f"/w{n}")
                for i in range(5):
                    with db.begin() as txn:
                        fs.create(txn, f"/w{n}/f{i}")
                        fs.write_file(txn, f"/w{n}/f{i}", b"x" * 64)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        try:
            db.create_class("T", [("n", "int4")])
            threads = ([threading.Thread(target=writer, args=(n,),
                                         daemon=True) for n in range(3)]
                       + [threading.Thread(target=filer, args=(n,),
                                           daemon=True) for n in range(2)])
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []

            stats = db.statistics()["lockdep"]
            assert stats["violations"] == 0
            assert check_edges(stats["edges"]) == []
            # The workload must actually have exercised the stack:
            # latch-then-mutex is the engine's bread and butter.
            observed = stats["edges"]
            assert any(key.startswith("latch -> ")
                       for key in observed), observed
        finally:
            db.close()


@pytest.fixture
def armed_as(request):
    """Set the validator to ``request.param`` for the test, then restore."""
    was = VALIDATOR.armed
    VALIDATOR.arm() if request.param else VALIDATOR.disarm()
    yield
    VALIDATOR.arm() if was else VALIDATOR.disarm()


def _engine_locks(db):
    return {"bufmgr._latch": db.bufmgr._latch, "clock._mutex": db.clock._mutex,
            "clog._mutex": db.clog._mutex, "db.latch": db.latch}


_BARE = (type(threading.Lock()), type(threading.RLock()))


class TestConstructionTimeRule:
    """The armed state is read when a lock is built.  Built disarmed, as
    ``repro-server`` and the benchmark build theirs, a ``LockdepMutex`` is
    the bare ``threading`` lock; built armed, the validating wrapper."""

    @pytest.mark.parametrize("armed_as", [False], indirect=True)
    def test_disarmed_database_has_bare_locks(self, armed_as):
        with Database() as db:
            for where, lock in _engine_locks(db).items():
                assert type(lock) in _BARE, where
            db.create_class("T", [("v", "int4")])
            with db.begin() as txn:
                tid = db.insert(txn, "T", (1,))
            relation = db.get_class("T")
            assert relation.latch_probe is None
            # No tripwire: a raw read outside the latch is allowed.
            assert relation.fetch(tid, db.snapshot()).values == (1,)

    @pytest.mark.parametrize("armed_as", [True], indirect=True)
    def test_armed_database_has_validating_locks(self, armed_as):
        with Database() as db:
            for where, lock in _engine_locks(db).items():
                assert isinstance(lock, LockdepMutex), where
            db.create_class("T", [("v", "int4")])
            assert db.get_class("T").latch_probe is not None

    @pytest.mark.parametrize("armed_as", [False], indirect=True)
    def test_arming_later_leaves_earlier_locks_bare(self, armed_as):
        with Database() as first:
            VALIDATOR.arm()
            with Database() as second:
                assert type(first.clock._mutex) in _BARE
                assert isinstance(second.clock._mutex, LockdepMutex)
                first.create_class("T", [("v", "int4")])
                with first.begin() as txn:
                    tid = first.insert(txn, "T", (1,))
                assert first.get_class("T").latch_probe is None
                assert first.get_class("T").fetch(
                    tid, first.snapshot()).values == (1,)


# ---------------------------------------------------------------------------
# Planted bugs: armed tier-1 fails on each (lock order, the latch
# tripwire, R005's runtime witness)
# ---------------------------------------------------------------------------

class PlantedBug(NamedTuple):
    """One one-line bug at a real site, the tier-1 test that fails on it
    armed, and what the failing run shows (docs/invariants.md, "Lock
    order", R005 and R010's raw-read row)."""

    name: str
    module: str      #: path under src/repro
    original: str    #: the exact line, which must occur once in *module*
    mutated: str
    test: str        #: node id of the catching tier-1 test
    shows: str = "LockOrderError"   #: text the failing run must print


#: What the armed latch tripwire says about a raw read outside it.
TRIPWIRE = "without the engine latch"

PLANTED = [
    PlantedBug(
        "db-relation-under-latch", "db.py",
        '            self.locks.acquire(txn.xid, ("relation", class_name),',
        '            with self._latch: self.locks.acquire(txn.xid, '
        '("relation", class_name),',
        "tests/test_archive.py::TestSweep::test_moves_dead_versions"),
    PlantedBug(
        "access-delete-under-latch", "access/scan.py",
        "        self.db.share_relation(txn, self.relation.name)",
        "        with self.db.latch: "
        "self.db.share_relation(txn, self.relation.name)",
        "tests/test_fastpath.py::TestFastModeSemantics::"
        "test_truncate_then_reextend[fchunk]"),
    PlantedBug(
        "lo-range-under-latch", "lo/chunked.py",
        "        self.db.locks.acquire(self.txn.xid, "
        "lo_range(self.oid, lo, hi),",
        "        with self.db.latch: self.db.locks.acquire(self.txn.xid, "
        "lo_range(self.oid, lo, hi),",
        "tests/test_archive.py::TestSweepKeepsWhatLiveReadersSee::"
        "test_descriptor_reading_the_past[fchunk]"),
    PlantedBug(
        "lo-whole-under-latch", "lo/chunked.py",
        "        self.db.locks.acquire(self.txn.xid, lo_whole(self.oid),",
        "        with self.db.latch: self.db.locks.acquire(self.txn.xid, "
        "lo_whole(self.oid),",
        "tests/test_fastpath.py::TestFastModeSemantics::"
        "test_truncate_then_reextend[fchunk]"),
    PlantedBug(
        "lo-eof-retry-under-latch", "lo/chunked.py",
        "            self._lock_span(start, at + length)",
        "            with self.db.latch: self._lock_span(start, at + length)",
        "tests/test_archive.py::TestSweepKeepsWhatLiveReadersSee::"
        "test_descriptor_reading_the_past[vsegment]"),
    PlantedBug(
        "lo-unlink-under-registry", "lo/manager.py",
        "        self.db.locks.acquire(txn.xid, lo_whole(oid), "
        "LockMode.EXCLUSIVE)",
        "        with self._registry_mutex: self.db.locks.acquire(txn.xid, "
        "lo_whole(oid), LockMode.EXCLUSIVE)",
        "tests/test_client.py::TestLifecycle::test_unlink"),
    PlantedBug(
        "lo-latch-under-registry", "lo/manager.py",
        "            start = max(self._append_cursors.get(store_oid, 0), "
        "eof_hint)",
        "            with self.db.latch: start = max("
        "self._append_cursors.get(store_oid, 0), eof_hint)",
        "tests/test_archive.py::TestSweepKeepsWhatLiveReadersSee::"
        "test_descriptor_reading_the_past[vsegment]"),
    PlantedBug(
        "lo-txn-mutex-under-registry", "lo/manager.py",
        "            self._open_counts[oid] = self._open_counts.get(oid, 0) "
        "+ 1",
        "            self._open_counts[oid] = self._open_counts.get(oid, 0) "
        "+ 1; self.db.tm.active_count()",
        "tests/test_archive.py::TestSweepKeepsWhatLiveReadersSee::"
        "test_descriptor_reading_the_past[fchunk]"),
    PlantedBug(
        "lo-losize-under-latch", "lo/metadata.py",
        '    db.locks.acquire(txn.xid, ("losize", oid), LockMode.EXCLUSIVE)',
        '    with db.latch: db.locks.acquire(txn.xid, ("losize", oid), '
        'LockMode.EXCLUSIVE)',
        "tests/test_archive.py::TestSweepKeepsWhatLiveReadersSee::"
        "test_descriptor_reading_the_past[fchunk]"),
    PlantedBug(
        "lo-losize-reread-under-latch", "lo/metadata.py",
        "        row = size_row(db, oid, db.snapshot(txn))",
        "        with db.latch: row = size_row(db, oid, db.snapshot(txn)); "
        'db.locks.acquire(txn.xid, ("losize", oid), LockMode.EXCLUSIVE)',
        "tests/test_rangelock.py::TestSizeRowWait::"
        "test_a_size_writer_that_waited_rereads_the_row"),
    PlantedBug(
        "inv-tree-under-latch", "inversion/filesystem.py",
        '        self.db.locks.acquire(txn.xid, ("inv_tree", dir_id), mode)',
        '        with self.db.latch: self.db.locks.acquire(txn.xid, '
        '("inv_tree", dir_id), mode)',
        "tests/test_bench.py::TestCli::test_all_then_claims_runs_the_claims"),
    PlantedBug(
        "inv-stat-under-latch", "inversion/filesystem.py",
        "        self._lock_stat(txn, file_id)",
        "        with self.db.latch: self._lock_stat(txn, file_id)",
        "tests/test_bench.py::TestCli::test_all_then_claims_runs_the_claims"),
    PlantedBug(
        "inv-tree-before-entry", "inversion/filesystem.py",
        "                chains, moving = seen",
        "                chains, moving = seen; "
        "self._lock_tree(txn, ROOT_ID, LockMode.SHARED)",
        "tests/test_bench.py::TestCli::test_all_then_claims_runs_the_claims"),
    PlantedBug(
        "inv-dirmove-after-tree", "inversion/filesystem.py",
        "                    self._lock_tree(txn, moving, LockMode.EXCLUSIVE)",
        "                    self._lock_tree(txn, moving, LockMode.EXCLUSIVE); "
        'self.db.locks.acquire(txn.xid, ("inv_dirmove",), '
        "LockMode.EXCLUSIVE)",
        "tests/test_inversion.py::TestTimeTravelChains::"
        "test_rename_chain_of_directory_with_contents"),
    PlantedBug(
        "inv-stat-before-tree-rmdir", "inversion/filesystem.py",
        "            self._lock_tree(txn, entry.file_id, LockMode.EXCLUSIVE)",
        "            self._lock_stat(txn, entry.file_id); "
        "self._lock_tree(txn, entry.file_id, LockMode.EXCLUSIVE)",
        "tests/test_inversion.py::TestRemoveRename::test_rmdir"),
    PlantedBug(
        "inv-relook-under-latch", "inversion/filesystem.py",
        "            slots, again = look(snapshot)",
        "            with self.db.latch: slots, again = look(snapshot); "
        "self._lock_tree(txn, ROOT_ID, LockMode.SHARED)",
        "tests/test_inversion.py::TestTransactions::"
        "test_same_path_rename_waits_for_the_unlink_it_races[abort]"),
    PlantedBug(
        "inv-except-create-race", "inversion/filesystem.py",
        "                exists = True",
        "                with self.db.latch: exists = True; "
        "self._lock_tree(txn, ROOT_ID, LockMode.SHARED)",
        "tests/test_inversion.py::TestTransactions::"
        "test_write_file_that_loses_the_create_race_replaces"),
    PlantedBug(
        "txn-heavy-under-txn-mutex", "txn/manager.py",
        "            self._active[xid] = txn",
        "            self._active[xid] = txn; "
        "from repro.txn.locks import LockMode; "
        'self.locks.acquire(xid, ("relation", "pg_class"), LockMode.SHARED)',
        "tests/test_archive.py::TestSweep::test_moves_dead_versions"),
    PlantedBug(
        "txn-mutex-under-itself", "txn/manager.py",
        "            self._ended += 1    # before the release: a woken "
        "waiter re-looks",
        "            self._ended += 1; self._mutex.acquire(True, 0.5)",
        "tests/test_archive.py::TestSweep::test_moves_dead_versions"),
    PlantedBug(
        "server-latch-under-conn-lock", "server/server.py",
        "            live = list(self._connections.values())",
        "            with self.db.latch: "
        "live = list(self._connections.values())",
        "tests/test_doctests.py::"
        "test_docstring_examples_run[repro.server.client]"),
    PlantedBug(
        "server-finally-latch-under-conn-lock", "server/server.py",
        "                self._connections.pop(conn_id, None)",
        "                with self.db.latch: "
        "self._connections.pop(conn_id, None)",
        "tests/test_doctests.py::"
        "test_docstring_examples_run[repro.server.client]"),
    PlantedBug(
        "smgr-buffer-under-topology", "smgr/sharded.py",
        "                    self._write_quorum(fileid, blockno, data)",
        '                    with LockdepMutex("mutex:buffer"): '
        "self._write_quorum(fileid, blockno, data)",
        "tests/test_bench.py::TestCli::test_all_then_claims_runs_the_claims"),
    PlantedBug(
        "catalog-registry-under-oid", "catalog/catalog.py",
        "            oid = self._next_oid",
        '            with LockdepMutex("mutex:lo_registry"): '
        "oid = self._next_oid",
        "tests/test_archive.py::TestSweep::test_moves_dead_versions"),
    # Raw heap/B-tree reads outside the scan layer: the armed latch
    # tripwire fails each.  One inside Database's own ``with
    # self._latch:`` blocks would pass it; only R010's raw-read row sees
    # that one.
    PlantedBug(
        "raw-fetch-in-fchunk", "lo/fchunk.py",
        "            tup = fetch_visible(self.db, self.relation, tid, snapshot)",
        "            tup = self.relation.fetch(tid, snapshot)",
        "tests/test_fastpath.py::TestWriterHeldAcrossAnEpochMove::"
        "test_epoch_moves_in_the_middle_of_one_write[True-fchunk]",
        TRIPWIRE),
    PlantedBug(
        "raw-fetch-in-db-fetch", "db.py",
        "        return fetch_visible(self, self.get_class(class_name), tid, "
        "snapshot)",
        "        return self.get_class(class_name).fetch(tid, snapshot)",
        "tests/test_misc_coverage.py::TestSessionRows::"
        "test_delete_and_fetch_run_in_the_sessions_transaction",
        TRIPWIRE),
    PlantedBug(
        "raw-search-in-index-lookup", "db.py",
        "        return IndexProbe(self, index, relation, key,",
        "        return [t for t in (relation.fetch(tid, snapshot) for tid in "
        "index.search(key)) if t is not None] or IndexProbe(self, index, "
        "relation, key,",
        "tests/test_archive.py::"
        "test_every_surface_reads_the_same_past[False-index_lookup]",
        TRIPWIRE),
    PlantedBug(
        "raw-range-scan-in-store-size", "lo/vsegment.py",
        "    scan = IndexRangeScan(db, index, relation, None, _LAST_SEQNO)",
        "    list(index.range_scan(None, _LAST_SEQNO)); "
        "scan = IndexRangeScan(db, index, relation, None, _LAST_SEQNO)",
        "tests/test_archive.py::TestSweepKeepsWhatLiveReadersSee::"
        "test_descriptor_reading_the_past[vsegment]",
        TRIPWIRE),
    PlantedBug(
        "raw-search-in-ql-probe", "ql/executor.py",
        "            scan = IndexProbe(self.db, index, relation, lo,",
        "            index.search(lo); "
        "scan = IndexProbe(self.db, index, relation, lo,",
        "tests/test_ql.py::TestDefineIndex::test_define_and_probe",
        TRIPWIRE),
    PlantedBug(
        "raw-search-in-inversion-lookup", "inversion/filesystem.py",
        "        return IndexProbe(self.db, index, relation, key)"
        ".tuples(snapshot)",
        "        return [t for t in (relation.fetch(tid, snapshot) for tid in "
        "index.search(key)) if t is not None]",
        "tests/test_inversion.py::TestBasics::test_root_exists",
        TRIPWIRE),
    # The autocommit path stops aborting its transaction on error.  R005
    # flags the first plant in the source, but reads only whether a
    # handler names abort, so the second (the guard inverted) passes it;
    # the runtime witness fails on both.
    PlantedBug(
        "ql-autocommit-leaks-its-transaction", "ql/executor.py",
        "                txn.abort()",
        "                pass",
        "tests/test_ql.py::TestTransactionsInQl::"
        "test_a_failed_statement_ends_its_own_transaction",
        "leaked its transaction"),
    PlantedBug(
        "ql-autocommit-abort-guard-inverted", "ql/executor.py",
        "            if own_txn and txn.is_active:",
        "            if own_txn and not txn.is_active:",
        "tests/test_ql.py::TestTransactionsInQl::"
        "test_a_failed_statement_ends_its_own_transaction",
        "leaked its transaction"),
    # The crash path (docs/invariants.md, "Force"): a force that skips a
    # clean file's sync, a pool that turns a file clean before its write
    # returns, and a leaf splice that unpins its page clean each lose
    # committed bytes without a lock-order error.
    PlantedBug(
        "force-skips-the-sync-of-a-clean-file", "smgr/base.py",
        "            if written is not None:",
        "            if written is not None and runs:",
        "tests/test_crash.py::TestDurabilityBugfixes::"
        "test_force_syncs_even_with_no_dirty_pages",
        'op_count("sync", "f")'),
    PlantedBug(
        "pool-cleans-before-the-write", "storage/buffer.py",
        "                smgr.force(batch, self._written)",
        "                any(self._written(smgr, fileid) for fileid, _ in "
        "batch); smgr.force(batch, self._written)",
        "tests/test_force.py::test_a_short_write_leaves_the_file_dirty",
        "KeyError"),
    PlantedBug(
        "store-leaf-unpins-clean", "access/btree.py",
        "            bufmgr.unpin(buf, dirty=True)",
        "            bufmgr.unpin(buf)",
        "tests/test_btree.py::TestPersistence::"
        "test_a_spliced_leaf_reaches_the_device",
        "assert [] == [(2, 0)]"),
    # A static row: a second write check beside the one body's own trips
    # R010 on the planted copy, which the analyzer's tier-1 test reads.
    PlantedBug(
        "second-write-check-site", "smgr/base.py",
        "                    self._check_write(fileid, runs)",
        "                    self._check_write(fileid, runs); "
        "self._check_write(fileid, runs)",
        "tests/test_analysis.py::TestShippedTreeIsClean::"
        "test_every_rule_is_exercised_by_the_tree_or_suppressions",
        "R010"),
]

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.mutation
class TestPlantedBugs:
    """Each planted bug makes its catching tier-1 test fail armed, and
    the failing run shows the row's text (``LockOrderError`` for an
    ordering bug).  The bug goes into a copy of ``src/repro``, and the
    test runs in a subprocess against that copy."""

    @pytest.mark.parametrize("bug", PLANTED, ids=[b.name for b in PLANTED])
    def test_armed_tier1_catches_the_planted_bug(self, bug, tmp_path):
        tree = tmp_path / "src" / "repro"
        shutil.copytree(REPO_ROOT / "src" / "repro", tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = tree / bug.module
        lines = path.read_text().split("\n")
        assert lines.count(bug.original) == 1, (
            f"{bug.module}: the planted site moved; update the row")
        lines[lines.index(bug.original)] = bug.mutated
        path.write_text("\n".join(lines))
        env = dict(os.environ, REPRO_LOCKDEP="1",
                   PYTHONPATH=str(tmp_path / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-p", "no:cacheprovider",
             bug.test],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=600)
        output = result.stdout + result.stderr
        assert result.returncode == 1, output[-3000:]
        assert bug.shows in output, output[-3000:]
