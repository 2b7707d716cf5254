"""The lockdep runtime validator (repro.txn.lockdep).

The suite runs with ``REPRO_LOCKDEP=1`` (tests/conftest.py), so every
instrumented acquisition in every other test already flows through the
validator; these tests exercise the validator *itself* — the declared
hierarchy, deliberate inversions raising with both stacks, and the
observed-edge graph surfaced through ``db.statistics()["lockdep"]``.

Deliberate violations record their (bad) edge before raising, so each
such test resets the global graph afterwards — otherwise a later test
asserting ``check_edges(...) == []`` would trip over the seeded edge.
"""

import threading

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

    def test_correct_order_records_edges(self, clean_graph):
        outer = LockdepMutex("mutex:txn")
        inner = LockdepMutex("mutex:buffer")
        with outer:
            with inner:
                pass
        assert VALIDATOR.edges().get("mutex:txn -> mutex:buffer", 0) >= 1
        assert check_edges(VALIDATOR.edges()) == []


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
