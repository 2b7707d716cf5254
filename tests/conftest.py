"""Shared fixtures: a wired-up storage/transaction stack without the DB façade."""

import itertools
import os
import threading

import pytest

# Arm the lockdep runtime validator for the whole suite: every
# instrumented acquisition (heavy locks, engine latch, the LockdepMutex
# classes) is checked against the declared hierarchy in
# repro/txn/lockdep.py and recorded into the observed-edge graph surfaced
# by db.statistics()["lockdep"].  The engine-latch tripwire rides on the
# same switch: every Database the tests construct asserts that raw page
# reads (relation.fetch, B-tree search/range_scan) happen under the
# engine latch — i.e. through the scan layer in repro.access.scan.
# setdefault, so a caller can still run with REPRO_LOCKDEP=0 to measure
# without the checks.
os.environ.setdefault("REPRO_LOCKDEP", "1")

from repro.sim import SimClock
from repro.smgr import MemoryStorageManager
from repro.storage import BufferManager
from repro.txn import CommitLog, LockManager, TransactionManager
from repro.txn.lockdep import VALIDATOR


def pytest_collection_modifyitems(config, items):
    """Keep ``monkey``/``shard``/``mutation``-marked tests out of the
    default run.

    Unlike the other markers, which select *extra* CI jobs, the first two
    tiers are strictly larger versions of smoke tests that already run
    unmarked, and ``mutation`` re-runs tier-1 tests against planted bugs
    — so under a plain ``pytest`` they are skipped unless the ``-m``
    expression mentions the marker explicitly.
    """
    markexpr = config.getoption("-m", default="") or ""
    for marker in ("monkey", "shard", "mutation"):
        if marker in markexpr:
            continue
        skip = pytest.mark.skip(reason=f"needs -m {marker}")
        for item in items:
            if marker in item.keywords:
                item.add_marker(skip)


@pytest.fixture(autouse=True)
def fail_on_leaked_threads():
    """Fail fast when a test leaves a non-daemon thread running.

    A leaked worker usually means a lock wait that never woke up; without
    this guard it surfaces as the whole pytest process hanging at exit,
    far from the culprit.  (Daemon threads are tolerated: the threaded
    tests use them precisely so a stuck waiter fails an assertion instead
    of wedging the interpreter.)
    """
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate()
              if t not in before and t.is_alive() and not t.daemon]
    if leaked:
        names = ", ".join(t.name for t in leaked)
        pytest.fail(f"test leaked non-daemon thread(s): {names}")


@pytest.fixture(autouse=True)
def fail_on_lock_order_violations(request):
    """Fail a test during which the validator raised LockOrderError.

    The validator raises at the offending acquisition, but the error can
    die where nobody looks: in a worker or server-connection thread, in
    an ``except`` that turns engine errors into replies or reports, in a
    ``finally`` after the test's own checks.  The violation count still
    moved, so the test that caused it fails here.  Tests of the
    validator itself provoke violations on purpose and reset the graph
    (the ``clean_graph`` fixture of tests/test_lockdep.py).
    """
    before = VALIDATOR.as_dict()["violations"]
    yield
    raised = VALIDATOR.as_dict()["violations"] - before
    if raised > 0 and "clean_graph" not in request.fixturenames:
        pytest.fail(f"the lock-order validator raised {raised} "
                    f"LockOrderError(s) during this test")


class Stack:
    """A minimal wired stack for access-layer tests."""

    def __init__(self, pool_size=64):
        self.clock = SimClock()
        self.smgr = MemoryStorageManager(self.clock)
        self.bufmgr = BufferManager(pool_size=pool_size)
        self.clog = CommitLog()
        self.locks = LockManager()
        self.tm = TransactionManager(self.clog, self.bufmgr,
                                     self.locks, self.clock)
        self._oids = itertools.count(1)

    def next_oid(self):
        return next(self._oids)


@pytest.fixture
def stack():
    return Stack()
