"""Stateful (model-based) hypothesis tests.

Hypothesis drives long random operation sequences against the Inversion
file system and a large object, checking after every step that the system
agrees with a trivially-correct in-memory model.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.db import Database

NAMES = st.sampled_from(["alpha", "beta", "gamma", "delta", "data.bin"])
CONTENT = st.binary(min_size=0, max_size=3000)


class InversionModel(RuleBasedStateMachine):
    """Inversion vs a dict of path -> bytes (directories implicit)."""

    @initialize()
    def setup(self):
        self.db = Database(charge_cpu=False)
        self.fs = self.db.inversion
        self.files: dict[str, bytes] = {}
        self.dirs: set[str] = set()

    def teardown(self):
        self.db.close()

    def _parent_exists(self, directory: str) -> bool:
        return directory == "" or directory in self.dirs

    @rule(directory=NAMES)
    def mkdir(self, directory):
        path = f"/{directory}"
        if path in self.dirs or path in self.files:
            return
        with self.db.begin() as txn:
            self.fs.mkdir(txn, path)
        self.dirs.add(path)

    @rule(directory=st.one_of(st.just(""), NAMES), name=NAMES,
          content=CONTENT)
    def write(self, directory, name, content):
        prefix = f"/{directory}" if directory else ""
        if prefix and prefix not in self.dirs:
            return
        path = f"{prefix}/{name}"
        if path in self.dirs:
            return
        with self.db.begin() as txn:
            self.fs.write_file(txn, path, content)
        self.files[path] = content

    @rule(content=CONTENT)
    def aborted_write_changes_nothing(self, content):
        if not self.files:
            return
        path = next(iter(self.files))
        txn = self.db.begin()
        with self.fs.open(path, txn, "rw") as handle:
            handle.write(content + b"!")
        txn.abort()

    @rule()
    def unlink_one(self):
        if not self.files:
            return
        path = sorted(self.files)[0]
        with self.db.begin() as txn:
            self.fs.unlink(txn, path)
        del self.files[path]

    @rule(src_name=NAMES, dst_name=NAMES)
    def rename_toplevel(self, src_name, dst_name):
        src, dst = f"/{src_name}", f"/{dst_name}"
        if src not in self.files or dst in self.files or dst in self.dirs:
            return
        with self.db.begin() as txn:
            self.fs.rename(txn, src, dst)
        self.files[dst] = self.files.pop(src)

    @invariant()
    def contents_match_model(self):
        if not hasattr(self, "fs"):
            return
        for path, expected in self.files.items():
            assert self.fs.read_file(path) == expected

    @invariant()
    def listings_match_model(self):
        if not hasattr(self, "fs"):
            return
        expected_top = {p[1:] for p in self.files if p.count("/") == 1}
        expected_top |= {d[1:] for d in self.dirs}
        assert set(self.fs.listdir("/")) == expected_top


class LargeObjectModel(RuleBasedStateMachine):
    """One v-segment object vs a plain bytearray, across transactions."""

    @initialize()
    def setup(self):
        self.db = Database(charge_cpu=False)
        with self.db.begin() as txn:
            self.designator = self.db.lo.create(
                txn, "vsegment", compression="zero-rle")
        self.model = bytearray()
        self.txn = None
        self.handle = None

    def teardown(self):
        if self.handle is not None and not self.handle.closed:
            self.handle.close()
        if self.txn is not None and self.txn.is_active:
            self.txn.abort()
        self.db.close()

    @precondition(lambda self: self.txn is None)
    @rule()
    def begin(self):
        self.txn = self.db.begin()
        self.handle = self.db.lo.open(self.designator, self.txn, "rw")
        self.pending = bytearray(self.model)

    @precondition(lambda self: self.txn is not None)
    @rule(offset=st.integers(0, 30_000), data=st.binary(min_size=1,
                                                        max_size=5000))
    def write(self, offset, data):
        self.handle.seek(offset)
        self.handle.write(data)
        if offset > len(self.pending):
            self.pending.extend(bytes(offset - len(self.pending)))
        self.pending[offset:offset + len(data)] = data

    @precondition(lambda self: self.txn is not None)
    @rule(offset=st.integers(0, 35_000), length=st.integers(1, 8000))
    def read_inside_txn(self, offset, length):
        self.handle.seek(offset)
        assert self.handle.read(length) == \
            bytes(self.pending[offset:offset + length])

    @precondition(lambda self: self.txn is not None)
    @rule()
    def commit(self):
        self.handle.close()
        self.txn.commit()
        self.model = self.pending
        self.txn = self.handle = None

    @precondition(lambda self: self.txn is not None)
    @rule()
    def abort(self):
        self.handle.close()
        self.txn.abort()
        self.txn = self.handle = None

    @invariant()
    def committed_state_matches_model(self):
        if not hasattr(self, "db") or self.txn is not None:
            return
        with self.db.lo.open(self.designator) as obj:
            assert obj.read() == bytes(self.model)


TestInversionStateful = InversionModel.TestCase
TestInversionStateful.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None)

TestLargeObjectStateful = LargeObjectModel.TestCase
TestLargeObjectStateful.settings = settings(
    max_examples=10, stateful_step_count=20, deadline=None)


class BTreeModel(RuleBasedStateMachine):
    """The disk B-tree vs a sorted multiset of (key, value) pairs."""

    keys = st.integers(-500, 500)

    @initialize()
    def setup(self):
        from repro.access.btree import BTree
        from repro.sim import SimClock
        from repro.smgr import MemoryStorageManager
        from repro.storage import BufferManager
        self.smgr = MemoryStorageManager(SimClock())
        self.bufmgr = BufferManager(pool_size=16)
        self.tree = BTree("model", self.smgr, self.bufmgr, key_arity=1)
        self.tree.create_storage()
        self.reference: list[tuple[int, tuple[int, int]]] = []
        self.counter = 0

    @rule(key=keys)
    def insert(self, key):
        value = (self.counter, 0)
        self.counter += 1
        self.tree.insert((key,), value)
        self.reference.append((key, value))

    @rule(key=keys)
    def insert_burst(self, key):
        """Many duplicates at once drives leaf splits on one key."""
        for _ in range(40):
            value = (self.counter, 0)
            self.counter += 1
            self.tree.insert((key,), value)
            self.reference.append((key, value))

    @rule(key=keys)
    def delete_key(self, key):
        removed = self.tree.delete((key,))
        expected = sum(1 for k, _v in self.reference if k == key)
        assert removed == expected
        self.reference = [(k, v) for k, v in self.reference if k != key]

    @rule(key=keys)
    def search(self, key):
        got = sorted(self.tree.search((key,)))
        expected = sorted(v for k, v in self.reference if k == key)
        assert got == expected

    @rule(lo=keys, hi=keys)
    def range_scan(self, lo, hi):
        if lo > hi:
            lo, hi = hi, lo
        got = [(k[0], v) for k, v in self.tree.range_scan((lo,), (hi,))]
        expected = sorted(
            ((k, v) for k, v in self.reference if lo <= k <= hi),
            key=lambda kv: kv[0])
        assert sorted(got) == sorted(expected)
        assert [k for k, _ in got] == sorted(k for k, _ in got)

    @invariant()
    def ordered_and_complete(self):
        if not hasattr(self, "tree"):
            return
        self.tree.check_invariants()
        assert self.tree.entry_count() == len(self.reference)


TestBTreeStateful = BTreeModel.TestCase
TestBTreeStateful.settings = settings(
    max_examples=10, stateful_step_count=30, deadline=None)


class TwoSessionModel(RuleBasedStateMachine):
    """Two interleaved sessions against one database, vs a visibility model.

    Hypothesis picks an arbitrary interleaving of begin / insert /
    LO-write / commit / abort across both sessions.  The model says what
    each side must see: committed rows are visible to everyone at the
    next statement, a session's own pending writes are visible only to
    it, and an abort erases pending work without a trace.  The schedule
    is single-threaded, so the rules stick to compatible locks (SHARED
    relation inserts, EXCLUSIVE on each session's *own* large object) —
    blocking conflicts belong to the threaded tests.
    """

    SESSIONS = st.sampled_from([0, 1])

    @initialize()
    def setup(self):
        self.db = Database(charge_cpu=False)
        self.db.create_class("events", [("session", "int4"), ("n", "int4")])
        self.sessions = [self.db.session(), self.db.session()]
        with self.db.begin() as txn:
            self.designators = [self.db.lo.create(txn, "fchunk")
                                for _ in range(2)]
        self.committed_rows: list[tuple[int, int]] = []
        self.pending_rows = [[], []]
        self.lo_committed = [bytearray(), bytearray()]
        self.lo_pending = [None, None]
        self.handles = [None, None]
        self.counter = 0

    def teardown(self):
        for session in getattr(self, "sessions", []):
            session.close()
        if hasattr(self, "db"):
            self.db.close()

    def _in_txn(self, s) -> bool:
        return self.sessions[s].in_transaction

    @rule(s=SESSIONS)
    def begin(self, s):
        if self._in_txn(s):
            return
        self.sessions[s].begin()
        self.pending_rows[s] = []
        self.lo_pending[s] = bytearray(self.lo_committed[s])
        self.handles[s] = self.sessions[s].lo_open(
            self.designators[s], "rw")

    @rule(s=SESSIONS)
    def insert_row(self, s):
        if not self._in_txn(s):
            return
        row = (s, self.counter)
        self.counter += 1
        self.sessions[s].insert("events", row)
        self.pending_rows[s].append(row)

    # Offsets reach chunk 3 so the f-chunk write buffer switches chunks
    # (and flushes) between the other session's commits and aborts.
    @rule(s=SESSIONS, offset=st.integers(0, 30_000),
          data=st.binary(min_size=1, max_size=800))
    def write_own_lo(self, s, offset, data):
        if not self._in_txn(s):
            return
        self.handles[s].seek(offset)
        self.handles[s].write(data)
        pending = self.lo_pending[s]
        if offset > len(pending):
            pending.extend(bytes(offset - len(pending)))
        pending[offset:offset + len(data)] = data

    @rule(s=SESSIONS, size=st.sampled_from([0, 5_000, 8_000, 12_000,
                                            20_000]))
    def truncate_own_lo(self, s, size):
        if not self._in_txn(s):
            return
        self.handles[s].truncate(size)
        pending = self.lo_pending[s]
        del pending[size:]
        pending.extend(bytes(size - len(pending)))

    @rule(s=SESSIONS)
    def commit(self, s):
        if not self._in_txn(s):
            return
        self.sessions[s].commit()  # closes the open LO handle first
        self.committed_rows.extend(self.pending_rows[s])
        self.lo_committed[s] = self.lo_pending[s]
        self.pending_rows[s] = []
        self.lo_pending[s] = None
        self.handles[s] = None

    @rule(s=SESSIONS)
    def abort(self, s):
        if not self._in_txn(s):
            return
        self.sessions[s].rollback()
        self.pending_rows[s] = []
        self.lo_pending[s] = None
        self.handles[s] = None

    @invariant()
    def each_session_sees_committed_plus_own_pending(self):
        if not hasattr(self, "db"):
            return
        for s in (0, 1):
            seen = sorted(t.values for t in self.sessions[s].scan("events"))
            expected = sorted(self.committed_rows
                              + (self.pending_rows[s]
                                 if self._in_txn(s) else []))
            assert seen == expected, f"session {s} visibility broken"

    @invariant()
    def detached_reader_sees_only_committed(self):
        if not hasattr(self, "db"):
            return
        seen = sorted(t.values for t in self.db.scan("events"))
        assert seen == sorted(self.committed_rows)
        for s in (0, 1):
            if not self._in_txn(s):
                with self.db.lo.open(self.designators[s]) as obj:
                    assert obj.read() == bytes(self.lo_committed[s])

    @invariant()
    def no_locks_leak_between_transactions(self):
        if not hasattr(self, "db"):
            return
        if not any(self._in_txn(s) for s in (0, 1)):
            assert self.db.locks.grant_table_empty()
            assert self.db.locks.waiting() == []


TestTwoSessionStateful = TwoSessionModel.TestCase
TestTwoSessionStateful.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None)
