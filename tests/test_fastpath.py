"""The write-side shortcuts must be invisible to semantics.

The f-chunk writer's known-TID map and absence baseline, v-segment
append detection, the heap's FSM tail-probe skip and the newest-first
size-row probe (docs/performance.md) run under both clocks: there is
one engine, and ``charge_cpu`` only decides whether its CPU is charged
to the simulated clock.  These tests drive the large-object surface and
check the bytes: a stale map entry or a baseline that forgot one of the
descriptor's own chunks would show up here as wrong bytes or a second
visible chunk version, not as a slow run.
"""

import random
from contextlib import contextmanager
from functools import partial

import pytest

from repro.db import Database
from repro.server import ReproServer, ServerClient


@pytest.fixture
def db():
    database = Database(pool_size=64, charge_cpu=False)
    yield database
    database.close()


IMPLS = ["fchunk", "vsegment"]


def make_object(db, impl, payload=b""):
    with db.begin() as txn:
        designator = db.lo.create(txn, impl, compression="none")
        if payload:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(payload)
    return designator


def overwrite(db, designator, offset, data):
    with db.begin() as txn:
        with db.lo.open(designator, txn, "rw") as obj:
            obj.seek(offset)
            obj.write(data)


def sweep_everything(db, sweep):
    if sweep == "vacuum":
        db.vacuum()
    else:
        for name in db.catalog.relation_names():
            if not name.startswith("a_"):
                db.archive_class(name)


def test_held_as_of_vsegment_reader_across_archive(db):
    """Archiving moves a segment record to a new TID in another relation,
    where it can take the TID *and* xmin a neighbour had in the class:
    X stays live in slot 0, so A (slot 1) and C (slot 2), written by one
    transaction, land in archive slots 0 and 1 — C where A was."""
    designator = make_object(db, "vsegment", b"X" * 1_000)
    with db.begin() as txn:
        with db.lo.open(designator, txn, "rw") as obj:
            obj.seek(1_000)
            obj.write(b"A" * 1_000)
            obj.write(b"C" * 1_000)
    stamp = db.clock.now()
    overwrite(db, designator, 1_000, b"a" * 1_000)
    overwrite(db, designator, 2_000, b"c" * 1_000)
    held = db.lo.open(designator, as_of=stamp)
    held.seek(1_000)
    assert held.read(1_000) == b"A" * 1_000  # A cached
    sweep_everything(db, "archive_class")
    assert held.read(1_000) == b"C" * 1_000
    held.close()


@pytest.mark.parametrize("impl", IMPLS)
class TestFastModeSemantics:
    def test_sequential_write_read(self, db, impl):
        frames = [bytes([i % 251]) * 4096 for i in range(40)]
        designator = make_object(db, impl, b"".join(frames))
        with db.lo.open(designator) as obj:
            for frame in frames:
                assert obj.read(4096) == frame
            assert obj.read(4096) == b""

    def test_open_descriptor_sees_commits(self, db, impl):
        """A commit that lands while a read-only descriptor stays open
        must show up on its next read — of the size, of new bytes, and
        of the very bytes it read (and cached) before the commit."""
        designator = make_object(db, impl, b"A" * 20_000)
        reader = db.lo.open(designator)
        reader.seek(16_000)
        assert reader.read(100) == b"A" * 100  # caches now warm
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as writer:
                writer.seek(16_000)
                writer.write(b"C" * 9_000)
        assert reader.size() == 25_000
        reader.seek(16_000)
        assert reader.read(9_000) == b"C" * 9_000
        reader.close()
        with db.lo.open(designator) as fresh:
            assert fresh.read(25_000) == b"A" * 16_000 + b"C" * 9_000

    def test_truncate_then_reextend(self, db, impl):
        designator = make_object(db, impl, b"D" * 30_000)
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.truncate(7_000)
                obj.seek(7_000)
                obj.write(b"E" * 9_000)
        with db.lo.open(designator) as obj:
            assert obj.read(7_000) == b"D" * 7_000
            assert obj.read(9_000) == b"E" * 9_000
            assert obj.read(1) == b""

    def test_sparse_extension_zero_fills(self, db, impl):
        designator = make_object(db, impl)
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.seek(50_000)
                obj.write(b"tail")
        with db.lo.open(designator) as obj:
            obj.seek(40_000)
            assert obj.read(10_000) == bytes(10_000)
            assert obj.read(4) == b"tail"

    def test_overwrite_mid_object(self, db, impl):
        designator = make_object(db, impl, b"F" * 40_000)
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.seek(9_999)
                obj.write(b"G" * 12_345)
        with db.lo.open(designator) as obj:
            expected = (b"F" * 9_999) + (b"G" * 12_345) + (
                b"F" * (40_000 - 9_999 - 12_345))
            assert obj.read(40_000) == expected

    def test_read_after_vacuum(self, db, impl):
        """Vacuum prunes dead versions and their index entries; what a
        descriptor cached before the sweep must not be served after."""
        designator = make_object(db, impl, b"H" * 25_000)
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"I" * 25_000)
        reader = db.lo.open(designator)
        assert reader.read(10) == b"I" * 10  # caches warm, pre-vacuum
        db.vacuum()
        reader.seek(0)
        assert reader.read(25_000) == b"I" * 25_000
        reader.close()

    @pytest.mark.parametrize("charge_cpu", [False, True])
    @pytest.mark.parametrize("sweep", ["vacuum", "archive_class"])
    def test_held_reader_after_sweep_and_slot_reuse(self, impl, sweep,
                                                    charge_cpu):
        """A sweep frees the slots of dead versions and the next insert
        reuses them: a descriptor held open across both must read what
        a fresh one reads, not what it cached under the reused TID
        (the v-segment cases returned the A bytes before the segment
        cache's key stopped being the TID)."""
        db = Database(pool_size=64, charge_cpu=charge_cpu)
        designator = make_object(db, impl, b"A" * 4_000)
        reader = db.lo.open(designator)
        assert reader.read(4_000) == b"A" * 4_000  # caches warm
        overwrite(db, designator, 0, b"B" * 4_000)
        sweep_everything(db, sweep)
        overwrite(db, designator, 0, b"C" * 4_000)
        reader.seek(0)
        assert reader.read(4_000) == b"C" * 4_000
        reader.close()
        assert db.check_integrity() == []
        db.close()

    def test_writer_reads_own_buffered_writes(self, db, impl):
        designator = make_object(db, impl, b"J" * 10_000)
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.seek(5_000)
                obj.write(b"K" * 2_000)
                obj.seek(4_000)
                assert obj.read(4_000) == (b"J" * 1_000 + b"K" * 2_000
                                           + b"J" * 1_000)

    def test_abort_discards_and_invalidates(self, db, impl):
        designator = make_object(db, impl, b"L" * 15_000)
        reader = db.lo.open(designator)
        assert reader.read(10) == b"L" * 10
        txn = db.begin()
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"M" * 15_000)
        txn.abort()
        reader.seek(0)
        assert reader.read(15_000) == b"L" * 15_000
        reader.close()


@contextmanager
def _local_reader(db, designator):
    with db.lo.open(designator) as obj:
        yield obj.seek, obj.read


@contextmanager
def _session_reader(db, designator):
    with db.session() as session:
        session.begin()
        obj = session.lo_open(designator, "r")
        yield obj.seek, obj.read


@contextmanager
def _server_reader(db, designator):
    with ReproServer(db) as server, ServerClient(*server.address) as client:
        client.begin()
        fd = client.lo_open(designator)
        yield partial(client.lo_seek, fd), partial(client.lo_read, fd)


@pytest.mark.parametrize("reader", [_local_reader, _session_reader,
                                    _server_reader])
@pytest.mark.parametrize("charge_cpu", [True, False])
@pytest.mark.parametrize("impl", IMPLS)
def test_reread_after_foreign_commit(impl, charge_cpu, reader):
    """Every way of holding a read-only descriptor open re-reads the
    bytes another session has since overwritten and committed exactly as
    a fresh descriptor does; a historical descriptor keeps the old ones.
    """
    db = Database(pool_size=64, charge_cpu=charge_cpu)
    try:
        designator = make_object(db, impl, b"A" * 20_000)
        with reader(db, designator) as (seek, read), \
                db.lo.open(designator, as_of=db.clock.now()) as past:
            assert read(100) == b"A" * 100
            assert past.read(100) == b"A" * 100
            with db.session() as other:
                other.begin()
                other.lo_open(designator, "rw").write(b"B" * 100)
                other.commit()
            with db.lo.open(designator) as fresh:
                assert fresh.read(100) == b"B" * 100
            seek(0)
            assert read(100) == b"B" * 100
            past.seek(0)
            assert past.read(100) == b"A" * 100
    finally:
        db.close()


@pytest.fixture(params=[True, False])
def any_db(request):
    """A database under either clock (``charge_cpu`` True / False)."""
    database = Database(pool_size=64, charge_cpu=request.param)
    yield database
    database.close()


def _foreign_commit(db, impl):
    """Another session commits something unrelated: the epoch moves."""
    with db.session() as other:
        other.begin()
        other.lo_create(impl)
        other.commit()


def _committed(db, designator):
    with db.lo.open(designator) as fresh:
        return fresh.read()


@pytest.mark.parametrize("impl", IMPLS)
class TestWriterHeldAcrossAnEpochMove:
    """A writer that has flushed chunks past the committed EOF and then
    sees the epoch move must still find them (ISSUE 21: f-chunk used to
    reload such a chunk as empty and commit a second visible version)."""

    def test_overwrite_after_foreign_commit(self, any_db, impl):
        db = any_db
        designator = make_object(db, impl)
        expected = b"A" * 100 + b"B" + b"A" * 19_899
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"A" * 20_000)
                _foreign_commit(db, impl)
                obj.seek(100)
                obj.write(b"B")
                obj.seek(0)
                assert obj.read() == expected
        assert _committed(db, designator) == expected
        assert db.check_integrity() == []

    def test_epoch_moves_in_the_middle_of_one_write(self, any_db, impl,
                                                    monkeypatch):
        """Another thread's commit can land between two chunk flushes of
        a single ``write`` — before the write has been noted anywhere
        but the chunks themselves."""
        db = any_db
        designator = make_object(db, impl)
        expected = b"A" * 100 + b"B" + b"A" * 29_899
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                compress = obj.compressor.compress
                calls = []

                def compress_then_commit_elsewhere(data):
                    if len(calls) == 1:  # chunk 0 is already flushed
                        _foreign_commit(db, impl)
                    calls.append(len(data))
                    return compress(data)

                monkeypatch.setattr(obj.compressor, "compress",
                                    compress_then_commit_elsewhere)
                obj.write(b"A" * 30_000)
                obj.seek(100)
                obj.write(b"B")
                obj.seek(0)
                assert obj.read() == expected
        assert _committed(db, designator) == expected
        assert db.check_integrity() == []

    @pytest.mark.server
    def test_overwrite_after_foreign_commit_on_the_wire(self, any_db, impl):
        db = any_db
        expected = b"A" * 100 + b"B" + b"A" * 19_899
        with ReproServer(db) as server, \
                ServerClient(*server.address) as one, \
                ServerClient(*server.address) as two:
            one.begin()
            designator = one.lo_create(impl)
            fd = one.lo_open(designator, "rw")
            one.lo_write(fd, b"A" * 20_000)
            two.begin()
            two.lo_create(impl)
            two.commit()
            one.lo_pwrite(fd, 100, b"B")
            assert one.lo_pread(fd, 0, 20_000) == expected
            one.commit()
            two.begin()
            assert two.lo_pread(two.lo_open(designator), 0,
                                30_000) == expected
            two.commit()
        assert db.check_integrity() == []

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_script_against_a_bytearray(self, any_db, impl, seed):
        """400 steps of write / read / truncate / foreign commit /
        commit-and-reopen / abort; writes straddle the edges of chunks
        0-3 and run up to 40,000 bytes, so most cover whole chunks (a
        chunk run, ISSUE 22) between two partial ones; the epoch moves
        under a writer that holds flushed, uncommitted chunks."""
        rng = random.Random(seed)
        db = any_db
        designator = make_object(db, impl)
        model = bytearray()
        txn = db.begin()
        obj = db.lo.open(designator, txn, "rw")
        pending = bytearray(model)
        for step in range(400):
            where = f"seed {seed} step {step}"
            action = rng.choice(["write"] * 5 + ["read"] * 3 + [
                "truncate", "foreign", "foreign", "commit", "abort"])
            if action == "write":
                offset = max(0, rng.choice([0, 8_000, 16_000, 24_000])
                             + rng.randint(-200, 200))
                data = bytes([rng.randrange(1, 256)]) * rng.randint(
                    1, 40_000)
                obj.seek(offset)
                obj.write(data)
                if offset > len(pending):
                    pending.extend(bytes(offset - len(pending)))
                pending[offset:offset + len(data)] = data
            elif action == "read":
                offset = rng.randint(0, 66_000)
                length = rng.randint(1, 9_000)
                obj.seek(offset)
                assert obj.read(length) == bytes(
                    pending[offset:offset + length]), where
            elif action == "truncate":
                size = rng.choice([0, 5_000, 8_000, 12_000, 20_000])
                obj.truncate(size)
                del pending[size:]
                pending.extend(bytes(size - len(pending)))
            elif action == "foreign":
                _foreign_commit(db, impl)
            else:
                obj.close()
                if action == "commit":
                    txn.commit()
                    model = pending
                else:
                    txn.abort()
                assert _committed(db, designator) == bytes(model), where
                txn = db.begin()
                obj = db.lo.open(designator, txn, "rw")
                pending = bytearray(model)
        obj.close()
        txn.commit()
        assert _committed(db, designator) == bytes(pending)
        assert db.check_integrity() == []


@pytest.mark.parametrize("impl", IMPLS)
class TestChunkRuns:
    """A write that wholly covers chunks sends them to the class as one
    run (ISSUE 22).  The three rules in docs/invariants.md, each as the
    smallest script that breaks without it; 8,000-byte chunks, and the
    v-segment cases reach the same code through the byte store."""

    @staticmethod
    def _script(db, impl, steps):
        """Apply ``(offset, bytes)`` writes and ``("truncate", size)``
        steps in one transaction; check the bytes inside it, after
        commit, and the integrity sweep."""
        designator = make_object(db, impl, b"\x07" * 30_000)
        expected = bytearray(b"\x07" * 30_000)
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                for offset, data in steps:
                    if offset == "truncate":
                        obj.truncate(data)
                        del expected[data:]
                        continue
                    obj.seek(offset)
                    obj.write(data)
                    expected[offset:offset + len(data)] = data
                obj.seek(0)
                assert obj.read() == bytes(expected)
        assert _committed(db, designator) == bytes(expected)
        assert db.check_integrity() == []

    def test_a_dirty_buffer_inside_a_later_whole_chunk_span(self, any_db,
                                                            impl):
        """Trap 1: chunk 1 is buffered dirty, then one call covers chunks
        0-2 whole — the buffered copy must not become a second version."""
        self._script(any_db, impl, [(8_100, b"a" * 50),
                                    (0, b"b" * 24_000)])

    def test_the_outgoing_chunk_re_entered_partially_by_the_same_call(
            self, any_db, impl):
        """Trap 2: chunk 1 is buffered dirty; one call covers chunk 0
        whole (queueing chunk 1 behind it) and then the head of chunk 1
        — which must be loaded with the queued bytes (the ``a``s the
        second write does not reach), not from the class."""
        self._script(any_db, impl, [(8_300, b"a" * 50),
                                    (0, b"b" * 8_200)])

    def test_a_partial_chunk_does_not_open_a_run(self, any_db, impl):
        """Rule 3, seen from outside: a frame write that only touches
        parts of two chunks leaves the first buffered until the switch
        flushes it, exactly as before — same bytes either way."""
        self._script(any_db, impl, [(7_900, b"a" * 200),
                                    (15_900, b"c" * 8_200)])

    @pytest.mark.parametrize("cut", [0, 12_000, 16_000])
    def test_truncate_with_a_dirty_buffer_past_the_cut(self, any_db, impl,
                                                       cut):
        db = any_db
        designator = make_object(db, impl, b"\x07" * 30_000)
        before = db.clock.now()
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.seek(24_100)
                obj.write(b"z" * 50)        # chunk 3, dirty, doomed
                obj.truncate(cut)
                assert obj.size() == cut
                obj.seek(0)
                assert obj.read() == b"\x07" * cut
                obj.seek(cut + 100)
                obj.write(b"y")             # the hole reads as zeros
        expected = b"\x07" * cut + bytes(100) + b"y"
        assert _committed(db, designator) == expected
        with db.lo.open(designator, as_of=before) as past:
            assert past.read() == b"\x07" * 30_000
        assert db.check_integrity() == []
