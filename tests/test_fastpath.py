"""Wall-clock fast paths must be invisible to semantics.

A ``Database(charge_cpu=False)`` engages the model-fidelity-gated
write-side optimizations (f-chunk known-TID map, v-segment append
detection, the heap's FSM tail-probe skip — see docs/performance.md).
These tests drive the large-object surface in exactly that mode and
check the answers stay byte-for-byte what the charged (figure)
configuration produces: a stale cache would show up here as wrong
bytes, not as a slow run.
"""

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


@pytest.mark.parametrize("impl", IMPLS)
class TestFastModeSemantics:
    def test_fast_gate_is_on(self, db, impl):
        assert db.bufmgr.cpu is None
        designator = make_object(db, impl, b"x" * 100)
        with db.lo.open(designator) as obj:
            assert obj._fast is True

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


class TestChargedModeUnaffected:
    @pytest.mark.parametrize("impl", IMPLS)
    def test_fast_gate_off_when_charging(self, impl):
        db = Database(pool_size=64, charge_cpu=True)
        try:
            designator = make_object(db, impl, b"N" * 5_000)
            with db.lo.open(designator) as obj:
                assert obj._fast is False
                assert obj.read(5_000) == b"N" * 5_000
        finally:
            db.close()
