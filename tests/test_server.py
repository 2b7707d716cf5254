"""The socket front-end: protocol, server, client, multi-client runs.

The unmarked tests are tier-1 sized round trips over a real TCP socket
on the loopback interface.  The ``server``-marked stress runs drive
four-plus concurrent clients through one shared object — the
acceptance-criteria scenario for the server plus range-lock PR.
"""

import socket
import threading
import time

import pytest

from repro.db import Database
from repro.errors import (DeadlockError, LargeObjectNotFound,
                          NoActiveTransaction, TransactionError)
from repro.server import ReproServer, ServerClient
from repro.server import protocol

RECORD = "T{:02d}S{:04d};"
RECORD_LEN = len(RECORD.format(0, 0))


@pytest.fixture
def served():
    db = Database(charge_cpu=False)
    server = ReproServer(db)
    server.start()
    yield db, server
    server.stop()
    db.close()


class TestProtocol:
    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            protocol.send_message(a, {"cmd": "lo_write", "fd": 3},
                                  b"\x00\xffbinary")
            header, body = protocol.recv_message(b)
            assert header == {"cmd": "lo_write", "fd": 3}
            assert body == b"\x00\xffbinary"
        finally:
            a.close()
            b.close()

    def test_eof_mid_frame_is_connection_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\x10")  # half a prefix, then hang up
            a.close()
            with pytest.raises(ConnectionError):
                protocol.recv_message(b)
        finally:
            b.close()

    def test_oversized_prefix_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\xff\xff\xff\xff\x00\x00\x00\x00")
            with pytest.raises(protocol.ProtocolError):
                protocol.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_bytes_in_rows_round_trip(self):
        rows = [(1, b"\x00\x01\xfe", "text", None), (2, b"", [b"x"], 3.5)]
        assert protocol.decode_rows(protocol.encode_rows(rows)) == [
            (1, b"\x00\x01\xfe", "text", None), (2, b"", [b"x"], 3.5)]


class TestServerRoundTrip:
    def test_lo_lifecycle_over_socket(self, served):
        _db, server = served
        with ServerClient(*server.address) as client:
            assert client.ping()
            client.begin()
            designator = client.lo_create("fchunk")
            fd = client.lo_open(designator, "rw")
            assert client.lo_write(fd, b"hello, inversion") == 16
            assert client.lo_seek(fd, 0) == 0
            assert client.lo_read(fd, 5) == b"hello"
            assert client.lo_tell(fd) == 5
            assert client.lo_size(fd) == 16
            client.lo_close(fd)
            client.commit()

            client.begin()
            fd = client.lo_open(designator)
            assert client.lo_read(fd) == b"hello, inversion"
            client.rollback()

    def test_lo_create_routes_to_named_smgr(self, served):
        """The wire protocol carries the storage-manager name, so a
        remote client can land an object on the sharded backend."""
        db, server = served
        with ServerClient(*server.address) as client:
            client.begin()
            designator = client.lo_create("fchunk", smgr="sharded")
            fd = client.lo_open(designator, "rw")
            client.lo_write(fd, b"replicated over the wire")
            client.lo_close(fd)
            client.commit()
        with db.lo.open(designator) as obj:
            assert obj.read(100) == b"replicated over the wire"
        smgr = db.storage_manager("sharded")
        assert any(node.store.nblocks(f) > 0
                   for node in smgr.nodes for f in node.store.files())

    def test_append_and_truncate(self, served):
        _db, server = served
        with ServerClient(*server.address) as client:
            client.begin()
            designator = client.lo_create("vsegment")
            fd = client.lo_open(designator, "rw")
            client.lo_write(fd, b"abcdef")
            assert client.lo_append(fd, b"ghi") == 3
            assert client.lo_size(fd) == 9
            assert client.lo_truncate(fd, 4) == 4
            client.lo_close(fd)
            client.commit()
            client.begin()
            fd = client.lo_open(designator)
            assert client.lo_read(fd) == b"abcd"
            client.rollback()

    def test_execute_paper_flow_over_socket(self, served):
        """§4 end-to-end, but through the wire: retrieve a designator
        from a query result, then open/seek/read it on the same
        connection."""
        _db, server = served
        with ServerClient(*server.address) as client:
            client.begin()
            client.execute("create large type image (storage = f-chunk)")
            client.execute("create PHOTOS (name = text, picture = image)")
            designator = client.execute(
                "retrieve (result = newfilename())")["rows"][0][0]
            client.execute(
                f'append PHOTOS (name = "Joe", picture = "{designator}")')
            fd = client.lo_open(designator, "rw")
            client.lo_write(fd, b"JFIF....image bytes....")
            client.lo_close(fd)
            client.commit()

            result = client.execute(
                'retrieve (PHOTOS.picture) where PHOTOS.name = "Joe"')
            assert result["columns"] == ["picture"]
            assert result["count"] == 1
            client.begin()
            fd = client.lo_open(result["rows"][0][0])
            assert client.lo_seek(fd, 8) == 8
            assert client.lo_read(fd, 5) == b"image"
            client.rollback()

    def test_errors_map_back_to_repro_classes(self, served):
        _db, server = served
        with ServerClient(*server.address) as client:
            with pytest.raises(NoActiveTransaction):
                client.lo_create()
            client.begin()
            with pytest.raises(LargeObjectNotFound):
                client.lo_open("lo:424242")
            # The failed command did not poison the connection.
            designator = client.lo_create()
            assert designator.startswith("lo:")
            client.rollback()
            with pytest.raises(TransactionError):
                client.rollback()  # nothing in progress

    def test_disconnect_rolls_back_open_transaction(self, served):
        db, server = served
        client = ServerClient(*server.address)
        client.begin()
        designator = client.lo_create("fchunk")
        fd = client.lo_open(designator, "rw")
        client.lo_write(fd, b"doomed")
        client._sock.close()  # vanish without commit
        client._sock = None
        deadline = 200
        while db.statistics()["transactions"]["active"] and deadline:
            deadline -= 1
            threading.Event().wait(0.01)
        assert db.statistics()["transactions"]["active"] == 0
        assert db.locks.grant_table_empty()
        # The abort made the uncommitted write invisible: a fresh
        # transaction sees either no object or an empty one.
        with db.begin() as txn:
            if db.lo.exists(designator):
                with db.lo.open(designator, txn) as obj:
                    assert obj.read() == b""

    def test_stats_include_range_counters(self, served):
        _db, server = served
        with ServerClient(*server.address) as client:
            stats = client.stats()
            assert "range_locks" in stats["locks"]
            assert "range_waits" in stats["locks"]


def _append_loop(address, designator, thread_no, count, failures):
    try:
        with ServerClient(*address) as client:
            for seq in range(count):
                while True:
                    client.begin()
                    try:
                        fd = client.lo_open(designator, "rw")
                        client.lo_append(
                            fd, RECORD.format(thread_no, seq).encode())
                        client.lo_close(fd)
                        client.commit()
                        break
                    except (DeadlockError, TransactionError):
                        client.rollback()
    except BaseException as exc:  # pragma: no cover - diagnostics
        failures.append((thread_no, exc))


def _run_clients(address, designator, n_clients, count):
    failures = []
    threads = [threading.Thread(
        target=_append_loop,
        args=(address, designator, i, count, failures), daemon=True)
        for i in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120.0)
    assert not any(t.is_alive() for t in threads), "client hung"
    assert not failures, f"clients crashed: {failures}"


def _verify_appends(db, designator, n_clients, count):
    with db.begin() as txn:
        with db.lo.open(designator, txn) as obj:
            data = obj.read()
    assert len(data) == n_clients * count * RECORD_LEN
    per_client = {i: [] for i in range(n_clients)}
    for at in range(0, len(data), RECORD_LEN):
        record = data[at:at + RECORD_LEN].decode()
        assert record[0] == "T" and record[-1] == ";", record
        per_client[int(record[1:3])].append(int(record[4:8]))
    for client_no, seqs in per_client.items():
        assert seqs == list(range(count)), f"client {client_no}: {seqs}"


def test_stop_of_idle_server_is_prompt(served):
    """stop() must wake the accept thread itself, not wait out the join
    timeout: close() alone leaves accept() blocked on Linux."""
    _db, server = served
    with ServerClient(*server.address):
        pass  # one accept() has returned...
    time.sleep(0.1)  # ...and the loop is parked in the next
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 1.0
    assert not [t.name for t in threading.enumerate()
                if t.name.startswith("repro-server")]


def test_finished_connection_threads_are_forgotten(served):
    """A long-lived server keeps one Thread per *live* connection, not
    one per connection ever served."""
    _db, server = served
    for _ in range(50):
        with ServerClient(*server.address):
            pass
        # Wait for the handler to notice the hang-up, so each cycle
        # leaves a finished thread behind for the next accept to drop.
        deadline = time.monotonic() + 5.0
        while server._connections and time.monotonic() < deadline:
            time.sleep(0.001)
    assert len(server._conn_threads) <= 2


def test_four_concurrent_clients_smoke(served):
    """Tier-1 sized acceptance check: 4 socket clients, one object."""
    db, server = served
    with ServerClient(*server.address) as client:
        client.begin()
        designator = client.lo_create("fchunk")
        client.commit()
    _run_clients(server.address, designator, n_clients=4, count=5)
    _verify_appends(db, designator, n_clients=4, count=5)
    assert db.statistics()["transactions"]["active"] == 0
    assert db.locks.grant_table_empty()


@pytest.mark.server
def test_many_concurrent_clients_stress(served):
    """Full-size run: 8 clients × 40 appends over real sockets."""
    db, server = served
    with ServerClient(*server.address) as client:
        client.begin()
        designator = client.lo_create("fchunk")
        client.commit()
    _run_clients(server.address, designator, n_clients=8, count=40)
    _verify_appends(db, designator, n_clients=8, count=40)
    assert db.locks.grant_table_empty()
    assert db.locks.waiting() == []


@pytest.mark.server
def test_disjoint_range_clients_byte_exact(served):
    """Clients writing disjoint grains share the object without waits."""
    db, server = served
    from repro.lo.fchunk import LOCK_GRAIN_CHUNKS
    from repro.storage.constants import CHUNK_PAYLOAD
    grain = CHUNK_PAYLOAD * LOCK_GRAIN_CHUNKS
    n_clients, span = 4, 3000

    with ServerClient(*server.address) as client:
        client.begin()
        designator = client.lo_create("fchunk")
        client.commit()

    before = db.locks.stats.range_waits
    failures = []

    def writer(i):
        try:
            with ServerClient(*server.address) as client:
                client.begin()
                fd = client.lo_open(designator, "rw")
                client.lo_seek(fd, i * grain)
                client.lo_write(fd, bytes([i + 1]) * span)
                client.lo_close(fd)
                client.commit()
        except BaseException as exc:  # pragma: no cover - diagnostics
            failures.append((i, exc))

    threads = [threading.Thread(target=writer, args=(i,), daemon=True)
               for i in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
    assert not failures, f"writers crashed: {failures}"
    assert db.locks.stats.range_waits == before, \
        "disjoint-range writers should never queue on the range lock"

    with db.begin() as txn:
        with db.lo.open(designator, txn) as obj:
            for i in range(n_clients):
                obj.seek(i * grain)
                assert obj.read(span) == bytes([i + 1]) * span
