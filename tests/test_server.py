"""The socket front-end: protocol, server, client, multi-client runs.

The unmarked tests are tier-1 sized round trips over a real TCP socket
on the loopback interface.  The ``server``-marked stress runs drive
four-plus concurrent clients through one shared object — the
acceptance-criteria scenario for the server plus range-lock PR.
"""

import random
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import LargeObjectApi
from repro.db import Database
from repro.errors import (DeadlockError, LargeObjectError,
                          LargeObjectNotFound, NoActiveTransaction,
                          ReproError,
                          StorageManagerError, TransactionError)
from repro.server import ReproServer, ServerClient
from repro.server import protocol
from repro.server import server as server_module

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

    def test_eof_right_after_prefix_is_connection_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\x10\x00\x00\x00\x10")
            a.close()
            with pytest.raises(ConnectionError):
                protocol.recv_message(b)
        finally:
            b.close()

    def test_a_frame_is_two_recv_calls(self):
        """Prefix, then header and body together — also when the body is
        most of a megabyte and arrives in many segments."""
        class Counting:
            calls = 0

            def __init__(self, sock):
                self.sock = sock

            def recv(self, *args):
                self.calls += 1
                return self.sock.recv(*args)

        a, b = socket.socketpair()
        try:
            for body in (b"", b"\x5a" * 4000, b"\xa5" * ((1 << 20) - 64)):
                sender = threading.Thread(
                    target=protocol.send_message,
                    args=(a, {"cmd": "lo_pwrite", "fd": 3, "offset": 0}, body),
                    daemon=True)
                sender.start()
                reader = Counting(b)
                header, received = protocol.recv_message(reader)
                sender.join(10.0)
                assert not sender.is_alive()
                assert header["cmd"] == "lo_pwrite" and received == body
                assert reader.calls == 2
        finally:
            a.close()
            b.close()

    def test_bytes_in_rows_round_trip(self):
        rows = [(1, b"\x00\x01\xfe", "text", None), (2, b"", [b"x"], 3.5)]
        assert protocol.decode_rows(protocol.encode_rows(rows)) == [
            (1, b"\x00\x01\xfe", "text", None), (2, b"", [b"x"], 3.5)]


_I64 = st.integers(-2**63, 2**63 - 1)
_JSON_VALUES = st.recursive(   # any JSON but floats (NaN) and the b64 tag
    st.none() | st.booleans() | _I64 | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8).filter(lambda key: key != "__b64__"),
                      inner, max_size=4),
    max_leaves=12)
_BYTES_ROWS = st.lists(st.tuples(_I64, st.binary(max_size=40), st.text(),
                                 st.none()), max_size=4)
_BY_TYPE = {
    protocol.I64: _I64,
    protocol.BOOL: st.booleans(),
    protocol.TEXT: st.none() | st.text(),
    protocol.STRUCTURED: _JSON_VALUES | _BYTES_ROWS.map(protocol.encode_rows),
}


def _raw_header(*parts: bytes, keys=()) -> bytes:
    """A hand-built header: the mask of *keys*, then *parts* verbatim."""
    mask = sum(1 << list(protocol.FIELDS).index(key) for key in keys)
    return struct.pack("!I", mask) + b"".join(parts)


def _text(data: bytes) -> bytes:
    return struct.pack("!I", len(data)) + data


class TestHeaderCodec:
    """Every header key is declared once with its type (``FIELDS``)."""

    @settings(max_examples=200)
    @given(st.fixed_dictionaries({}, optional={
        name: _BY_TYPE[kind] for name, kind in protocol.FIELDS.items()}),
        st.binary(max_size=64))
    def test_every_declared_key_round_trips(self, header, body):
        a, b = socket.socketpair()
        try:
            protocol.send_message(a, header, body)
            assert protocol.recv_message(b) == (header, body)
        finally:
            a.close()
            b.close()

    @given(_BYTES_ROWS)
    def test_bytes_rows_survive_the_structured_field(self, rows):
        a, b = socket.socketpair()
        try:
            protocol.send_message(a, {"rows": protocol.encode_rows(rows)})
            header, _ = protocol.recv_message(b)
            assert protocol.decode_rows(header["rows"]) == rows
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("header", [
        {"cmd": "lo_pread", "offset": 1.5},
        {"cmd": "lo_pread", "offset": "1"},
        {"cmd": "lo_truncate", "size": None},
        {"cmd": "lo_pread", "offset": 2**63},
        {"cmd": "lo_pread", "offset": -2**63 - 1},
        {"cmd": 7},
        {"cmd": b"ping"},
        {"ok": 1},
        {"stats": {b"bytes": 1}},
        {"cmd": "ping", "bogus": 1},
    ], ids=["float", "str", "None", "2**63", "-2**63-1", "int-text",
            "bytes-text", "int-bool", "unencodable", "undeclared"])
    def test_a_misfit_is_refused_before_a_byte_is_sent(self, header):
        a, b = socket.socketpair()
        try:
            with pytest.raises(protocol.ProtocolError):
                protocol.send_message(a, header)
            b.setblocking(False)
            with pytest.raises(BlockingIOError):
                b.recv(1)
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("raw", [
        _raw_header(b"\x00" * 5, keys=["fd"]),
        _raw_header(struct.pack("!I", 100) + b"abc", keys=["cmd"]),
        _raw_header(b"\x00" * 3, keys=["cmd"]),
        struct.pack("!I", 1 << len(protocol.FIELDS)),
        _raw_header(_text(b"ping") + b"!", keys=["cmd"]),
        _raw_header(_text(b"\xff\xfe"), keys=["cmd"]),
        _raw_header(_text(b"{not json"), keys=["stats"]),
        _raw_header(_text(b'{"__b64__":5}'), keys=["stats"]),
        b'{"cmd":"ping"}',
        b"",
    ], ids=["truncated-i64", "lying-length", "truncated-length",
            "undeclared-bit", "trailing-bytes", "bad-utf8", "bad-json",
            "bad-b64-tag", "json-era", "empty"])
    def test_a_hostile_header_is_a_protocol_error(self, raw):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!II", len(raw), 0) + raw)
            with pytest.raises(protocol.ProtocolError):
                protocol.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_a_hostile_frame_drops_only_its_own_connection(self, served):
        _db, server = served
        with ServerClient(*server.address) as bystander:
            for raw in (b'{"cmd":"ping"}',
                        _raw_header(_text(b"\xff"), keys=["cmd"])):
                hostile = socket.create_connection(server.address)
                try:
                    hostile.sendall(struct.pack("!II", len(raw), 0) + raw)
                    hostile.settimeout(10.0)
                    assert hostile.recv(1) == b""   # dropped, no reply
                finally:
                    hostile.close()
                assert bystander.ping()

    def test_a_mistyped_field_fails_the_call_not_the_connection(
            self, served):
        _db, server = served
        with ServerClient(*server.address) as client:
            client.begin()
            fd = client.lo_open(client.lo_create("fchunk"), "rw")
            sent = client.round_trips
            for fields in ({"fd": fd, "offset": 1.5, "nbytes": 1},
                           {"fd": fd, "offset": "0", "nbytes": 1},
                           {"fd": None, "offset": 0, "nbytes": 1},
                           {"fd": fd, "offset": 2**64, "nbytes": 1},
                           {"fd": fd, "offset": 0, "nbytes": 1, "bogus": 1}):
                with pytest.raises(protocol.ProtocolError):
                    client._call("lo_pread", **fields)
                assert client.round_trips == sent   # nothing went out
                assert client.ping()
                sent = client.round_trips
            with pytest.raises(protocol.ProtocolError):
                client._call("lo_truncate", fd=fd, size=None)
            assert client.ping()
            assert client.lo_pwrite(fd, 0, b"still in step") == 13
            client.rollback()


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

    def test_a_disconnect_mid_frame_rolls_back_and_frees_the_range(
            self, served):
        db, server = served
        with ServerClient(*server.address) as setup:
            setup.begin()
            designator = setup.lo_create("fchunk")
            setup.commit()

        def visible() -> bytes:
            with db.begin() as txn, db.lo.open(designator, txn) as obj:
                return obj.read()

        a = ServerClient(*server.address)
        a.begin()
        fd = a.lo_open(designator, "rw")
        assert a.lo_pwrite(fd, 0, b"A" * 4096) == 4096
        assert visible() == b""
        header = _raw_header(_text(b"commit"), keys=["cmd"])
        a._sock.sendall(struct.pack("!II", len(header), 0)
                        + header[:len(header) // 2])  # half a header
        a._sock.close()
        a._sock = None
        deadline = 200
        while db.statistics()["transactions"]["active"] and deadline:
            deadline -= 1
            threading.Event().wait(0.01)
        assert db.statistics()["transactions"]["active"] == 0
        assert visible() == b""
        waits = db.statistics()["locks"]["range_waits"]
        with ServerClient(*server.address) as b:
            b.begin()
            fd = b.lo_open(designator, "rw")
            assert b.lo_pwrite(fd, 0, b"B" * 4096) == 4096
            b.commit()
        assert db.statistics()["locks"]["range_waits"] == waits
        assert visible() == b"B" * 4096
        with ServerClient(*server.address) as c:
            assert c.ping()

    @pytest.mark.server
    def test_a_peer_stalled_mid_frame_is_dropped_and_frees_the_range(
            self, served, monkeypatch):
        """Slow-loris: a peer that sends part of a frame and then nothing
        is dropped after the frame bound, rolled back, and its range
        granted to the next writer; a peer idle *between* frames for
        longer than the bound is kept."""
        monkeypatch.setattr(server_module, "FRAME_TIMEOUT_S", 0.3)
        db, server = served
        with ServerClient(*server.address) as setup:
            setup.begin()
            designator = setup.lo_create("fchunk")
            setup.commit()

        def visible() -> bytes:
            with db.begin() as txn, db.lo.open(designator, txn) as obj:
                return obj.read()

        idle = ServerClient(*server.address)
        idle.begin()
        idle_fd = idle.lo_open(idle.lo_create("fchunk"), "rw")
        a = ServerClient(*server.address)
        a.begin()
        fd = a.lo_open(designator, "rw")
        assert a.lo_pwrite(fd, 0, b"A" * 4096) == 4096
        header = _raw_header(_text(b"commit"), keys=["cmd"])
        a._sock.sendall(struct.pack("!II", len(header), 0) + header[:10])
        try:
            # Without the bound, b waits on a's range lock until its own
            # timeout raises.
            with ServerClient(*server.address, timeout=5.0) as b:
                b.begin()
                fd = b.lo_open(designator, "rw")
                assert visible() == b""
                assert b.lo_pwrite(fd, 0, b"B" * 4096) == 4096
                b.commit()
            assert visible() == b"B" * 4096
            assert a._sock.recv(1) == b""          # a was hung up on
        finally:
            a._sock.close()
            a._sock = None
        time.sleep(3 * server_module.FRAME_TIMEOUT_S)
        assert idle.lo_write(idle_fd, b"still here") == 10
        idle.commit()
        idle.close()
        with ServerClient(*server.address) as c:
            assert c.ping()
        assert visible() == b"B" * 4096
        assert db.statistics()["transactions"]["active"] == 0

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


@pytest.mark.server
class TestPositionedWire:
    """The wire is positioned and the cursor is the client's."""

    def test_frames_per_call(self, served):
        _db, server = served
        with ServerClient(*server.address) as client:
            client.begin()
            fd = client.lo_open(client.lo_create("fchunk"), "rw")
            client.lo_write(fd, bytes(range(100)))

            def frames(call, *args):
                before = client.round_trips
                return call(*args), client.round_trips - before

            assert frames(client.lo_seek, fd, 10) == (10, 0)
            assert frames(client.lo_read, fd, 5) == (bytes(range(10, 15)), 1)
            assert frames(client.lo_tell, fd) == (15, 0)
            assert frames(client.lo_seek, fd, -5, 1) == (10, 0)
            assert frames(client.lo_seek, fd, 0, 2) == (100, 1)
            assert frames(client.lo_pread, fd, 98, 10) == (bytes([98, 99]), 1)
            assert frames(client.lo_pwrite, fd, 200, b"xy") == (2, 1)
            assert frames(client.lo_tell, fd) == (100, 0)
            assert frames(client.lo_append, fd, b"z") == (1, 1)
            assert frames(client.lo_tell, fd) == (203, 0)
            client.lo_seek(fd, 50)
            assert frames(client.lo_truncate, fd) == (50, 1)
            assert frames(client.lo_size, fd) == (50, 1)
            client.rollback()

    def test_seek_and_tell_are_not_wire_verbs(self, served):
        _db, server = served
        with ServerClient(*server.address) as client:
            client.begin()
            fd = client.lo_open(client.lo_create("fchunk"), "rw")
            for verb in ("lo_seek", "lo_tell", "lo_read", "lo_write"):
                with pytest.raises(ReproError, match="unknown command"):
                    client._call(verb, fd=fd, offset=0, nbytes=1)
            client.rollback()

    def test_missing_field_is_named(self, served):
        _db, server = served
        with ServerClient(*server.address) as client:
            client.begin()
            fd = client.lo_open(client.lo_create("fchunk"), "rw")
            with pytest.raises(protocol.ProtocolError,
                               match="^lo_pread needs 'offset'$"):
                client._call("lo_pread", fd=fd, nbytes=4)
            with pytest.raises(protocol.ProtocolError,
                               match="^lo_truncate needs 'size'$"):
                client._call("lo_truncate", fd=fd)
            with pytest.raises(protocol.ProtocolError,
                               match="^lo_size needs 'fd'$"):
                client._call("lo_size")
            assert client.ping()  # a well-framed request: still in step
            client.rollback()


@pytest.mark.server
class TestConnectionFailures:
    def test_transport_error_poisons_the_connection(self, served):
        """A reply that arrives after its call timed out must not be
        read as the next call's reply."""
        _db, server = served
        with ServerClient(*server.address) as a:
            a.begin()
            designator = a.lo_create("fchunk")
            a.commit()
            a.begin()
            a.lo_write(a.lo_open(designator, "rw"), b"held")
            b = ServerClient(*server.address, timeout=0.2)
            try:
                b.begin()
                fd = b.lo_open(designator, "rw")
                with pytest.raises(socket.timeout):
                    b.lo_write(fd, b"waits for a's range lock")
                a.commit()
                with pytest.raises(ConnectionError):
                    b.ping()
                with pytest.raises(ConnectionError):
                    b.rollback()
            finally:
                b.close()

    def test_lo_close_forgets_the_descriptor_when_the_flush_fails(self):
        db = Database(pool_size=8, charge_cpu=False)
        try:
            with ReproServer(db) as server, \
                    ServerClient(*server.address) as client:
                client.begin()
                designator = client.lo_create("fchunk")
                fd = client.lo_open(designator, "rw")
                client.lo_write(fd, b"x" * 100_000)
                # From a cold pool the flush's first page read, whichever
                # page it is, hits the bad device.
                db.bufmgr.invalidate_all()
                plan = db.inject_faults("on read *: error")
                with pytest.raises(StorageManagerError):
                    client.lo_close(fd)
                assert plan.fired
                db.clear_faults()
                with pytest.raises(LargeObjectError,
                                   match="bad large-object descriptor"):
                    client.lo_tell(fd)       # the client's side
                with pytest.raises(LargeObjectError,
                                   match="bad large-object descriptor"):
                    client.lo_size(fd)       # the server's side
                client.rollback()
                client.begin()
                fd = client.lo_open(client.lo_create("fchunk"), "rw")
                assert client.lo_write(fd, b"fresh") == 5
                client.commit()
        finally:
            db.close()


# -- local and remote descriptors are the same file --------------------------------


def _same_file_script(seed, steps=400):
    """A seeded mix of every descriptor call, with the descriptor closed,
    the transaction committed, and the object reopened along the way."""
    rng = random.Random(seed)

    def data():
        return bytes(rng.randrange(256) for _ in range(
            rng.choice((0, 1, 7, 300, 9000))))

    def offset():
        return rng.choice((-9, -1, 0, 5, 7999, 8000, 12_345, 40_000))

    calls = {
        "seek": lambda: (offset(), rng.choice((0, 0, 1, 2, 7))),
        "read": lambda: (rng.choice((-1, 0, 10, 8001, 100_000)),),
        "write": lambda: (data(),),
        "append": lambda: (data(),),
        "truncate": lambda: (rng.choice((None, None, -1, 0, 4000, 20_000)),),
        "tell": tuple,
        "size": tuple,
        "pread": lambda: (offset(), rng.choice((-1, 0, 10, 9000))),
        "pwrite": lambda: (offset(), data()),
    }
    names = sorted(calls)

    def call():
        name = rng.choice(names)
        return name, calls[name]()

    script = []
    while len(script) < steps:
        if rng.random() > 0.04:
            script.append(call())
            continue
        # Use after lo_close, after commit, or after both.
        ending = rng.choice((["close"], ["commit"], ["close", "commit"]))
        script += [(name, ()) for name in ending]
        script += [call() for _ in range(3)]
        if "commit" in ending:
            script.append(("begin", ()))
        script.append(("open", (rng.choice(("rw", "rw", "r")),)))
    return script


class _LocalFile:
    """The script's calls on a ``Session.lo_open`` handle."""

    def __init__(self, db, impl):
        self.db = db
        self.session = db.session()
        self.session.begin()
        self.designator = self.session.lo_create(impl)
        self.call("open", "rw")

    def call(self, name, *args):
        if name == "open":
            self.handle = self.session.lo_open(self.designator, *args)
        elif name in ("begin", "commit"):
            getattr(self.session, name)()
        else:
            return getattr(self.handle, name)(*args)

    def outcome(self, name, args):
        try:
            return "returned", self.call(name, *args)
        except ReproError as exc:
            return type(exc).__name__, str(exc)

    def contents(self):
        with self.db.lo.open(self.designator) as obj:
            return obj.read()


class _RemoteFile(_LocalFile):
    """The same calls on a ``ServerClient`` descriptor."""

    def __init__(self, db, impl, client):
        self.db = db
        self.client = client
        client.begin()
        self.designator = client.lo_create(impl)
        self.call("open", "rw")

    def call(self, name, *args):
        if name == "open":
            self.fd = self.client.lo_open(self.designator, *args)
        elif name in ("begin", "commit"):
            getattr(self.client, name)()
        else:
            return getattr(self.client, "lo_" + name)(self.fd, *args)


class _ApiFile(_RemoteFile):
    """The same calls on a ``LargeObjectApi`` descriptor: the wire client
    run in-process, opened by oid and mode bits."""

    def call(self, name, *args):
        if name != "open":
            return super().call(name, *args)
        api = self.client
        self.fd = api.lo_open(int(self.designator[3:]), api.INV_READ | (
            api.INV_WRITE if args[0] == "rw" else 0))


@pytest.mark.server
@pytest.mark.parametrize("impl", ["fchunk", "vsegment"])
def test_local_and_remote_descriptors_are_the_same_file(impl):
    """Every call returns, moves the position and fails alike — class and
    message — through a local handle, through the wire and through
    ``LargeObjectApi``, at two seeds.

    The one stated difference: a closed local handle is still an object
    (``ObjectClosedError`` naming it), a closed remote or API descriptor
    is a number that names nothing (``LargeObjectError: bad large-object
    descriptor``).
    """
    for seed in (1993, 31):
        _three_parties_run_one_script(impl, seed)


def _three_parties_run_one_script(impl, seed):
    local_db = Database(charge_cpu=False)
    remote_db = Database(charge_cpu=False)
    api_db = Database(charge_cpu=False)
    try:
        with ReproServer(remote_db) as server, \
                ServerClient(*server.address) as client, \
                LargeObjectApi(api_db) as api_client:
            local = _LocalFile(local_db, impl)
            remote = _RemoteFile(remote_db, impl, client)
            api = _ApiFile(api_db, impl, api_client)
            assert local.designator == remote.designator == api.designator
            is_open, committed = True, []
            for step, (name, args) in enumerate(
                    _same_file_script(seed=seed)):
                where = f"seed {seed} step {step}: {name}{args!r}"[:120]
                was_open = is_open
                if name in ("close", "commit", "open"):
                    is_open = name == "open"
                here = local.outcome(name, args)
                there = remote.outcome(name, args)
                assert api.outcome(name, args) == there, where
                if was_open or name in ("commit", "begin", "open"):
                    assert here == there, where
                else:
                    assert here == (
                        "ObjectClosedError",
                        f"large object {local.designator!r} is closed"), where
                    assert there[0] == "LargeObjectError" and \
                        there[1].startswith("bad large-object descriptor "
                                            f"{remote.fd}"), where
                if is_open:
                    assert local.call("tell") == remote.call("tell") \
                        == api.call("tell"), where
                if name == "commit":
                    committed.append(local.contents())
                    assert committed[-1] == remote.contents() \
                        == api.contents(), where
            for party in (local, remote, api):
                party.call("commit")
            assert local.contents() == remote.contents() == api.contents()
            assert len(committed) > 3 and max(map(len, committed)) > 8000
    finally:
        local_db.close()
        remote_db.close()
        api_db.close()
