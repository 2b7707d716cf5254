"""The socket front-end: protocol, server, client, multi-client runs.

The unmarked tests are tier-1 sized round trips over a real TCP socket
on the loopback interface.  The ``server``-marked stress runs drive
four-plus concurrent clients through one shared object — the
acceptance-criteria scenario for the server plus range-lock PR.
"""

import random
import socket
import threading
import time

import pytest

from repro.db import Database
from repro.errors import (DeadlockError, LargeObjectError,
                          LargeObjectNotFound, NoActiveTransaction,
                          ReproError,
                          StorageManagerError, TransactionError)
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
                # The flush's page allocations overflow the 8-page pool,
                # so its eviction writeback hits the bad device.
                db.inject_faults("on write *: error")
                with pytest.raises(StorageManagerError):
                    client.lo_close(fd)
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


@pytest.mark.server
@pytest.mark.parametrize("impl", ["fchunk", "vsegment"])
def test_local_and_remote_descriptors_are_the_same_file(impl):
    """Every call returns, moves the position and fails alike — class and
    message — through a local handle and through the wire.

    The one stated difference: a closed local handle is still an object
    (``ObjectClosedError`` naming it), a closed remote descriptor is a
    number that names nothing (``LargeObjectError: bad large-object
    descriptor``).
    """
    local_db = Database(charge_cpu=False)
    remote_db = Database(charge_cpu=False)
    try:
        with ReproServer(remote_db) as server, \
                ServerClient(*server.address) as client:
            local = _LocalFile(local_db, impl)
            remote = _RemoteFile(remote_db, impl, client)
            assert local.designator == remote.designator
            is_open, committed = True, []
            for step, (name, args) in enumerate(
                    _same_file_script(seed=1993)):
                where = f"step {step}: {name}{args!r}"[:120]
                was_open = is_open
                if name in ("close", "commit", "open"):
                    is_open = name == "open"
                here = local.outcome(name, args)
                there = remote.outcome(name, args)
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
                    assert local.call("tell") == remote.call("tell"), where
                if name == "commit":
                    committed.append(local.contents())
                    assert committed[-1] == remote.contents(), where
            local.call("commit")
            remote.call("commit")
            assert local.contents() == remote.contents()
            assert len(committed) > 3 and max(map(len, committed)) > 8000
    finally:
        local_db.close()
        remote_db.close()
