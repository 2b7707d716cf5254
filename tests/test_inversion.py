"""Tests for the Inversion file system (§8)."""

import threading
import time

import pytest

from repro.db import Database
from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InversionError,
    LockError,
    NotADirectory,
)
from repro.txn.locks import LockMode


@pytest.fixture
def db():
    database = Database()
    yield database
    database.close()


@pytest.fixture
def fs(db):
    return db.inversion


class TestBasics:
    def test_root_exists(self, fs):
        assert fs.exists("/")
        assert fs.is_dir("/")
        assert fs.listdir("/") == []

    def test_create_and_read_file(self, db, fs):
        with db.begin() as txn:
            with fs.create(txn, "/hello.txt") as handle:
                handle.write(b"hello inversion")
        assert fs.read_file("/hello.txt") == b"hello inversion"
        assert fs.listdir("/") == ["hello.txt"]

    def test_nested_directories(self, db, fs):
        with db.begin() as txn:
            fs.mkdir(txn, "/usr")
            fs.mkdir(txn, "/usr/joe")
            with fs.create(txn, "/usr/joe/photo") as handle:
                handle.write(b"\x89PNG")
        assert fs.read_file("/usr/joe/photo") == b"\x89PNG"
        assert fs.listdir("/usr") == ["joe"]

    def test_duplicate_path_rejected(self, db, fs):
        with db.begin() as txn:
            fs.create(txn, "/f").close()
            with pytest.raises(FileExists):
                fs.create(txn, "/f")
            with pytest.raises(FileExists):
                fs.mkdir(txn, "/f")

    def test_missing_parent_rejected(self, db, fs):
        with db.begin() as txn:
            with pytest.raises(FileNotFound):
                fs.create(txn, "/no/such/dir/file")

    def test_file_as_directory_rejected(self, db, fs):
        with db.begin() as txn:
            fs.create(txn, "/plain").close()
            with pytest.raises(NotADirectory):
                fs.create(txn, "/plain/child")

    def test_relative_path_rejected(self, fs):
        with pytest.raises(InversionError):
            fs.exists("relative/path")

    def test_open_missing(self, fs):
        with pytest.raises(FileNotFound):
            fs.open("/ghost")

    def test_open_directory_rejected(self, db, fs):
        with db.begin() as txn:
            fs.mkdir(txn, "/d")
        with pytest.raises(InversionError):
            fs.open("/d")

    def test_write_file_convenience(self, db, fs):
        with db.begin() as txn:
            fs.write_file(txn, "/conv", b"first")
        with db.begin() as txn:
            fs.write_file(txn, "/conv", b"SECOND")
        assert fs.read_file("/conv") == b"SECOND"


class TestFileIO:
    def test_seek_read_write(self, db, fs):
        with db.begin() as txn:
            with fs.create(txn, "/data") as handle:
                handle.write(b"0123456789" * 1000)
        with db.begin() as txn:
            with fs.open("/data", txn, "rw") as handle:
                handle.seek(5000)
                handle.write(b"XXXX")
        with fs.open("/data") as handle:
            handle.seek(4998)
            assert handle.read(8) == b"89XXXX45"

    def test_big_file_spans_chunks(self, db, fs):
        payload = bytes(range(256)) * 256  # 64 KB
        with db.begin() as txn:
            with fs.create(txn, "/big") as handle:
                handle.write(payload)
        assert fs.read_file("/big") == payload


class TestMetadata:
    def test_stat_file(self, db, fs):
        with db.begin() as txn:
            with fs.create(txn, "/f") as handle:
                handle.write(b"12345")
        info = fs.stat("/f")
        assert info["size"] == 5
        assert info["kind"] == "f"
        assert info["owner"] == "postgres"
        assert info["ctime"] <= info["mtime"]

    def test_stat_directory(self, db, fs):
        with db.begin() as txn:
            fs.mkdir(txn, "/d")
        info = fs.stat("/d")
        assert info["kind"] == "d"
        assert info["size"] == 0

    def test_stat_opens_no_descriptor(self, db, fs, monkeypatch):
        """stat reads the size row with the snapshot it already has: no
        descriptor, no second path resolution."""
        with db.begin() as txn:
            fs.mkdir(txn, "/d")
            with fs.create(txn, "/d/f") as handle:
                handle.write(b"12345")
        registered = []
        register = db.lo._register_open
        monkeypatch.setattr(
            db.lo, "_register_open",
            lambda oid: (registered.append(oid), register(oid)))

        def probes(call):
            before = db.statistics()["access"]["probes"]
            call()
            return db.statistics()["access"]["probes"] - before

        stat_probes = probes(lambda: fs.stat("/d/f"))
        assert registered == []
        open_probes = probes(lambda: fs.open("/d/f").close())
        assert len(registered) == 1
        # What open reads (path + STORAGE), plus FILESTAT and the size row.
        assert stat_probes == open_probes + 2

    def test_mtime_updated_on_write(self, db, fs):
        with db.begin() as txn:
            fs.create(txn, "/f").close()
        before = fs.stat("/f")["mtime"]
        with db.begin() as txn:
            with fs.open("/f", txn, "rw") as handle:
                handle.write(b"new data")
        assert fs.stat("/f")["mtime"] > before

    def test_queryable_directory_class(self, db, fs):
        """§8: 'a user can use the query language to perform searches on
        the DIRECTORY class' — here via the scan API."""
        with db.begin() as txn:
            fs.mkdir(txn, "/docs")
            fs.create(txn, "/docs/a.txt").close()
            fs.create(txn, "/docs/b.txt").close()
        names = {t.values[0] for t in db.scan("DIRECTORY")}
        assert {"docs", "a.txt", "b.txt"} <= names


class TestRemoveRename:
    def test_unlink(self, db, fs):
        with db.begin() as txn:
            fs.create(txn, "/doomed").close()
        with db.begin() as txn:
            fs.unlink(txn, "/doomed")
        assert not fs.exists("/doomed")

    def test_unlink_directory_rejected(self, db, fs):
        with db.begin() as txn:
            fs.mkdir(txn, "/d")
            with pytest.raises(InversionError):
                fs.unlink(txn, "/d")

    def test_rmdir(self, db, fs):
        with db.begin() as txn:
            fs.mkdir(txn, "/d")
        with db.begin() as txn:
            fs.rmdir(txn, "/d")
        assert not fs.exists("/d")

    def test_rmdir_nonempty_rejected(self, db, fs):
        with db.begin() as txn:
            fs.mkdir(txn, "/d")
            fs.create(txn, "/d/f").close()
            with pytest.raises(DirectoryNotEmpty):
                fs.rmdir(txn, "/d")

    def test_rename_file(self, db, fs):
        with db.begin() as txn:
            fs.write_file(txn, "/old", b"contents")
        with db.begin() as txn:
            fs.rename(txn, "/old", "/new")
        assert not fs.exists("/old")
        assert fs.read_file("/new") == b"contents"

    def test_rename_into_subdir(self, db, fs):
        with db.begin() as txn:
            fs.mkdir(txn, "/d")
            fs.write_file(txn, "/f", b"x")
        with db.begin() as txn:
            fs.rename(txn, "/f", "/d/f2")
        assert fs.read_file("/d/f2") == b"x"

    def test_rename_onto_existing_rejected(self, db, fs):
        with db.begin() as txn:
            fs.write_file(txn, "/a", b"1")
            fs.write_file(txn, "/b", b"2")
            with pytest.raises(FileExists):
                fs.rename(txn, "/a", "/b")


class TestTransactions:
    """§8: 'transaction-protected access to conventional file data'."""

    def test_abort_rolls_back_creation(self, db, fs):
        txn = db.begin()
        fs.create(txn, "/ghost").close()
        txn.abort()
        assert not fs.exists("/ghost")

    def test_abort_rolls_back_contents(self, db, fs):
        with db.begin() as txn:
            fs.write_file(txn, "/f", b"stable")
        txn = db.begin()
        with fs.open("/f", txn, "rw") as handle:
            handle.write(b"DOOMED")
        txn.abort()
        assert fs.read_file("/f") == b"stable"

    def test_abort_rolls_back_rename(self, db, fs):
        with db.begin() as txn:
            fs.write_file(txn, "/a", b"x")
        txn = db.begin()
        fs.rename(txn, "/a", "/b")
        txn.abort()
        assert fs.exists("/a")
        assert not fs.exists("/b")

    def test_abort_rolls_back_unlink(self, db, fs):
        with db.begin() as txn:
            fs.write_file(txn, "/a", b"x")
        txn = db.begin()
        fs.unlink(txn, "/a")
        txn.abort()
        assert fs.read_file("/a") == b"x"

    #: Every structural path operation, aimed at the slot ``/a``.
    SLOT_OPS = {
        "create": lambda fs, txn: fs.create(txn, "/a"),
        "mkdir": lambda fs, txn: fs.mkdir(txn, "/a"),
        "unlink": lambda fs, txn: fs.unlink(txn, "/a"),
        "rmdir": lambda fs, txn: fs.rmdir(txn, "/a"),
        "rename-from": lambda fs, txn: fs.rename(txn, "/a", "/b"),
        "rename-to": lambda fs, txn: fs.rename(txn, "/c", "/a"),
        "rename-same": lambda fs, txn: fs.rename(txn, "/a", "/a"),
    }

    @pytest.mark.parametrize("inflight", ["unlink", "create"])
    @pytest.mark.parametrize("op", sorted(SLOT_OPS))
    def test_no_path_operation_succeeds_on_a_contended_slot(
            self, db, fs, op, inflight):
        """Every structural path operation holds its slot's ``inv_entry``
        lock before it reports success: against another transaction's
        uncommitted unlink or create of the same slot none returns (one
        thread runs both, so the lock wait raises at once).  The two
        renames *from* a name only the uncommitted create can see fail on
        their own snapshot instead."""
        with db.begin() as txn:
            fs.write_file(txn, "/c", b"y")
            if inflight == "unlink":
                fs.write_file(txn, "/a", b"x")
        holder, other = db.begin(), db.begin()
        if inflight == "unlink":
            fs.unlink(holder, "/a")
        else:
            fs.create(holder, "/a").close()
        unseen = inflight == "create" and op in ("rename-from",
                                                 "rename-same")
        with pytest.raises(FileNotFound if unseen else LockError):
            self.SLOT_OPS[op](fs, other)
        other.abort()
        holder.abort()

    @pytest.mark.parametrize("outcome", ["commit", "abort"])
    def test_same_path_rename_waits_for_the_unlink_it_races(
            self, db, fs, outcome):
        """``rename("/a", "/a")`` queues behind an in-flight unlink of
        ``/a``: it fails once the unlink commits, and succeeds (a no-op)
        if it aborts — never a success on an absent path, in either
        commit order."""
        with db.begin() as txn:
            fs.write_file(txn, "/a", b"x")
        unlinker = db.begin()
        fs.unlink(unlinker, "/a")
        result = []

        def renamer():
            txn = db.begin()
            try:
                fs.rename(txn, "/a", "/a")
                txn.commit()
                result.append("renamed")
            except FileNotFound:
                txn.abort()
                result.append("absent")

        thread = threading.Thread(target=renamer, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while thread.is_alive() and not db.locks.stats.waits \
                and time.monotonic() < deadline:
            thread.join(timeout=0.01)
        assert db.locks.stats.waits == 1 and not result  # parked on the slot
        getattr(unlinker, outcome)()
        thread.join(timeout=10)
        assert result == ["absent" if outcome == "commit" else "renamed"]
        assert fs.exists("/a") == (outcome == "abort")


    @pytest.mark.parametrize("outcome", ["commit", "abort"])
    def test_create_waits_for_the_create_it_races(self, db, fs, monkeypatch,
                                                  outcome):
        """A second ``create("/a")`` queues behind an in-flight create of
        ``/a``: it raises :class:`FileExists` once the holder commits, and
        creates the file if the holder aborts.  The holder's lock release
        is held open until the waiter is done, so a waiter that kept the
        look it took before its lock — or woke before the holder's end was
        counted — would create a second ``/a``."""
        holder = db.begin()
        fs.create(holder, "/a").close()
        result = []

        def creator():
            txn = db.begin()
            try:
                fs.create(txn, "/a").close()
                txn.commit()
                result.append("created")
            except FileExists:
                txn.abort()
                result.append("exists")

        thread = threading.Thread(target=creator, daemon=True)
        release_all = db.locks.release_all

        def release_then_wait(xid):
            release_all(xid)
            if xid == holder.xid:
                thread.join(timeout=10)

        monkeypatch.setattr(db.locks, "release_all", release_then_wait)
        thread.start()
        deadline = time.monotonic() + 10
        while thread.is_alive() and not db.locks.stats.waits \
                and time.monotonic() < deadline:
            thread.join(timeout=0.01)
        assert db.locks.stats.waits == 1 and not result  # parked on the slot
        getattr(holder, outcome)()
        thread.join(timeout=10)
        assert result == ["exists" if outcome == "commit" else "created"]
        assert fs.listdir("/") == ["a"]
        assert db.check_integrity() == []

    def test_write_file_that_loses_the_create_race_replaces(self, db, fs):
        """``write_file`` on a path another transaction is creating parks
        on the slot, loses the create once the holder commits, and
        replaces the holder's contents instead (its ``except
        FileExists`` branch)."""
        holder = db.begin()
        fs.write_file(holder, "/a", b"first")
        errors = []

        def writer():
            try:
                with db.begin() as txn:
                    fs.write_file(txn, "/a", b"second")
            except Exception as exc:
                errors.append(exc)

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while thread.is_alive() and not db.locks.stats.waits \
                and time.monotonic() < deadline:
            thread.join(timeout=0.01)
        assert db.locks.stats.waits == 1, errors  # parked on the slot
        holder.commit()
        thread.join(timeout=10)
        assert not thread.is_alive() and errors == []
        assert fs.read_file("/a") == b"second"
        assert fs.listdir("/") == ["a"]
        assert db.check_integrity() == []


class TestDirectoryReads:
    """A path operation reads each directory it names once: one look
    resolves every slot, and it stands when no transaction ended while
    the locks were granted (docs/performance.md)."""

    OPS = {
        "create": (lambda fs, txn: fs.create(txn, "/d/g").close(), 2),
        "unlink": (lambda fs, txn: fs.unlink(txn, "/d/f"), 2),
        "rename-same-dir": (lambda fs, txn: fs.rename(txn, "/d/f", "/d/g"),
                            2),
        "rename-cross-dir": (lambda fs, txn: fs.rename(txn, "/d/f", "/e/f"),
                             3),
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_each_directory_is_read_once(self, db, fs, monkeypatch, op):
        with db.begin() as txn:
            fs.mkdir(txn, "/d")
            fs.mkdir(txn, "/e")
            fs.write_file(txn, "/d/f", b"x")
        run, reads = self.OPS[op]
        read = []
        children = fs._children

        def counting(parent_id, snapshot):
            read.append(parent_id)
            return children(parent_id, snapshot)

        monkeypatch.setattr(fs, "_children", counting)
        with db.begin() as txn:
            run(fs, txn)
        assert len(read) == len(set(read)) == reads, read
        monkeypatch.undo()
        assert db.check_integrity() == []


class TestRelationLockOnce:
    """A transaction takes each relation's SHARED lock once: the heap
    verbs skip a relation lock their transaction already holds."""

    def test_four_64k_writes_make_six_lock_requests(self, db, fs,
                                                      monkeypatch):
        with db.begin() as txn:
            fs.create(txn, "/f")
        requests = []
        real = db.locks.acquire

        def acquire(xid, resource, mode):
            requests.append((resource, mode))
            return real(xid, resource, mode)

        monkeypatch.setattr(db.locks, "acquire", acquire)
        with db.begin() as txn:
            with fs.open("/f", txn, "w") as handle:
                for i in range(4):
                    handle.write(bytes([i]) * 65536)
        monkeypatch.undo()
        relations = [resource for resource, _mode in requests
                     if resource[0] == "relation"]
        # The object's class, pg_largeobject and FILESTAT, once each.
        assert len(relations) == len(set(relations)) == 3, requests
        assert len(requests) == 6, requests
        assert fs.read_file("/f") == b"".join(bytes([i]) * 65536
                                              for i in range(4))

    def test_an_exclusive_request_still_reaches_the_lock_manager(
            self, db, monkeypatch):
        db.create_class("T", [("k", "int4")])
        requests = []
        real = db.locks.acquire

        def acquire(xid, resource, mode):
            requests.append((resource, mode))
            return real(xid, resource, mode)

        monkeypatch.setattr(db.locks, "acquire", acquire)
        with db.begin() as txn:
            db.insert(txn, "T", (1,))
            db.insert(txn, "T", (2,))
            db.locks.acquire(txn.xid, ("relation", "T"), LockMode.EXCLUSIVE)
            assert db.locks.holds(txn.xid, ("relation", "T"),
                                  LockMode.EXCLUSIVE)
            db.insert(txn, "T", (3,))
        monkeypatch.undo()
        assert [mode for resource, mode in requests
                if resource == ("relation", "T")] == [LockMode.SHARED,
                                                      LockMode.EXCLUSIVE]


class TestTimeTravel:
    """§8: time travel over whole file-system states."""

    def test_historical_file_contents(self, db, fs):
        with db.begin() as txn:
            fs.write_file(txn, "/f", b"version 1")
        t1 = db.clock.now()
        with db.begin() as txn:
            with fs.open("/f", txn, "rw") as handle:
                handle.write(b"version 2")
        assert fs.read_file("/f", as_of=t1) == b"version 1"
        assert fs.read_file("/f") == b"version 2"

    def test_historical_directory_listing(self, db, fs):
        with db.begin() as txn:
            fs.write_file(txn, "/early", b"")
        t1 = db.clock.now()
        with db.begin() as txn:
            fs.write_file(txn, "/late", b"")
        assert fs.listdir("/", as_of=t1) == ["early"]
        assert fs.listdir("/") == ["early", "late"]

    def test_unlinked_file_readable_in_the_past(self, db, fs):
        with db.begin() as txn:
            fs.write_file(txn, "/f", b"was here")
        t1 = db.clock.now()
        with db.begin() as txn:
            fs.unlink(txn, "/f")
        assert not fs.exists("/f")
        assert fs.read_file("/f", as_of=t1) == b"was here"

    def test_rename_history(self, db, fs):
        with db.begin() as txn:
            fs.write_file(txn, "/before", b"x")
        t1 = db.clock.now()
        with db.begin() as txn:
            fs.rename(txn, "/before", "/after")
        assert fs.exists("/before", as_of=t1)
        assert not fs.exists("/after", as_of=t1)
        assert fs.exists("/after")


class TestConfigurations:
    def test_vsegment_backed_files(self, db):
        from repro.inversion.filesystem import InversionFileSystem
        fs = InversionFileSystem(db, impl="vsegment",
                                 compression="zero-rle")
        with db.begin() as txn:
            fs.write_file(txn, "/compressed", b"abc" + bytes(10_000))
        assert fs.read_file("/compressed") == b"abc" + bytes(10_000)

    def test_ufile_backing_rejected(self, db):
        from repro.inversion.filesystem import InversionFileSystem
        with pytest.raises(InversionError):
            InversionFileSystem(db, impl="ufile")

    def test_worm_backed_files(self, db):
        """§10: any storage manager automatically supports Inversion."""
        from repro.inversion.filesystem import InversionFileSystem
        fs = InversionFileSystem(db, smgr="worm")
        with db.begin() as txn:
            fs.write_file(txn, "/archive", b"permanent record")
        assert fs.read_file("/archive") == b"permanent record"

    def test_walk(self, db, fs):
        with db.begin() as txn:
            fs.mkdir(txn, "/a")
            fs.mkdir(txn, "/a/b")
            fs.write_file(txn, "/a/f1", b"")
            fs.write_file(txn, "/a/b/f2", b"")
            fs.write_file(txn, "/top", b"")
        tree = {path: (dirs, files) for path, dirs, files in fs.walk()}
        assert tree["/"] == (["a"], ["top"])
        assert tree["/a"] == (["b"], ["f1"])
        assert tree["/a/b"] == ([], ["f2"])


class TestImportExport:
    def test_roundtrip_through_real_directories(self, db, fs, tmp_path):
        source = tmp_path / "src"
        (source / "sub").mkdir(parents=True)
        (source / "top.txt").write_bytes(b"top contents")
        (source / "sub" / "inner.bin").write_bytes(b"\x00\x01\x02")
        with db.begin() as txn:
            fs.mkdir(txn, "/imported")
            copied = fs.import_tree(txn, str(source), "/imported")
        assert copied == 2
        assert fs.read_file("/imported/top.txt") == b"top contents"
        assert fs.read_file("/imported/sub/inner.bin") == b"\x00\x01\x02"

        target = tmp_path / "out"
        exported = fs.export_tree("/imported", str(target))
        assert exported == 2
        assert (target / "top.txt").read_bytes() == b"top contents"
        assert (target / "sub" / "inner.bin").read_bytes() == b"\x00\x01\x02"

    def test_point_in_time_export(self, db, fs, tmp_path):
        with db.begin() as txn:
            fs.write_file(txn, "/report", b"draft")
        stamp = db.clock.now()
        with db.begin() as txn:
            fs.write_file(txn, "/report", b"final")
        target = tmp_path / "backup"
        fs.export_tree("/", str(target), as_of=stamp)
        assert (target / "report").read_bytes() == b"draft"

    def test_import_is_transactional(self, db, fs, tmp_path):
        source = tmp_path / "src"
        source.mkdir()
        (source / "a").write_bytes(b"a")
        txn = db.begin()
        fs.import_tree(txn, str(source), "/")
        txn.abort()
        assert not fs.exists("/a")


class TestTimeTravelChains:
    """Satellite coverage: as_of across rename chains and name reuse."""

    def test_rename_chain_every_epoch_readable(self, db, fs):
        """A file renamed through several names: at every recorded
        instant exactly one name resolves, always to the same bytes."""
        with db.begin() as txn:
            fs.write_file(txn, "/a", b"chained")
        chain = ["/a", "/b", "/c", "/d"]
        stamps = [db.clock.now()]
        for src, dst in zip(chain, chain[1:]):
            db.clock.advance(1.0, "think")
            with db.begin() as txn:
                fs.rename(txn, src, dst)
            stamps.append(db.clock.now())
        for stamp, expected in zip(stamps, chain):
            for name in chain:
                if name == expected:
                    assert fs.read_file(name, as_of=stamp) == b"chained"
                else:
                    assert not fs.exists(name, as_of=stamp)

    def test_rename_chain_of_directory_with_contents(self, db, fs):
        with db.begin() as txn:
            fs.mkdir(txn, "/d1")
            fs.write_file(txn, "/d1/f", b"inside")
        t1 = db.clock.now()
        with db.begin() as txn:
            fs.rename(txn, "/d1", "/d2")
        t2 = db.clock.now()
        with db.begin() as txn:
            fs.rename(txn, "/d2", "/d3")
        assert fs.read_file("/d1/f", as_of=t1) == b"inside"
        assert fs.read_file("/d2/f", as_of=t2) == b"inside"
        assert fs.read_file("/d3/f") == b"inside"
        assert not fs.exists("/d1") and not fs.exists("/d2")

    def test_unlink_recreate_epochs_keep_distinct_files(self, db, fs):
        """One path, two generations of file: each as_of instant sees
        the generation (contents, mode, file id) alive at that time."""
        with db.begin() as txn:
            fs.create(txn, "/p", mode=0o600).close()
            fs.write_file(txn, "/p", b"gen one")
        t1 = db.clock.now()
        db.clock.advance(1.0, "think")
        with db.begin() as txn:
            fs.unlink(txn, "/p")
        t_gone = db.clock.now()
        db.clock.advance(1.0, "think")
        with db.begin() as txn:
            fs.create(txn, "/p", mode=0o640).close()
            fs.write_file(txn, "/p", b"gen two")
        st1 = fs.stat("/p", as_of=t1)
        st2 = fs.stat("/p")
        assert fs.read_file("/p", as_of=t1) == b"gen one"
        assert not fs.exists("/p", as_of=t_gone)
        assert fs.read_file("/p") == b"gen two"
        assert st1["file_id"] != st2["file_id"]
        assert (st1["mode"], st2["mode"]) == (0o600, 0o640)

    def test_unlink_recreate_as_directory(self, db, fs):
        with db.begin() as txn:
            fs.write_file(txn, "/p", b"was a file")
        t1 = db.clock.now()
        with db.begin() as txn:
            fs.unlink(txn, "/p")
            fs.mkdir(txn, "/p")
            fs.write_file(txn, "/p/child", b"now a dir")
        assert not fs.is_dir("/p", as_of=t1)
        assert fs.read_file("/p", as_of=t1) == b"was a file"
        assert fs.is_dir("/p")
        assert fs.read_file("/p/child") == b"now a dir"


class TestImportExportFidelity:
    """Satellite coverage: round-trips preserve empty dirs + mode bits."""

    def test_roundtrip_empty_dirs_and_modes(self, db, fs, tmp_path):
        source = tmp_path / "src"
        (source / "empty").mkdir(parents=True)
        (source / "locked").mkdir()
        (source / "locked" / "secret").write_bytes(b"s3cr3t")
        (source / "script").write_bytes(b"#!/bin/sh\n")
        (source / "script").chmod(0o755)
        (source / "locked" / "secret").chmod(0o600)
        (source / "locked").chmod(0o700)

        with db.begin() as txn:
            fs.mkdir(txn, "/in")
            copied = fs.import_tree(txn, str(source), "/in")
        assert copied == 2
        assert fs.is_dir("/in/empty")
        assert fs.stat("/in/script")["mode"] == 0o755
        assert fs.stat("/in/locked")["mode"] == 0o700
        assert fs.stat("/in/locked/secret")["mode"] == 0o600

        target = tmp_path / "out"
        exported = fs.export_tree("/in", str(target))
        assert exported == 2
        assert (target / "empty").is_dir()
        assert not any((target / "empty").iterdir())
        assert (target / "script").stat().st_mode & 0o7777 == 0o755
        assert (target / "locked").stat().st_mode & 0o7777 == 0o700
        assert (target / "locked" / "secret").read_bytes() == b"s3cr3t"
        assert (target / "locked" / "secret").stat().st_mode & 0o7777 \
            == 0o600

    def test_export_restrictive_dir_mode_applied_last(self, db, fs,
                                                      tmp_path):
        """A directory exported as r-x must still receive its children:
        the chmod happens after the subtree is written."""
        with db.begin() as txn:
            fs.mkdir(txn, "/ro", mode=0o555)
            fs.write_file(txn, "/ro/f", b"x")
        target = tmp_path / "out"
        fs.export_tree("/", str(target))
        assert (target / "ro" / "f").read_bytes() == b"x"
        assert (target / "ro").stat().st_mode & 0o7777 == 0o555
        (target / "ro").chmod(0o755)  # let pytest clean tmp_path up
