"""Table-driven POSIX conformance suite for the Inversion file system.

Every case is one data row ``(ident, given, do, raises, then)``:

* ``given`` — setup steps, committed in one transaction;
* ``do``    — the operation under test, run in its own transaction
  (committed on success, rolled back when ``raises`` fired);
* ``raises`` — expected exception class, or ``None`` for success;
* ``then``  — post-condition checks against the committed tree.

The rows cover the §8 file-system surface over the cross product the
issue calls for — operation × target kind × existence × nesting depth —
plus rename-over-existing, rename-into-own-subtree, permission bits,
timestamp propagation, and lexical path edge cases.  Deliberate POSIX
deviations asserted here are documented in DESIGN.md: rename over an
existing destination raises :class:`FileExists` (no implicit replace),
rename into the moved directory's own subtree raises
:class:`DirectoryLoop`, and ``atime``/``mtime`` maintenance happens only
for transaction-bound handles.

Every successful case additionally ends with a clean
:meth:`~repro.db.Database.check_integrity` run, so a row that corrupts
catalog/Inversion invariants fails even if its explicit checks pass.
"""

import pytest

from repro.db import Database
from repro.errors import (
    DirectoryLoop,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InversionError,
    NotADirectory,
)
from repro.inversion.filesystem import DEFAULT_DIR_MODE, DEFAULT_FILE_MODE

# ---------------------------------------------------------------------------
# the case table
# ---------------------------------------------------------------------------

CASES = []


def case(ident, *, given=(), do, raises=None, then=()):
    CASES.append(pytest.param(given, do, raises, then, id=ident))


# -- create / mkdir: existence x kind x nesting ------------------------------

for op in ("create", "mkdir"):
    kind_check = "isdir" if op == "mkdir" else "isfile"
    case(f"{op}-absent", do=(op, "/t"),
         then=(("exists", "/t"), (kind_check, "/t")))
    case(f"{op}-over-file", given=(("file", "/t", b"old"),),
         do=(op, "/t"), raises=FileExists)
    case(f"{op}-over-dir", given=(("mkdir", "/t"),),
         do=(op, "/t"), raises=FileExists)
    case(f"{op}-missing-parent", do=(op, "/no/t"), raises=FileNotFound)
    case(f"{op}-file-parent", given=(("file", "/f", b"x"),),
         do=(op, "/f/t"), raises=NotADirectory)
    case(f"{op}-in-dir", given=(("mkdir", "/d"),), do=(op, "/d/t"),
         then=(("exists", "/d/t"), (kind_check, "/d/t"),
               ("names", "/d", ["t"])))
    case(f"{op}-deep",
         given=(("mkdir", "/a"), ("mkdir", "/a/b"), ("mkdir", "/a/b/c")),
         do=(op, "/a/b/c/t"),
         then=(("exists", "/a/b/c/t"), (kind_check, "/a/b/c/t")))

case("create-empty-file-size-0", do=("create", "/t"),
     then=(("size", "/t", 0), ("data", "/t", b"")))
case("mkdir-sibling-name-reuse",
     given=(("mkdir", "/d"), ("file", "/d/n", b"x"), ("mkdir", "/e")),
     do=("mkdir", "/e/n"),
     then=(("isfile", "/d/n"), ("isdir", "/e/n")))

# -- unlink / rmdir: kind x existence x nesting ------------------------------

case("unlink-file", given=(("file", "/t", b"x"),), do=("unlink", "/t"),
     then=(("absent", "/t"), ("names", "/", [])))
case("unlink-dir", given=(("mkdir", "/t"),), do=("unlink", "/t"),
     raises=InversionError)
case("unlink-missing", do=("unlink", "/t"), raises=FileNotFound)
case("unlink-root", do=("unlink", "/"), raises=InversionError)
case("unlink-nested",
     given=(("mkdir", "/d"), ("file", "/d/t", b"x"), ("file", "/d/k", b"y")),
     do=("unlink", "/d/t"),
     then=(("absent", "/d/t"), ("names", "/d", ["k"])))
case("unlink-keeps-siblings",
     given=(("file", "/t", b"x"), ("file", "/u", b"y"), ("mkdir", "/v")),
     do=("unlink", "/t"),
     then=(("absent", "/t"), ("names", "/", ["u", "v"]),
           ("data", "/u", b"y")))

case("rmdir-empty", given=(("mkdir", "/t"),), do=("rmdir", "/t"),
     then=(("absent", "/t"),))
case("rmdir-nonempty-file", given=(("mkdir", "/t"), ("file", "/t/f", b"")),
     do=("rmdir", "/t"), raises=DirectoryNotEmpty)
case("rmdir-nonempty-dir", given=(("mkdir", "/t"), ("mkdir", "/t/d")),
     do=("rmdir", "/t"), raises=DirectoryNotEmpty)
case("rmdir-file", given=(("file", "/t", b"x"),), do=("rmdir", "/t"),
     raises=NotADirectory)
case("rmdir-missing", do=("rmdir", "/t"), raises=FileNotFound)
case("rmdir-root", do=("rmdir", "/"), raises=InversionError)
case("rmdir-nested", given=(("mkdir", "/d"), ("mkdir", "/d/t")),
     do=("rmdir", "/d/t"), then=(("absent", "/d/t"), ("isdir", "/d")))
case("rmdir-emptied", given=(("mkdir", "/t"), ("file", "/t/f", b"x"),
                             ("unlink", "/t/f")),
     do=("rmdir", "/t"), then=(("absent", "/t"),))

# -- rename: src kind x dst state x nesting ----------------------------------

case("rename-file-to-absent", given=(("file", "/s", b"payload"),),
     do=("rename", "/s", "/d"),
     then=(("absent", "/s"), ("data", "/d", b"payload")))
case("rename-file-across-dirs",
     given=(("mkdir", "/a"), ("mkdir", "/b"), ("file", "/a/s", b"p")),
     do=("rename", "/a/s", "/b/d"),
     then=(("absent", "/a/s"), ("data", "/b/d", b"p"),
           ("names", "/a", []), ("names", "/b", ["d"])))
case("rename-file-same-dir", given=(("file", "/s", b"p"),),
     do=("rename", "/s", "/s2"), then=(("data", "/s2", b"p"),))
# Deviation: POSIX rename(2) replaces an existing destination; Inversion
# refuses (DESIGN.md) so history never silently loses a file version chain.
case("rename-over-file", given=(("file", "/s", b"p"), ("file", "/d", b"q")),
     do=("rename", "/s", "/d"), raises=FileExists,
     then=(("data", "/s", b"p"), ("data", "/d", b"q")))
case("rename-over-dir", given=(("file", "/s", b"p"), ("mkdir", "/d")),
     do=("rename", "/s", "/d"), raises=FileExists)
case("rename-dir-over-file", given=(("mkdir", "/s"), ("file", "/d", b"q")),
     do=("rename", "/s", "/d"), raises=FileExists)
case("rename-dir-over-empty-dir", given=(("mkdir", "/s"), ("mkdir", "/d")),
     do=("rename", "/s", "/d"), raises=FileExists)
case("rename-dir-to-absent",
     given=(("mkdir", "/s"), ("file", "/s/f", b"inside"), ("mkdir", "/s/sub")),
     do=("rename", "/s", "/d"),
     then=(("absent", "/s"), ("isdir", "/d"), ("data", "/d/f", b"inside"),
           ("isdir", "/d/sub"), ("names", "/d", ["f", "sub"])))
case("rename-dir-into-dir",
     given=(("mkdir", "/s"), ("file", "/s/f", b"i"), ("mkdir", "/t")),
     do=("rename", "/s", "/t/s"),
     then=(("absent", "/s"), ("data", "/t/s/f", b"i")))
case("rename-missing-src", do=("rename", "/s", "/d"), raises=FileNotFound)
case("rename-missing-dst-parent", given=(("file", "/s", b"p"),),
     do=("rename", "/s", "/no/d"), raises=FileNotFound)
case("rename-dst-file-parent",
     given=(("file", "/s", b"p"), ("file", "/f", b"x")),
     do=("rename", "/s", "/f/d"), raises=NotADirectory)
case("rename-root", do=("rename", "/", "/d"), raises=InversionError)
case("rename-to-root", given=(("mkdir", "/s"),), do=("rename", "/s", "/"),
     raises=FileExists)
case("rename-same-path-noop", given=(("file", "/s", b"p"),),
     do=("rename", "/s", "/s"), then=(("data", "/s", b"p"),))
case("rename-same-path-missing", do=("rename", "/s", "/s"),
     raises=FileNotFound)
# The lexical own-subtree check must not mistake "same path" for "inside".
case("rename-dir-same-path-noop",
     given=(("mkdir", "/s"), ("file", "/s/f", b"p")),
     do=("rename", "/s", "/s"),
     then=(("isdir", "/s"), ("data", "/s/f", b"p")))
# Deviation: POSIX EINVAL; an ancestor moved under its own descendant
# would commit an unreachable cycle (the PR-8 regression).
case("rename-into-own-subtree",
     given=(("mkdir", "/s"), ("mkdir", "/s/sub")),
     do=("rename", "/s", "/s/sub/x"), raises=DirectoryLoop,
     then=(("isdir", "/s"), ("isdir", "/s/sub")))
case("rename-into-own-subtree-deep",
     given=(("mkdir", "/s"), ("mkdir", "/s/a"), ("mkdir", "/s/a/b")),
     do=("rename", "/s", "/s/a/b/x"), raises=DirectoryLoop)
case("rename-into-self", given=(("mkdir", "/s"),),
     do=("rename", "/s", "/s/x"), raises=DirectoryLoop)
case("rename-sibling-subtree-ok",
     given=(("mkdir", "/s"), ("mkdir", "/s2"), ("mkdir", "/s2/sub")),
     do=("rename", "/s", "/s2/sub/x"),
     then=(("absent", "/s"), ("isdir", "/s2/sub/x")))
case("rename-file-needs-no-loop-check",
     given=(("file", "/s", b"p"), ("mkdir", "/d")),
     do=("rename", "/s", "/d/s"), then=(("data", "/d/s", b"p"),))
case("rename-preserves-mode",
     given=(("create", "/s", 0o700),),
     do=("rename", "/s", "/d"), then=(("mode", "/d", 0o700),))
case("rename-unlinked-recreated",
     given=(("file", "/s", b"one"), ("unlink", "/s"), ("file", "/s", b"two")),
     do=("rename", "/s", "/d"), then=(("data", "/d", b"two"),))

# -- lexical path edge cases -------------------------------------------------

case("path-double-slash", given=(("mkdir", "/a"),), do=("mkdir", "/a//b"),
     then=(("isdir", "/a/b"),))
case("path-trailing-slash", do=("mkdir", "/d/"), then=(("isdir", "/d"),))
case("path-dot-component", given=(("mkdir", "/a"),),
     do=("create", "/a/./c"), then=(("isfile", "/a/c"),))
case("path-dotdot-component", given=(("mkdir", "/a"), ("mkdir", "/b")),
     do=("create", "/a/../b/c"), then=(("isfile", "/b/c"), ("names", "/a", [])))
case("path-dotdot-above-root", do=("create", "/../x"),
     then=(("isfile", "/x"),))
# Lexical resolution (documented in split_path): ".." pops without
# requiring the popped component to exist — Inversion has no symlinks,
# so the POSIX physical/lexical distinction collapses.
case("path-dotdot-pops-unchecked", given=(("mkdir", "/a"),),
     do=("create", "/a/b/../c"), then=(("isfile", "/a/c"),))
case("path-unlink-messy", given=(("mkdir", "/a"), ("file", "/a/f", b"x")),
     do=("unlink", "//a/./f"), then=(("absent", "/a/f"),))
case("path-relative-rejected", do=("create", "rel"), raises=InversionError)
case("path-dot-is-root-listdir", given=(("file", "/f", b"x"),),
     do=("listdir", "/."), then=(("names", "/", ["f"]),))

# -- permission bits ---------------------------------------------------------

case("mode-file-default", do=("create", "/t"),
     then=(("mode", "/t", DEFAULT_FILE_MODE),))
case("mode-dir-default", do=("mkdir", "/t"),
     then=(("mode", "/t", DEFAULT_DIR_MODE),))
case("mode-create-explicit", do=("create", "/t", 0o640),
     then=(("mode", "/t", 0o640),))
case("mode-mkdir-explicit", do=("mkdir", "/t", 0o700),
     then=(("mode", "/t", 0o700),))
case("mode-create-masks-to-7777", do=("create", "/t", 0o777644),
     then=(("mode", "/t", 0o7644),))
case("chmod-file", given=(("file", "/t", b"x"),), do=("chmod", "/t", 0o600),
     then=(("mode", "/t", 0o600),))
case("chmod-dir", given=(("mkdir", "/t"),), do=("chmod", "/t", 0o555),
     then=(("mode", "/t", 0o555),))
case("chmod-setuid-bits", given=(("file", "/t", b"x"),),
     do=("chmod", "/t", 0o4755), then=(("mode", "/t", 0o4755),))
case("chmod-missing", do=("chmod", "/t", 0o600), raises=FileNotFound)
case("chmod-keeps-data", given=(("file", "/t", b"same"),),
     do=("chmod", "/t", 0o444), then=(("data", "/t", b"same"),))
case("chown-file", given=(("file", "/t", b"x"),),
     do=("chown", "/t", "alice"), then=(("owner", "/t", "alice"),))
case("chown-missing", do=("chown", "/t", "alice"), raises=FileNotFound)

# -- IO: write / append / truncate / read ------------------------------------

case("write-file-creates", do=("write", "/t", b"fresh"),
     then=(("data", "/t", b"fresh"),))
case("write-file-replaces", given=(("file", "/t", b"longer-old-content"),),
     do=("write", "/t", b"new"),
     then=(("data", "/t", b"new"), ("size", "/t", 3)))
case("append-grows", given=(("file", "/t", b"abc"),),
     do=("append", "/t", b"def"), then=(("data", "/t", b"abcdef"),))
case("append-to-empty", given=(("create", "/t"),), do=("append", "/t", b"x"),
     then=(("data", "/t", b"x"),))
case("truncate-shrink", given=(("file", "/t", b"abcdef"),),
     do=("truncate", "/t", 2), then=(("data", "/t", b"ab"),))
case("truncate-to-zero", given=(("file", "/t", b"abcdef"),),
     do=("truncate", "/t", 0), then=(("data", "/t", b""), ("size", "/t", 0)))
# POSIX ftruncate extension zero-fills.
case("truncate-extend-zero-fills", given=(("file", "/t", b"ab"),),
     do=("truncate", "/t", 5), then=(("data", "/t", b"ab\0\0\0"),))
case("truncate-multichunk", given=(("file", "/t", b"z" * 9000),),
     do=("truncate", "/t", 8192),
     then=(("data", "/t", b"z" * 8192), ("size", "/t", 8192)))
case("open-dir", given=(("mkdir", "/t"),), do=("open", "/t", "r"),
     raises=InversionError)
case("write-under-file-parent", given=(("file", "/f", b"x"),),
     do=("write", "/f/t", b"y"), raises=NotADirectory)

# -- timestamps --------------------------------------------------------------

case("utime-explicit", given=(("file", "/t", b"x"),),
     do=("utime", "/t", 123.0, 456.0),
     then=(("atime", "/t", 123.0), ("mtime", "/t", 456.0)))
case("utime-dir", given=(("mkdir", "/t"),), do=("utime", "/t", 9.0, 9.5),
     then=(("atime", "/t", 9.0), ("mtime", "/t", 9.5)))
case("utime-missing", do=("utime", "/t", 1.0, 2.0), raises=FileNotFound)

# -- generated: read-side ops against the three bad path shapes --------------

_READ_OPS = {
    "read": lambda p: ("read", p),
    "open": lambda p: ("open", p, "r"),
    "stat": lambda p: ("stat", p),
    "listdir": lambda p: ("listdir", p),
}
_WRITE_OPS = {
    "unlink": lambda p: ("unlink", p),
    "rmdir": lambda p: ("rmdir", p),
    "rename-src": lambda p: ("rename", p, "/dst"),
    "chmod": lambda p: ("chmod", p, 0o600),
    "chown": lambda p: ("chown", p, "alice"),
    "utime": lambda p: ("utime", p, 1.0, 2.0),
    "append": lambda p: ("append", p, b"x"),
    "truncate": lambda p: ("truncate", p, 1),
}
_SHAPES = (
    # (suffix, extra setup, target path, expected error)
    ("missing", (), "/nope", FileNotFound),
    ("missing-parent", (), "/nope/t", FileNotFound),
    ("file-parent", (("file", "/fp", b"x"),), "/fp/t", NotADirectory),
)
for name, make in {**_READ_OPS, **_WRITE_OPS}.items():
    for suffix, extra, target, error in _SHAPES:
        case(f"{name}-{suffix}", given=extra, do=make(target), raises=error)
case("rename-dst-under-missing-parent", given=(("file", "/s", b"p"),),
     do=("rename", "/s", "/nope/t/d"), raises=FileNotFound)

# -- generated: core success ops at depths 1-3 -------------------------------

_DEPTH_GIVEN = {1: (), 2: (("mkdir", "/d1"),),
                3: (("mkdir", "/d1"), ("mkdir", "/d1/d2"))}
_DEPTH_PREFIX = {1: "", 2: "/d1", 3: "/d1/d2"}
for depth in (1, 2, 3):
    pre, base = _DEPTH_GIVEN[depth], _DEPTH_PREFIX[depth]
    case(f"depth{depth}-write-read", given=pre,
         do=("write", f"{base}/t", b"deep"),
         then=(("data", f"{base}/t", b"deep"),))
    case(f"depth{depth}-unlink", given=pre + ((("file", f"{base}/t", b"x")),),
         do=("unlink", f"{base}/t"), then=(("absent", f"{base}/t"),))
    case(f"depth{depth}-mkdir-rmdir", given=pre + (("mkdir", f"{base}/t"),),
         do=("rmdir", f"{base}/t"), then=(("absent", f"{base}/t"),))
    case(f"depth{depth}-rename-out", given=pre + (("file", f"{base}/t", b"m"),),
         do=("rename", f"{base}/t", "/moved"),
         then=(("absent", f"{base}/t"), ("data", "/moved", b"m")))
    case(f"depth{depth}-chmod", given=pre + (("file", f"{base}/t", b"x"),),
         do=("chmod", f"{base}/t", 0o611),
         then=(("mode", f"{base}/t", 0o611),))


def test_table_is_big_enough():
    assert len(CASES) >= 120, f"only {len(CASES)} conformance cases"


# ---------------------------------------------------------------------------
# the interpreter
# ---------------------------------------------------------------------------


def _step(fs, txn, step):
    op, args = step[0], step[1:]
    if op == "mkdir":
        fs.mkdir(txn, *args)
    elif op == "create":
        if len(args) == 2:
            fs.create(txn, args[0], mode=args[1]).close()
        else:
            fs.create(txn, args[0]).close()
    elif op == "file":
        path, data = args
        with fs.create(txn, path) as handle:
            handle.write(data)
    elif op == "write":
        fs.write_file(txn, *args)
    elif op == "append":
        path, data = args
        with fs.open(path, txn, "rw") as handle:
            handle.append(data)
    elif op == "truncate":
        path, size = args
        with fs.open(path, txn, "rw") as handle:
            handle.truncate(size)
    elif op == "unlink":
        fs.unlink(txn, *args)
    elif op == "rmdir":
        fs.rmdir(txn, *args)
    elif op == "rename":
        fs.rename(txn, *args)
    elif op == "chmod":
        fs.chmod(txn, *args)
    elif op == "chown":
        fs.chown(txn, *args)
    elif op == "utime":
        fs.utime(txn, *args)
    elif op == "read":
        fs.read_file(args[0], txn)
    elif op == "open":
        fs.open(args[0], txn, args[1]).close()
    elif op == "stat":
        fs.stat(args[0], txn)
    elif op == "listdir":
        fs.listdir(args[0], txn)
    else:  # pragma: no cover - table typo guard
        raise AssertionError(f"unknown step {step!r}")


def _check(fs, check):
    kind, path, expected = (check + (None,))[:3]
    if kind == "exists":
        assert fs.exists(path), f"{path} should exist"
    elif kind == "absent":
        assert not fs.exists(path), f"{path} should be gone"
    elif kind == "isdir":
        assert fs.is_dir(path), f"{path} should be a directory"
    elif kind == "isfile":
        assert fs.exists(path) and not fs.is_dir(path), \
            f"{path} should be a plain file"
    elif kind == "data":
        assert fs.read_file(path) == expected
    elif kind == "names":
        assert fs.listdir(path) == expected
    elif kind == "mode":
        assert fs.stat(path)["mode"] == expected, \
            f"{path} mode {fs.stat(path)['mode']:o} != {expected:o}"
    elif kind == "owner":
        assert fs.stat(path)["owner"] == expected
    elif kind == "size":
        assert fs.stat(path)["size"] == expected
    elif kind == "atime":
        assert fs.stat(path)["atime"] == expected
    elif kind == "mtime":
        assert fs.stat(path)["mtime"] == expected
    else:  # pragma: no cover - table typo guard
        raise AssertionError(f"unknown check {check!r}")


@pytest.mark.parametrize("given,do,raises,then", CASES)
def test_posix_conformance(given, do, raises, then):
    db = Database()
    fs = db.inversion
    try:
        if given:
            with db.begin() as txn:
                for step in given:
                    _step(fs, txn, step)
        session = db.session()
        session.begin()
        if raises is None:
            _step(fs, session.txn, do)
            session.commit()
        else:
            with pytest.raises(raises):
                _step(fs, session.txn, do)
            if session.in_transaction:
                session.rollback()
        for check in then:
            _check(fs, check)
        assert db.check_integrity() == []
    finally:
        db.close()


# ---------------------------------------------------------------------------
# timestamp propagation (needs the clock between steps — not table-friendly)
# ---------------------------------------------------------------------------


@pytest.fixture
def db():
    database = Database()
    yield database
    database.close()


@pytest.fixture
def fs(db):
    return db.inversion


class TestTimestamps:
    def test_create_sets_all_three(self, db, fs):
        with db.begin() as txn:
            fs.create(txn, "/t").close()
        st = fs.stat("/t")
        assert st["atime"] == st["mtime"] == st["ctime"] > 0

    def test_write_updates_mtime_not_atime(self, db, fs):
        with db.begin() as txn:
            fs.create(txn, "/t").close()
        before = fs.stat("/t")
        db.clock.advance(10.0, "think")
        with db.begin() as txn:
            with fs.open("/t", txn, "rw") as handle:
                handle.write(b"x")
        after = fs.stat("/t")
        assert after["mtime"] > before["mtime"]
        assert after["atime"] == before["atime"]

    def test_read_updates_atime_in_txn(self, db, fs):
        with db.begin() as txn:
            with fs.create(txn, "/t") as handle:
                handle.write(b"x")
        before = fs.stat("/t")
        db.clock.advance(10.0, "think")
        with db.begin() as txn:
            fs.read_file("/t", txn)
        after = fs.stat("/t")
        assert after["atime"] > before["atime"]
        assert after["mtime"] == before["mtime"]

    def test_detached_read_leaves_atime_alone(self, db, fs):
        """Deviation (deliberate): snapshot reads outside a transaction
        are pure observers — they cannot write an atime."""
        with db.begin() as txn:
            with fs.create(txn, "/t") as handle:
                handle.write(b"x")
        before = fs.stat("/t")
        db.clock.advance(10.0, "think")
        fs.read_file("/t")
        assert fs.stat("/t")["atime"] == before["atime"]

    def test_as_of_read_leaves_atime_alone(self, db, fs):
        with db.begin() as txn:
            with fs.create(txn, "/t") as handle:
                handle.write(b"x")
        point = db.clock.now()
        before = fs.stat("/t")
        db.clock.advance(10.0, "think")
        with db.begin() as txn:
            fs.read_file("/t", as_of=point)
        assert fs.stat("/t")["atime"] == before["atime"]

    def test_chmod_bumps_ctime_only(self, db, fs):
        with db.begin() as txn:
            fs.create(txn, "/t").close()
        before = fs.stat("/t")
        db.clock.advance(10.0, "think")
        with db.begin() as txn:
            fs.chmod(txn, "/t", 0o600)
        after = fs.stat("/t")
        assert after["ctime"] > before["ctime"]
        assert after["atime"] == before["atime"]
        assert after["mtime"] == before["mtime"]

    def test_rename_bumps_ctime(self, db, fs):
        with db.begin() as txn:
            fs.create(txn, "/t").close()
        before = fs.stat("/t")
        db.clock.advance(10.0, "think")
        with db.begin() as txn:
            fs.rename(txn, "/t", "/u")
        assert fs.stat("/u")["ctime"] > before["ctime"]


# ---------------------------------------------------------------------------
# two-session semantics the table cannot express
# ---------------------------------------------------------------------------


class TestConcurrentSemantics:
    def test_truncate_vs_concurrent_read(self, db, fs):
        """Data reads through an open handle are read-committed: a
        truncate committed by another session becomes visible to handles
        opened before it (DESIGN.md documents this deviation from
        snapshot-stable reads; ``as_of`` reads stay stable)."""
        with db.begin() as txn:
            with fs.create(txn, "/f") as handle:
                handle.write(b"x" * 500)
        point = db.clock.now()
        reader = db.session()
        reader.begin()
        handle = fs.open("/f", reader.txn, "r")
        assert len(handle.read(10)) == 10
        writer = db.session()
        writer.begin()
        with fs.open("/f", writer.txn, "rw") as wh:
            wh.truncate(3)
        writer.commit()
        handle.seek(0)
        assert handle.read() == b"xxx"
        handle.close()
        reader.commit()
        assert fs.stat("/f")["size"] == 3
        # ... but time travel still sees the pre-truncate bytes.
        assert fs.read_file("/f", as_of=point) == b"x" * 500

    def test_open_unlinked_handle_still_reads(self, db, fs):
        """POSIX: an open descriptor survives unlink of its last name."""
        with db.begin() as txn:
            with fs.create(txn, "/f") as handle:
                handle.write(b"survivor")
        reader = db.session()
        reader.begin()
        handle = fs.open("/f", reader.txn, "r")
        other = db.session()
        other.begin()
        fs.unlink(other.txn, "/f")
        other.commit()
        assert not fs.exists("/f")
        assert handle.read() == b"survivor"
        handle.close()           # atime update finds the row gone: no error
        reader.commit()
        assert db.check_integrity() == []

    def test_rename_over_open_handle(self, db, fs):
        """Writes through a handle land in the file wherever it moved."""
        with db.begin() as txn:
            with fs.create(txn, "/f") as handle:
                handle.write(b"orig")
        writer = db.session()
        writer.begin()
        handle = fs.open("/f", writer.txn, "rw")
        other = db.session()
        other.begin()
        fs.rename(other.txn, "/f", "/g")
        other.commit()
        handle.seek(0)
        handle.write(b"NEWDATA")
        handle.close()
        writer.commit()
        assert not fs.exists("/f")
        assert fs.read_file("/g") == b"NEWDATA"

    def test_create_conflict_two_sessions(self, db, fs):
        """The second creator of one path loses cleanly (FileExists),
        never with two entries in the slot."""
        a = db.session()
        a.begin()
        fs.create(a.txn, "/t").close()
        a.commit()
        b = db.session()
        b.begin()
        with pytest.raises(FileExists):
            fs.create(b.txn, "/t")
        b.rollback()
        assert fs.listdir("/") == ["t"]
        assert db.check_integrity() == []
