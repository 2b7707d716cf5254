"""FileMonkey: randomized multi-session stress for the Inversion FS.

The per-module tests pin down each layer in isolation; FileMonkey is the
designated bug-shaker for the races *between* them (ROADMAP item 4).  N
worker threads, each with its own :class:`~repro.session.Session`, drive
a weighted mix of file-system operations — create/write/append/truncate/
read/rename/unlink/mkdir/rmdir/chmod/walk — against one shared tree,
while an in-memory **oracle** tracks what the tree must contain after
every *committed* transaction.  The run is fully deterministic given its
seed (each worker draws from ``random.Random(f"{seed}:{worker}")``).

The mix also interleaves *raw* large-object operations
(``lo_create``/``lo_write``/``lo_append``/``lo_read``/``lo_truncate``)
driven straight through ``db.lo``, bypassing the FS naming layer — the
paper's §4 interface used directly.  The oracle tracks each object's
bytes by designator, and the as_of sweep replays only the objects that
existed at each commit point (a chunked object opened before its
creation instant reads as empty).

Correctness argument.  Every operation runs in its own transaction.  The
FS layer's heavyweight locks are strict 2PL, so any two transactions
whose effects conflict are ordered by lock waits; the harness serializes
*commits* under one mutex and applies each committed op to the oracle at
its commit point.  Commit order is therefore a valid serialization, and
the oracle is exact — any divergence is an engine or FS bug, not harness
noise.  Structural ops are applied to the oracle by *path* (the entry
locks serialize them); content ops are applied by *file id* captured
from the open handle, which stays correct when the path is concurrently
unlinked or renamed out from under the writer.

An operation that loses a race — deadlock victim, write-write conflict,
or a semantic error because the tree moved after the op's arguments were
chosen (``FileNotFound``, ``FileExists``, ...) — is rolled back and
counted, never applied.

The sweep at the end of a run checks three things:

1. **oracle diff** — the live tree (paths, kinds, contents, modes)
   matches the oracle exactly;
2. **integrity** — ``Database.check_integrity()`` reports nothing;
3. **as_of replay** — every recorded commit point is still readable,
   and sampled points reproduce the exact tree digest the oracle had
   at that instant (no-overwrite time travel survived the churn).

Crash injection (single-worker runs only): every ``crash_every``-th
commit is armed with ``on append pg_log: crash``, so the process "dies"
while writing the commit record.  The database is reopened from disk and
the in-doubt operation resolved by probing which oracle state — with or
without it — the recovered tree matches.  Either is a legal outcome;
anything else is a reported problem.

Failures dump the op log + seed as JSON (:meth:`MonkeyReport.dump`) so a
failing run can be replayed exactly.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
from typing import Callable

from repro.errors import (
    DeadlockError,
    DirectoryLoop,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InversionError,
    LockError,
    NotADirectory,
    ReproError,
    SimulatedCrash,
    TransactionError,
)

#: Exceptions that mean "this op lost a race or picked stale arguments" —
#: the transaction is rolled back and the op is counted, not applied.
RACE_ERRORS = (DeadlockError, LockError, TransactionError, FileExists,
               FileNotFound, NotADirectory, DirectoryNotEmpty,
               DirectoryLoop, InversionError)

#: (name, weight, needs_files, needs_dirs) — the default op mix.
DEFAULT_MIX = (
    ("create", 18), ("mkdir", 10), ("write", 14), ("append", 12),
    ("truncate", 5), ("read", 14), ("rename", 8), ("unlink", 8),
    ("rmdir", 4), ("chmod", 4), ("walk", 3),
    ("lo_create", 4), ("lo_write", 5), ("lo_append", 4),
    ("lo_read", 5), ("lo_truncate", 2),
)

#: Ops that pick an existing large-object designator as their target.
_LO_TARGET_OPS = ("lo_write", "lo_append", "lo_read", "lo_truncate")

_NAMES = tuple(f"n{i}" for i in range(8))


class OracleViolation(ReproError):
    """A committed operation's effect contradicts the oracle's state."""


class _Oracle:
    """The tree a correct Inversion FS must show after each commit.

    ``dirs``/``files`` map path → file id; ``data``/``modes`` are the
    inode table, keyed by file id.  Mutate only while holding the
    harness commit mutex.
    """

    def __init__(self) -> None:
        self.dirs: dict[str, int] = {}
        self.files: dict[str, int] = {}
        self.data: dict[int, bytes] = {}
        self.modes: dict[int, int] = {}
        self._hash_cache: dict[int, str] = {}
        #: Raw large objects, designator → bytes (never renamed, never
        #: unlinked by the mix, so existence is monotone).
        self.los: dict[str, bytes] = {}
        #: designator → index of the commit point that created it; the
        #: as_of sweep replays point *i* against exactly the objects with
        #: ``created_at <= i``.
        self.lo_created_at: dict[str, int] = {}
        self._lo_hash_cache: dict[str, str] = {}

    # -- applying committed ops ----------------------------------------------------

    def add_dir(self, path: str, fid: int, mode: int) -> None:
        if path in self.dirs or path in self.files:
            raise OracleViolation(f"mkdir committed over existing {path!r}")
        self.dirs[path] = fid
        self.modes[fid] = mode

    def add_file(self, path: str, fid: int, mode: int,
                 data: bytes) -> None:
        if path in self.dirs or path in self.files:
            raise OracleViolation(
                f"create committed over existing {path!r}")
        self.files[path] = fid
        self.modes[fid] = mode
        self.data[fid] = data
        self._hash_cache.pop(fid, None)

    def set_data(self, fid: int, data: bytes) -> None:
        """Content ops land by file id: a concurrently-unlinked file's
        write commits harmlessly against an invisible inode."""
        if fid in self.data:
            self.data[fid] = data
            self._hash_cache.pop(fid, None)

    def append_data(self, fid: int, chunk: bytes) -> None:
        if fid in self.data:
            self.data[fid] = self.data[fid] + chunk
            self._hash_cache.pop(fid, None)

    def truncate_data(self, fid: int, size: int) -> None:
        data = self.data.get(fid)
        if data is not None:
            # POSIX ftruncate: shrink cuts, grow zero-pads.
            self.data[fid] = data[:size] + bytes(max(0, size - len(data)))
            self._hash_cache.pop(fid, None)

    def set_mode(self, fid: int, mode: int) -> None:
        if fid in self.modes:
            self.modes[fid] = mode

    def unlink(self, path: str) -> None:
        fid = self.files.pop(path, None)
        if fid is None:
            raise OracleViolation(f"unlink committed on absent {path!r}")
        self.data.pop(fid, None)
        self.modes.pop(fid, None)
        self._hash_cache.pop(fid, None)

    def rmdir(self, path: str) -> None:
        if path not in self.dirs:
            raise OracleViolation(f"rmdir committed on absent {path!r}")
        prefix = path + "/"
        if any(p.startswith(prefix) for p in self.dirs) or \
                any(p.startswith(prefix) for p in self.files):
            raise OracleViolation(
                f"rmdir committed on non-empty {path!r}")
        self.modes.pop(self.dirs.pop(path), None)

    # -- raw large objects (by designator: no paths, no renames) -------------------

    def add_lo(self, designator: str, data: bytes, point: int) -> None:
        if designator in self.los:
            raise OracleViolation(
                f"lo_create committed a duplicate designator "
                f"{designator!r}")
        self.los[designator] = data
        self.lo_created_at[designator] = point

    def write_lo(self, designator: str, offset: int, data: bytes) -> None:
        """POSIX pwrite: a write past EOF zero-fills the hole."""
        old = self.los.get(designator)
        if old is None:
            raise OracleViolation(
                f"lo_write committed on absent {designator!r}")
        if not data:
            return  # a zero-byte write never extends the object
        pad = bytes(max(0, offset - len(old)))
        self.los[designator] = (old[:offset] + pad + data
                                + old[offset + len(data):])
        self._lo_hash_cache.pop(designator, None)

    def append_lo(self, designator: str, chunk: bytes) -> None:
        old = self.los.get(designator)
        if old is None:
            raise OracleViolation(
                f"lo_append committed on absent {designator!r}")
        self.los[designator] = old + chunk
        self._lo_hash_cache.pop(designator, None)

    def truncate_lo(self, designator: str, size: int) -> None:
        old = self.los.get(designator)
        if old is None:
            raise OracleViolation(
                f"lo_truncate committed on absent {designator!r}")
        self.los[designator] = (old[:size]
                                + bytes(max(0, size - len(old))))
        self._lo_hash_cache.pop(designator, None)

    def rename(self, src: str, dst: str) -> None:
        if src == dst:
            if src not in self.dirs and src not in self.files:
                raise OracleViolation(
                    f"no-op rename committed on absent {src!r}")
            return  # the FS treats same-path rename as a no-op success
        if dst in self.dirs or dst in self.files:
            raise OracleViolation(
                f"rename committed over existing {dst!r}")
        if src in self.files:
            self.files[dst] = self.files.pop(src)
            return
        if src not in self.dirs:
            raise OracleViolation(f"rename committed on absent {src!r}")
        if dst.startswith(src + "/"):
            raise OracleViolation(
                f"rename committed a cycle: {src!r} -> {dst!r}")
        prefix = src + "/"
        for table in (self.dirs, self.files):
            moved = {dst + p[len(src):]: fid
                     for p, fid in table.items() if p.startswith(prefix)}
            for p in list(table):
                if p.startswith(prefix):
                    del table[p]
            table.update(moved)
        self.dirs[dst] = self.dirs.pop(src)

    # -- digesting -----------------------------------------------------------------

    def _content_hash(self, fid: int) -> str:
        cached = self._hash_cache.get(fid)
        if cached is None:
            cached = hashlib.sha1(self.data[fid]).hexdigest()
            self._hash_cache[fid] = cached
        return cached

    def _lo_hash(self, designator: str) -> str:
        cached = self._lo_hash_cache.get(designator)
        if cached is None:
            cached = hashlib.sha1(self.los[designator]).hexdigest()
            self._lo_hash_cache[designator] = cached
        return cached

    def items(self) -> list[tuple[str, str, int, str]]:
        """Canonical (path, kind, mode, content-hash) rows, sorted.

        Raw large objects ride along as ``(designator, "lo", 0, hash)``
        rows; designators never collide with absolute paths.
        """
        rows = [(p, "d", self.modes[fid], "")
                for p, fid in self.dirs.items()]
        rows += [(p, "f", self.modes[fid], self._content_hash(fid))
                 for p, fid in self.files.items()]
        rows += [(d, "lo", 0, self._lo_hash(d)) for d in self.los]
        return sorted(rows)

    def digest(self) -> str:
        return hashlib.sha1(
            repr(self.items()).encode()).hexdigest()

    def copy(self) -> "_Oracle":
        clone = _Oracle()
        clone.dirs = dict(self.dirs)
        clone.files = dict(self.files)
        clone.data = dict(self.data)
        clone.modes = dict(self.modes)
        clone._hash_cache = dict(self._hash_cache)
        clone.los = dict(self.los)
        clone.lo_created_at = dict(self.lo_created_at)
        clone._lo_hash_cache = dict(self._lo_hash_cache)
        return clone


class MonkeyReport:
    """Everything a failing run needs to be diagnosed and replayed."""

    def __init__(self, seed: int, workers: int, ops: int):
        self.seed = seed
        self.workers = workers
        self.ops = ops
        self.committed = 0
        self.raced: dict[str, int] = {}
        self.crashes = 0
        self.problems: list[str] = []
        self.oplog: list[dict] = []
        self.commit_points = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    def dump(self, path: str) -> None:
        """Write the seed + op log as JSON, for exact replay."""
        # The failure artifact is a *host* file for the test harness /
        # CI upload — not engine block I/O.
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"seed": self.seed, "workers": self.workers,
                       "ops": self.ops, "committed": self.committed,
                       "raced": self.raced, "crashes": self.crashes,
                       "problems": self.problems, "oplog": self.oplog},
                      fh, indent=1)

    def summary(self) -> str:
        raced = sum(self.raced.values())
        return (f"FileMonkey(seed={self.seed}): {self.committed} "
                f"committed, {raced} raced, {self.crashes} crashes, "
                f"{self.commit_points} commit points, "
                f"{len(self.problems)} problems")


class FileMonkey:
    """Drive a randomized op mix against one Inversion tree and verify.

    ``db_factory`` must return a ready :class:`~repro.db.Database`; when
    ``crash_every`` is set it is also used to *reopen* the database after
    an injected crash, so it must be backed by a persistent path and
    ``workers`` must be 1.
    """

    def __init__(self, db_factory: Callable[[], "object"], *,
                 seed: int = 0, workers: int = 4, ops: int = 1000,
                 crash_every: int = 0, mix=DEFAULT_MIX,
                 max_depth: int = 3, replay_sample: int = 25,
                 lo_smgr: str | None = None):
        if crash_every and workers != 1:
            raise ValueError("crash injection needs workers=1 "
                             "(a crash kills the whole process)")
        self.db_factory = db_factory
        #: Storage manager the raw lo_create ops route through (None =
        #: the database default) — the shard stress points this at
        #: ``"sharded"`` to churn large objects across nodes.
        self.lo_smgr = lo_smgr
        self.seed = seed
        self.workers = workers
        self.ops = ops
        self.crash_every = crash_every
        self.mix = mix
        self.max_depth = max_depth
        self.replay_sample = replay_sample
        self.db = db_factory()
        self.fs = self.db.inversion
        self.oracle = _Oracle()
        self.report = MonkeyReport(seed, workers, ops)
        self._mutex = threading.Lock()
        self._budget = ops
        self._commit_attempts = 0
        #: (as_of time, oracle digest) per committed op, in commit order.
        self._points: list[tuple[float, str]] = []
        #: Full oracle rows per commit point (keep_items=True), so a
        #: replay mismatch can say *which* paths diverged, not just that
        #: a digest did.
        self.keep_items = False
        self._point_items: list[list] = []
        self._stop = False

    # -- op argument selection (under the mutex: reads oracle state) ---------------

    def _pick_dir(self, rng: random.Random) -> str:
        dirs = ["/"] + sorted(self.oracle.dirs)
        return rng.choice(dirs)

    def _pick_file(self, rng: random.Random) -> str | None:
        files = sorted(self.oracle.files)
        return rng.choice(files) if files else None

    def _pick_lo(self, rng: random.Random) -> str | None:
        los = sorted(self.oracle.los)
        return rng.choice(los) if los else None

    def _new_path(self, rng: random.Random) -> str:
        base = self._pick_dir(rng)
        name = rng.choice(_NAMES)
        path = f"{base.rstrip('/')}/{name}"
        return path if len(path.split("/")) - 1 <= self.max_depth \
            else f"/{name}"

    def _payload(self, rng: random.Random) -> bytes:
        # Mostly small, occasionally multi-chunk so content writes cross
        # chunk boundaries and exercise the range locks.
        size = rng.choice((0, 17, 100, 700, 3000, 9000))
        return bytes(rng.getrandbits(8) for _ in range(min(size, 64))) \
            * (1 if size <= 64 else size // 64)

    def _choose(self, rng: random.Random) -> tuple[str, dict]:
        with self._mutex:
            names = [name for name, _w in self.mix]
            weights = [w for _n, w in self.mix]
            while True:
                op = rng.choices(names, weights)[0]
                if op in ("write", "append", "truncate", "read",
                          "chmod"):
                    path = self._pick_file(rng)
                    if path is None:
                        continue
                    args = {"path": path}
                    if op in ("write", "append"):
                        args["data"] = self._payload(rng)
                    elif op == "truncate":
                        args["size"] = rng.randrange(0, 4096)
                    elif op == "chmod":
                        args["mode"] = rng.choice(
                            (0o600, 0o640, 0o644, 0o755))
                    return op, args
                if op == "lo_create":
                    return op, {"data": self._payload(rng)}
                if op in _LO_TARGET_OPS:
                    des = self._pick_lo(rng)
                    if des is None:
                        continue
                    args = {"des": des}
                    if op == "lo_write":
                        # Offsets may land past EOF: POSIX pwrite
                        # zero-fills the hole, and so must the engine.
                        args["offset"] = rng.randrange(
                            0, len(self.oracle.los[des]) + 256)
                        args["data"] = self._payload(rng)
                    elif op == "lo_append":
                        args["data"] = self._payload(rng)
                    elif op == "lo_truncate":
                        args["size"] = rng.randrange(0, 4096)
                    return op, args
                if op in ("create", "mkdir"):
                    return op, {"path": self._new_path(rng),
                                "data": self._payload(rng)}
                if op == "unlink":
                    path = self._pick_file(rng)
                    if path is None:
                        continue
                    return op, {"path": path}
                if op == "rmdir":
                    dirs = sorted(self.oracle.dirs)
                    if not dirs:
                        continue
                    return op, {"path": rng.choice(dirs)}
                if op == "rename":
                    src = (self._pick_file(rng) if rng.random() < 0.7
                           else None)
                    if src is None:
                        dirs = sorted(self.oracle.dirs)
                        if not dirs:
                            continue
                        src = rng.choice(dirs)
                    return op, {"src": src, "dst": self._new_path(rng)}
                return "walk", {}

    # -- op execution (outside the mutex; returns an oracle applier) ---------------

    def _execute(self, session, rng: random.Random, op: str,
                 args: dict) -> Callable[[], None] | None:
        """Run *op* in ``session``'s open transaction.

        Returns the closure that applies the op to the oracle once the
        commit succeeds.  Every large-object handle is closed *here*, so
        the later commit (held under the harness mutex) never blocks on
        a lock — a handle flushed at commit time could deadlock the
        harness against the lock manager.
        """
        fs, txn = self.fs, session.txn
        if op == "mkdir":
            fid = fs.mkdir(txn, args["path"])
            return lambda: self.oracle.add_dir(args["path"], fid, 0o755)
        if op == "create":
            with fs.create(txn, args["path"]) as handle:
                handle.write(args["data"])
                fid = handle.file_id
            return lambda: self.oracle.add_file(
                args["path"], fid, 0o644, args["data"])
        if op == "write":
            with fs.open(args["path"], txn, "rw") as handle:
                handle.truncate(0)
                handle.write(args["data"])
                fid = handle.file_id
            return lambda: self.oracle.set_data(fid, args["data"])
        if op == "append":
            # handle.append, not seek(END)+write: only the former
            # re-resolves the EOF under the range lock.
            with fs.open(args["path"], txn, "rw") as handle:
                handle.append(args["data"])
                fid = handle.file_id
            return lambda: self.oracle.append_data(fid, args["data"])
        if op == "truncate":
            with fs.open(args["path"], txn, "rw") as handle:
                handle.truncate(args["size"])
                fid = handle.file_id
            return lambda: self.oracle.truncate_data(fid, args["size"])
        if op == "read":
            with fs.open(args["path"], txn, "r") as handle:
                data = handle.read()
                fid = handle.file_id
            if self.workers == 1:
                expected = self.oracle.data.get(fid)
                if expected is not None and data != expected:
                    raise OracleViolation(
                        f"read {args['path']!r}: got {len(data)} bytes, "
                        f"oracle has {len(expected)}")
            return lambda: None
        if op == "chmod":
            # chmod reports which inode it stat-locked: attributing the
            # oracle update by a path lookup instead raced with renames
            # committed between execute and this op's own commit.
            fid = fs.chmod(txn, args["path"], args["mode"])
            return lambda: self.oracle.set_mode(fid, args["mode"])
        if op == "unlink":
            fs.unlink(txn, args["path"])
            return lambda: self.oracle.unlink(args["path"])
        if op == "rmdir":
            fs.rmdir(txn, args["path"])
            return lambda: self.oracle.rmdir(args["path"])
        if op == "rename":
            fs.rename(txn, args["src"], args["dst"])
            return lambda: self.oracle.rename(args["src"], args["dst"])
        if op == "lo_create":
            des = self.db.lo.create(txn, impl="fchunk",
                                    smgr=self.lo_smgr)
            with self.db.lo.open(des, txn, "rw") as obj:
                obj.write(args["data"])
            # len(self._points) at apply time is the index of the commit
            # point about to be recorded for this very op.
            return lambda: self.oracle.add_lo(
                des, args["data"], len(self._points))
        if op == "lo_write":
            with self.db.lo.open(args["des"], txn, "rw") as obj:
                obj.seek(args["offset"])
                obj.write(args["data"])
            return lambda: self.oracle.write_lo(
                args["des"], args["offset"], args["data"])
        if op == "lo_append":
            with self.db.lo.open(args["des"], txn, "rw") as obj:
                obj.append(args["data"])
            return lambda: self.oracle.append_lo(
                args["des"], args["data"])
        if op == "lo_truncate":
            with self.db.lo.open(args["des"], txn, "rw") as obj:
                obj.truncate(args["size"])
            return lambda: self.oracle.truncate_lo(
                args["des"], args["size"])
        if op == "lo_read":
            with self.db.lo.open(args["des"], txn, "r") as obj:
                data = obj.read()
            if self.workers == 1:
                expected = self.oracle.los.get(args["des"])
                if expected is not None and data != expected:
                    raise OracleViolation(
                        f"lo_read {args['des']!r}: got {len(data)} "
                        f"bytes, oracle has {len(expected)}")
            return lambda: None
        for _ in fs.walk("/", txn):
            pass
        return lambda: None

    # -- the worker loop -----------------------------------------------------------

    def _log(self, wid: int, op: str, args: dict, outcome: str) -> None:
        entry = {"w": wid, "op": op, "outcome": outcome}
        entry.update({k: (v if not isinstance(v, bytes)
                          else f"<{len(v)}B>") for k, v in args.items()})
        self.report.oplog.append(entry)

    def _worker(self, wid: int) -> None:
        rng = random.Random(f"{self.seed}:{wid}")
        session = self.db.session()
        while not self._stop:
            with self._mutex:
                if self._budget <= 0:
                    break
                self._budget -= 1
            op, args = self._choose(rng)
            try:
                session.begin()
                apply = self._execute(session, rng, op, args)
            except RACE_ERRORS as exc:
                if session.in_transaction:
                    session.rollback()
                with self._mutex:
                    kind = type(exc).__name__
                    self.report.raced[kind] = \
                        self.report.raced.get(kind, 0) + 1
                    self._log(wid, op, args, f"raced:{kind}")
                continue
            except OracleViolation as exc:
                if session.in_transaction:
                    session.rollback()
                with self._mutex:
                    self.report.problems.append(str(exc))
                    self._log(wid, op, args, "VIOLATION")
                self._stop = True
                break
            with self._mutex:
                # Pace crashes by commit *attempt*, not by commits landed:
                # a crashed op is usually lost, so keying off
                # ``report.committed`` would re-arm the same count forever.
                self._commit_attempts += 1
                crash_now = (self.crash_every
                             and self._commit_attempts
                             % self.crash_every == 0)
                try:
                    if crash_now:
                        self.db.inject_faults("on append pg_log: crash")
                    session.commit()
                except SimulatedCrash:
                    self._log(wid, op, args, "crashed")
                    session = self._recover(apply)
                    continue
                except RACE_ERRORS as exc:
                    session.rollback()
                    kind = type(exc).__name__
                    self.report.raced[kind] = \
                        self.report.raced.get(kind, 0) + 1
                    self._log(wid, op, args, f"raced:{kind}")
                    continue
                finally:
                    if crash_now:
                        self.db.clear_faults()
                try:
                    apply()
                except OracleViolation as exc:
                    self.report.problems.append(str(exc))
                    self._log(wid, op, args, "VIOLATION")
                    self._stop = True
                    break
                self.report.committed += 1
                self._log(wid, op, args, "ok")
                self._record_point()
        session.close()

    def _record_point(self) -> None:
        self._points.append((self.db.clock.now(), self.oracle.digest()))
        if self.keep_items:
            self._point_items.append(self.oracle.items())

    def _recover(self, apply: Callable[[], None]):
        """Reopen after an injected crash and resolve the in-doubt op.

        The crash hit while the commit record was being written, so the
        op either fully committed or fully aborted; the recovered tree
        tells us which, and the oracle follows it.
        """
        self.report.crashes += 1
        self.db = self.db_factory()
        self.fs = self.db.inversion
        if self._points:
            # Past every timestamp already handed out (the reopen resumes
            # only past the last commit), so commit order and as_of
            # replay stay monotone across the crash.
            self.db.clock.resume_after(self._points[-1][0])
        without = self.oracle.digest()
        attempt = self.oracle.copy()
        saved, self.oracle = self.oracle, attempt
        try:
            # The apply closure mutates whatever self.oracle points at,
            # so aim it at the copy to compute the "op made it" state.
            apply()
            attempt_digest = attempt.digest()
        except OracleViolation:
            attempt_digest = None
        finally:
            self.oracle = saved
        # Probe the attempt's designator set (a superset of saved's): an
        # in-doubt lo_create's object is only visible if its designator
        # is among the candidates.
        actual = self._tree_digest(lo_candidates=attempt.lo_created_at)
        if actual == without:
            pass  # the crash beat the commit record: op lost
        elif attempt_digest is not None and actual == attempt_digest:
            self.oracle = attempt  # the record made it out first
            self.report.committed += 1
        else:
            self.report.problems.append(
                "post-crash tree matches neither oracle state "
                "(in-doubt op resolved to nonsense)")
            self._stop = True
        self._record_point()
        return self.db.session()

    # -- sweeps --------------------------------------------------------------------

    def _lo_items(self, as_of: float | None = None,
                  lo_point: int | None = None,
                  lo_candidates: dict[str, int] | None = None
                  ) -> list[tuple[str, str, int, str]]:
        """(designator, "lo", 0, hash) rows read back from the engine.

        Candidates default to every designator the oracle ever saw
        created; ``lo_point`` keeps only objects whose creating commit is
        at or before that commit-point index (for as_of replay — a
        chunked object opened before its creation reads empty, which
        must not leak into the digest).  Live probes skip designators the
        engine no longer has, so a loss shows up as an oracle diff.
        """
        if lo_candidates is None:
            lo_candidates = self.oracle.lo_created_at
        rows: list[tuple[str, str, int, str]] = []
        for des, created in sorted(lo_candidates.items()):
            if lo_point is not None and created > lo_point:
                continue
            if as_of is None and not self.db.lo.exists(des):
                continue
            try:
                with self.db.lo.open(des, None, "r", as_of=as_of) as obj:
                    data = obj.read()
            except ReproError:
                continue
            rows.append((des, "lo", 0,
                         hashlib.sha1(data).hexdigest()))
        return rows

    def _tree_items(self, as_of: float | None = None,
                    lo_point: int | None = None,
                    lo_candidates: dict[str, int] | None = None
                    ) -> list[tuple[str, str, int, str]]:
        rows: list[tuple[str, str, int, str]] = []
        for current, dirs, files in self.fs.walk("/", as_of=as_of):
            base = current.rstrip("/")
            for name in dirs:
                path = f"{base}/{name}"
                rows.append((path, "d",
                             self.fs.stat(path, as_of=as_of)["mode"], ""))
            for name in files:
                path = f"{base}/{name}"
                data = self.fs.read_file(path, as_of=as_of)
                rows.append((path, "f",
                             self.fs.stat(path, as_of=as_of)["mode"],
                             hashlib.sha1(data).hexdigest()))
        rows.extend(self._lo_items(as_of, lo_point, lo_candidates))
        return sorted(rows)

    def _tree_digest(self, as_of: float | None = None,
                     lo_point: int | None = None,
                     lo_candidates: dict[str, int] | None = None) -> str:
        return hashlib.sha1(
            repr(self._tree_items(as_of, lo_point,
                                  lo_candidates)).encode()).hexdigest()

    def _sweep(self) -> None:
        tree = self._tree_items()
        want = self.oracle.items()
        if tree != want:
            missing = sorted(set(want) - set(tree))[:5]
            extra = sorted(set(tree) - set(want))[:5]
            self.report.problems.append(
                f"oracle diff: {len(want)} expected vs {len(tree)} "
                f"found; missing={missing} extra={extra}")
        problems = self.db.check_integrity()
        for problem in problems:
            self.report.problems.append(f"integrity: {problem}")
        self.report.commit_points = len(self._points)
        for i, (t, digest) in enumerate(self._points):
            try:
                self.fs.listdir("/", as_of=t)
            except ReproError as exc:
                self.report.problems.append(
                    f"as_of replay: commit point {i} unreadable: {exc}")
                continue
            if i % self.replay_sample == 0 or i == len(self._points) - 1:
                found = self._tree_digest(as_of=t, lo_point=i)
                if found != digest:
                    self.report.problems.append(
                        f"as_of replay: commit point {i} (t={t}) does "
                        f"not reproduce the oracle's tree")

    # -- entry point ---------------------------------------------------------------

    def run(self) -> MonkeyReport:
        """Run the full stress round; returns the report (check ``ok``)."""
        threads = [threading.Thread(target=self._worker, args=(wid,),
                                    name=f"monkey-{wid}", daemon=True)
                   for wid in range(self.workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self._sweep()
        return self.report
