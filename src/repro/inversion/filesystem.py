"""The Inversion file system (§8 of the paper).

    STORAGE   (file-id, large-object)
    DIRECTORY (file-name, file-id, parent-file-id)
    FILESTAT  (file-id, owner, mode, atime, mtime, ctime)

Inversion stores its metadata in ordinary POSTGRES classes and its file
contents in large ADTs, so files inherit everything the storage system
provides: "security, transactions, time travel and compression are
readily available", and "a user can use the query language to perform
searches on the DIRECTORY class."

Consequences implemented and tested here:

* every metadata operation runs in a transaction, and a crash or abort
  rolls back file creation, renames, and writes together;
* ``as_of`` opens a historical view of the whole tree — directory listing,
  stat, and file contents at a past instant;
* the file store is pluggable between f-chunk and v-segment (paper §10:
  "Inversion can use either"), on any registered storage manager — a new
  storage manager automatically supports Inversion files.

Paths are ``/``-separated and rooted at ``/``; ``.`` and ``..``
components resolve lexically (there are no symlinks, so lexical and
physical resolution agree), and ``..`` at the root stays at the root,
exactly as POSIX path resolution specifies.

Concurrency: metadata reads ride MVCC snapshots and take no locks, the
POSTGRES way.  Structural *writes* additionally take heavyweight locks so
two sessions cannot commit incompatible tree mutations (the FileMonkey
stress in :mod:`repro.inversion.monkey` is the regression test):

* ``("inv_entry", parent_id, name)`` EXCLUSIVE — one directory *slot*;
  create/mkdir/unlink/rmdir/rename serialize per slot, then re-resolve
  under a fresh snapshot, so two creators of ``/same/path`` cannot both
  insert (the second sees the first's committed row and raises
  :class:`FileExists`).
* ``("inv_tree", dir_id)`` SHARED on **every directory of the resolved
  ancestor chain** (root → parent, hierarchical order) by each
  structural op; EXCLUSIVE by ``rmdir`` of ``dir_id`` and by a *rename
  that moves directory* ``dir_id``.  The chain locks are what make
  commit order a real serialization: without them, a create deep inside
  ``/a/b`` and a rename of ``/a`` hold no common lock, both commit, and
  the file materializes under a path the creator never named.  With
  them, the mover's EXCLUSIVE on its own subtree root collides with the
  SHARED held by anything operating below it.
* ``("inv_stat", file_id)`` EXCLUSIVE around every FILESTAT update
  (chmod/chown/utime and the atime/mtime maintenance), so concurrent
  time-stamp touches serialize instead of aborting on a write-write
  conflict.
* ``("inv_dirmove",)`` EXCLUSIVE serializes *directory* renames
  globally: two concurrent moves could otherwise each pass the
  ancestry check and commit a cycle.  File renames never take it.

Lock order (DESIGN.md §5c): dirmove → entry (sorted) → tree (top-down)
→ stat → relation/large-object locks.  All are strict-2PL and
deadlock-detected; a victim surfaces :class:`DeadlockError` and the
caller retries or reports, exactly like any other POSTGRES transaction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.access.scan import IndexProbe
from repro.access.tuples import HeapTuple
from repro.errors import (
    DirectoryLoop,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InversionError,
    NotADirectory,
)
from repro.inversion.file import InversionFile
from repro.txn import lockdep
from repro.txn.locks import LockMode
from repro.txn.manager import Transaction
from repro.txn.snapshot import Snapshot

if TYPE_CHECKING:
    from repro.db import Database

DIRECTORY = "DIRECTORY"
STORAGE = "STORAGE"
FILESTAT = "FILESTAT"

#: file_id of the root directory.
ROOT_ID = 1

_KIND_DIR = "d"
_KIND_FILE = "f"

#: Default permission bits (POSIX umask-less defaults).
DEFAULT_FILE_MODE = 0o644
DEFAULT_DIR_MODE = 0o755

#: Bounded retries when a parent directory is concurrently replaced
#: between resolving it and being granted its lock.
_LOCK_RETRIES = 16


def split_path(path: str) -> list[str]:
    """Normalized components of an absolute path ('/' -> []).

    ``.`` components are dropped and ``..`` pops the previous component
    (staying put at the root), the POSIX lexical resolution — exact here
    because Inversion has no symlinks.
    """
    if not path.startswith("/"):
        raise InversionError(f"Inversion paths are absolute, got {path!r}")
    parts: list[str] = []
    for part in path.split("/"):
        if not part or part == ".":
            continue
        if part == "..":
            if parts:
                parts.pop()
            continue
        parts.append(part)
    return parts


class DirEntry:
    """One resolved directory entry."""

    __slots__ = ("name", "file_id", "parent_id", "kind", "tid")

    def __init__(self, tup: HeapTuple):
        self.name, self.file_id, self.parent_id, self.kind = tup.values
        self.tid = tup.tid

    @property
    def is_dir(self) -> bool:
        return self.kind == _KIND_DIR


class InversionFileSystem:
    """A file system whose files are database large objects."""

    def __init__(self, db: "Database", impl: str = "fchunk",
                 compression: str = "none", smgr: str | None = None,
                 owner: str = "postgres"):
        from repro.adt.types import normalize_storage
        self.db = db
        self.impl = normalize_storage(impl)
        if self.impl not in ("fchunk", "vsegment"):
            raise InversionError(
                "Inversion files need a transactional implementation "
                "(f-chunk or v-segment)")
        self.compression = compression
        self.smgr = smgr
        self.owner = owner
        self._bootstrap()

    def _bootstrap(self) -> None:
        if not self.db.class_exists(DIRECTORY):
            self.db.create_class(DIRECTORY, [
                ("file_name", "text"), ("file_id", "oid"),
                ("parent_file_id", "oid"), ("kind", "text")])
            self.db.create_index("inv_dir_parent", DIRECTORY,
                                 "parent_file_id")
            self.db.create_class(STORAGE, [
                ("file_id", "oid"), ("large_object", "text")])
            self.db.create_index("inv_storage_fid", STORAGE, "file_id")
            self.db.create_class(FILESTAT, [
                ("file_id", "oid"), ("owner", "text"), ("mode", "int4"),
                ("atime", "float8"), ("mtime", "float8"),
                ("ctime", "float8")])
            self.db.create_index("inv_stat_fid", FILESTAT, "file_id")

    # -- lookups -------------------------------------------------------------------

    def _snapshot(self, txn: Transaction | None,
                  as_of: float | None) -> Snapshot:
        return self.db.snapshot(txn, as_of=as_of)

    def _rows_by_index(self, index_name: str, key: int,
                       snapshot: Snapshot) -> list[HeapTuple]:
        index = self.db.get_index(index_name)
        entry = self.db.catalog.indexes[index_name]
        relation = self.db.get_class(entry.relation)
        return IndexProbe(self.db, index, relation,
                          (key,)).tuples(snapshot)

    def _children(self, parent_id: int,
                  snapshot: Snapshot) -> list[DirEntry]:
        return [DirEntry(t) for t in
                self._rows_by_index("inv_dir_parent", parent_id, snapshot)]

    def _child(self, parent_id: int, name: str,
               snapshot: Snapshot) -> DirEntry | None:
        for entry in self._children(parent_id, snapshot):
            if entry.name == name:
                return entry
        return None

    def _resolve(self, path: str, snapshot: Snapshot) -> DirEntry | None:
        """The entry at *path*, or ``None``; root resolves to a pseudo-entry."""
        parts = split_path(path)
        current: DirEntry | None = None
        parent_id = ROOT_ID
        for i, name in enumerate(parts):
            if current is not None:
                if not current.is_dir:
                    raise NotADirectory(
                        f"{'/'.join(parts[:i])!r} is not a directory")
                parent_id = current.file_id
            current = self._child(parent_id, name, snapshot)
            if current is None:
                return None
        return current

    def _resolve_chain(self, parts: list[str],
                       snapshot: Snapshot) -> list[DirEntry] | None:
        """Every entry on the path, root-child first, or ``None`` if any
        component is missing (raises :class:`NotADirectory` if a non-leaf
        component is a plain file)."""
        chain: list[DirEntry] = []
        parent_id = ROOT_ID
        for i, name in enumerate(parts):
            if chain:
                if not chain[-1].is_dir:
                    raise NotADirectory(
                        f"{'/' + '/'.join(parts[:i])!r} is not a directory")
                parent_id = chain[-1].file_id
            entry = self._child(parent_id, name, snapshot)
            if entry is None:
                return None
            chain.append(entry)
        return chain

    def _require(self, path: str, snapshot: Snapshot) -> DirEntry:
        if not split_path(path):
            raise InversionError("operation not valid on the root")
        entry = self._resolve(path, snapshot)
        if entry is None:
            raise FileNotFound(f"no Inversion file {path!r}")
        return entry

    def _designator(self, path: str, entry: DirEntry,
                    snapshot: Snapshot) -> str:
        """The large object holding the file *entry* (its STORAGE row)."""
        rows = self._rows_by_index("inv_storage_fid", entry.file_id,
                                   snapshot)
        if not rows:
            raise InversionError(f"{path!r} has no STORAGE record")
        return rows[0].values[1]

    # -- write-side locking (module docstring has the full protocol) ---------------

    def _lock_entry(self, txn: Transaction, parent_id: int,
                    name: str) -> None:
        self.db.locks.acquire(txn.xid, ("inv_entry", parent_id, name),
                              LockMode.EXCLUSIVE)

    def _lock_tree(self, txn: Transaction, dir_id: int,
                   mode: LockMode) -> None:
        self.db.locks.acquire(txn.xid, ("inv_tree", dir_id), mode)

    def _lock_stat(self, txn: Transaction, file_id: int) -> None:
        self.db.locks.acquire(txn.xid, ("inv_stat", file_id),
                              LockMode.EXCLUSIVE)

    def _locked_parent(self, txn: Transaction,
                       path: str) -> tuple[int, str, Snapshot]:
        """Lock *path*'s directory slot and its whole ancestor chain.

        Returns (parent_id, leaf name, post-lock snapshot).  The slot is
        EXCLUSIVE; every directory from the root down to the parent is
        SHARED, so a rename that moves any ancestor (EXCLUSIVE on the
        moved directory) cannot interleave — the path the caller named
        still means the same inodes when its transaction commits.

        Lock keys are file ids, which we only know *before* being granted
        the locks — so after each grant the chain is re-resolved under a
        fresh snapshot and retried if any ancestor was replaced while we
        waited.  Raises :class:`FileNotFound`/:class:`NotADirectory` if
        the parent path is (or becomes) invalid.
        """
        parts = split_path(path)
        if not parts:
            raise InversionError("cannot create the root")
        parent_parts, name = parts[:-1], parts[-1]
        parent_repr = "/" + "/".join(parent_parts)
        snapshot = self._snapshot(txn, None)
        for _ in range(_LOCK_RETRIES):
            # One lockdep operation scope per locking *attempt*: a retry
            # legitimately starts the entry -> tree sequence over while
            # 2PL still holds the previous attempt's locks.
            with lockdep.VALIDATOR.operation(f"path-lock {path!r}"):
                chain = self._resolve_chain(parent_parts, snapshot)
                if chain is None:
                    raise FileNotFound(
                        f"no Inversion directory {parent_repr!r}")
                if chain and not chain[-1].is_dir:
                    raise NotADirectory(
                        f"{parent_repr!r} is not a directory")
                ids = [ROOT_ID] + [entry.file_id for entry in chain]
                self._lock_entry(txn, ids[-1], name)
                for dir_id in ids:
                    self._lock_tree(txn, dir_id, LockMode.SHARED)
                snapshot = self._snapshot(txn, None)
                fresh = self._resolve_chain(parent_parts, snapshot)
                if fresh is not None and \
                        [e.file_id for e in fresh] == ids[1:]:
                    return ids[-1], name, snapshot
        raise InversionError(
            f"directory chain for {path!r} kept moving; giving up")

    def _locked_entry(self, txn: Transaction,
                      path: str) -> tuple[DirEntry, Snapshot]:
        """Resolve *path* and hold its directory-slot lock; the returned
        entry (and TID) is current as of the post-lock snapshot."""
        if not split_path(path):
            raise InversionError("operation not valid on the root")
        parent_id, name, snapshot = self._locked_parent(txn, path)
        entry = self._child(parent_id, name, snapshot)
        if entry is None:
            raise FileNotFound(f"no Inversion file {path!r}")
        return entry, snapshot

    # -- creation ------------------------------------------------------------------

    def _new_entry(self, txn: Transaction, path: str, kind: str,
                   mode: int) -> int:
        parent_id, name, snapshot = self._locked_parent(txn, path)
        if self._child(parent_id, name, snapshot) is not None:
            raise FileExists(f"Inversion path {path!r} already exists")
        file_id = self.db.catalog.allocate_oid()
        self.db.insert(txn, DIRECTORY, (name, file_id, parent_id, kind))
        now = self.db.clock.now()
        self.db.insert(txn, FILESTAT,
                       (file_id, self.owner, mode & 0o7777, now, now, now))
        return file_id

    def mkdir(self, txn: Transaction, path: str,
              mode: int = DEFAULT_DIR_MODE) -> int:
        """Create a directory; returns its file id."""
        return self._new_entry(txn, path, _KIND_DIR, mode)

    def create(self, txn: Transaction, path: str,
               impl: str | None = None,
               compression: str | None = None,
               mode: int = DEFAULT_FILE_MODE) -> InversionFile:
        """Create a file (open for writing); storage defaults to the
        file system's configured implementation."""
        file_id = self._new_entry(txn, path, _KIND_FILE, mode)
        designator = self.db.lo.create(
            txn, impl or self.impl, smgr=self.smgr,
            compression=self.compression if compression is None
            else compression)
        self.db.insert(txn, STORAGE, (file_id, designator))
        inner = self.db.lo.open(designator, txn, "rw")
        return InversionFile(self, path, file_id, inner, txn)

    # -- open / IO -----------------------------------------------------------------

    def open(self, path: str, txn: Transaction | None = None,
             mode: str = "r", as_of: float | None = None) -> InversionFile:
        """Open an existing file (``mode`` = ``"r"`` or ``"rw"``).

        When the handle is bound to a live transaction, reading through it
        updates the file's ``atime`` and writing updates its ``mtime`` at
        close (POSIX read/write time maintenance).  Detached snapshot
        reads (``txn=None`` or ``as_of``) leave FILESTAT untouched.
        """
        snapshot = self._snapshot(txn, as_of)
        entry = self._require(path, snapshot)
        if entry.is_dir:
            raise InversionError(f"{path!r} is a directory")
        designator = self._designator(path, entry, snapshot)
        inner = self.db.lo.open(designator, txn, mode, as_of=as_of)
        return InversionFile(self, path, entry.file_id, inner, txn)

    def read_file(self, path: str, txn: Transaction | None = None,
                  as_of: float | None = None) -> bytes:
        """Whole-file read convenience."""
        with self.open(path, txn, "r", as_of=as_of) as handle:
            return handle.read()

    def write_file(self, txn: Transaction, path: str, data: bytes) -> None:
        """Create-or-replace convenience: afterwards the file contains
        exactly *data* (existing files are truncated first)."""
        snapshot = self._snapshot(txn, None)
        if self._resolve(path, snapshot) is None:
            try:
                handle = self.create(txn, path)
            except FileExists:
                # Lost a create race: the slot lock wait ended with another
                # session's committed file — replace its contents instead.
                handle = self.open(path, txn, "rw")
                handle.truncate(0)
        else:
            handle = self.open(path, txn, "rw")
            handle.truncate(0)
        with handle:
            handle.write(data)

    # -- metadata ------------------------------------------------------------------

    def exists(self, path: str, txn: Transaction | None = None,
               as_of: float | None = None) -> bool:
        if not split_path(path):
            return True
        return self._resolve(path, self._snapshot(txn, as_of)) is not None

    def is_dir(self, path: str, txn: Transaction | None = None,
               as_of: float | None = None) -> bool:
        if not split_path(path):
            return True
        entry = self._resolve(path, self._snapshot(txn, as_of))
        return entry is not None and entry.is_dir

    def listdir(self, path: str = "/", txn: Transaction | None = None,
                as_of: float | None = None) -> list[str]:
        """Names in a directory, sorted."""
        snapshot = self._snapshot(txn, as_of)
        if split_path(path):
            entry = self._require(path, snapshot)
            if not entry.is_dir:
                raise NotADirectory(f"{path!r} is not a directory")
            parent_id = entry.file_id
        else:
            parent_id = ROOT_ID
        return sorted(e.name for e in self._children(parent_id, snapshot))

    def stat(self, path: str, txn: Transaction | None = None,
             as_of: float | None = None) -> dict:
        """owner/mode/times/size/kind for *path*."""
        snapshot = self._snapshot(txn, as_of)
        entry = self._require(path, snapshot)
        rows = self._rows_by_index("inv_stat_fid", entry.file_id, snapshot)
        if not rows:
            raise InversionError(f"{path!r} has no FILESTAT record")
        _fid, owner, mode, atime, mtime, ctime = rows[0].values
        size = 0
        if not entry.is_dir:
            size = self.db.lo.size(
                self._designator(path, entry, snapshot), snapshot)
        return {"file_id": entry.file_id, "kind": entry.kind,
                "owner": owner, "mode": mode, "atime": atime,
                "mtime": mtime, "ctime": ctime, "size": size}

    def _update_stat(self, txn: Transaction, file_id: int, *,
                     owner: str | None = None, mode: int | None = None,
                     atime: float | None = None, mtime: float | None = None,
                     touch_ctime: bool = False) -> bool:
        """Replace the FILESTAT row under its ``inv_stat`` lock.

        Returns ``False`` if the row is gone (the file was concurrently
        unlinked) — callers decide whether that is an error.
        """
        self._lock_stat(txn, file_id)
        snapshot = self._snapshot(txn, None)
        rows = self._rows_by_index("inv_stat_fid", file_id, snapshot)
        if not rows:
            return False
        values = list(rows[0].values)
        if owner is not None:
            values[1] = owner
        if mode is not None:
            values[2] = mode & 0o7777
        if atime is not None:
            values[3] = atime
        if mtime is not None:
            values[4] = mtime
        if touch_ctime:
            values[5] = self.db.clock.now()
        self.db.replace(txn, FILESTAT, rows[0].tid, tuple(values))
        return True

    def chmod(self, txn: Transaction, path: str, mode: int) -> int:
        """Set the permission bits (and bump ``ctime``, as POSIX does).

        Returns the file id the bits landed on — the id stays
        stat-locked until commit, so the caller knows *which* inode its
        change applies to even if the path is concurrently renamed.
        """
        snapshot = self._snapshot(txn, None)
        entry = self._require(path, snapshot)
        if not self._update_stat(txn, entry.file_id, mode=mode,
                                 touch_ctime=True):
            raise FileNotFound(f"no Inversion file {path!r}")
        return entry.file_id

    def chown(self, txn: Transaction, path: str, owner: str) -> int:
        """Set the owner (and bump ``ctime``); returns the file id."""
        snapshot = self._snapshot(txn, None)
        entry = self._require(path, snapshot)
        if not self._update_stat(txn, entry.file_id, owner=owner,
                                 touch_ctime=True):
            raise FileNotFound(f"no Inversion file {path!r}")
        return entry.file_id

    def utime(self, txn: Transaction, path: str,
              atime: float | None = None,
              mtime: float | None = None) -> int:
        """Set access/modification times; both default to *now* when
        omitted (``utime(path, NULL)`` in POSIX).  ``ctime`` is bumped;
        returns the file id."""
        if atime is None and mtime is None:
            atime = mtime = self.db.clock.now()
        snapshot = self._snapshot(txn, None)
        entry = self._require(path, snapshot)
        if not self._update_stat(txn, entry.file_id, atime=atime,
                                 mtime=mtime, touch_ctime=True):
            raise FileNotFound(f"no Inversion file {path!r}")
        return entry.file_id

    def _file_closed(self, txn: Transaction, file_id: int,
                     wrote: bool, accessed: bool) -> None:
        """POSIX time maintenance when a transaction-bound handle closes:
        reads update ``atime``, writes update ``mtime``."""
        now = self.db.clock.now()
        self._update_stat(txn, file_id,
                          atime=now if accessed else None,
                          mtime=now if wrote else None)

    # -- removal / rename ----------------------------------------------------------

    def unlink(self, txn: Transaction, path: str) -> None:
        """Remove a file (its historical versions stay time-travellable
        through the old DIRECTORY tuple versions)."""
        entry, snapshot = self._locked_entry(txn, path)
        if entry.is_dir:
            raise InversionError(f"{path!r} is a directory; use rmdir")
        self._lock_stat(txn, entry.file_id)
        snapshot = self._snapshot(txn, None)
        self.db.delete(txn, DIRECTORY, entry.tid)
        for row in self._rows_by_index("inv_storage_fid", entry.file_id,
                                       snapshot):
            self.db.delete(txn, STORAGE, row.tid)
        for row in self._rows_by_index("inv_stat_fid", entry.file_id,
                                       snapshot):
            self.db.delete(txn, FILESTAT, row.tid)

    def rmdir(self, txn: Transaction, path: str) -> None:
        """Remove an empty directory."""
        entry, snapshot = self._locked_entry(txn, path)
        if not entry.is_dir:
            raise NotADirectory(f"{path!r} is not a directory")
        # EXCLUSIVE on the directory's tree key: in-flight creates inside
        # it hold SHARED, so emptiness cannot be invalidated after we
        # re-check it below.
        with lockdep.VALIDATOR.operation(f"rmdir-lock {path!r}"):
            self._lock_tree(txn, entry.file_id, LockMode.EXCLUSIVE)
            self._lock_stat(txn, entry.file_id)
        snapshot = self._snapshot(txn, None)
        if self._children(entry.file_id, snapshot):
            raise DirectoryNotEmpty(f"{path!r} is not empty")
        self.db.delete(txn, DIRECTORY, entry.tid)
        for row in self._rows_by_index("inv_stat_fid", entry.file_id,
                                       snapshot):
            self.db.delete(txn, FILESTAT, row.tid)

    def rename(self, txn: Transaction, src: str, dst: str) -> None:
        """Move/rename a file or directory (one atomic tuple replace).

        Deviations from POSIX, both deliberate (DESIGN.md §5d): renaming
        *over* an existing destination raises :class:`FileExists` instead
        of replacing it, and renaming a directory into its own subtree
        raises :class:`DirectoryLoop` (POSIX ``EINVAL``) — before this
        check existed, such a rename committed an unreachable cycle.
        """
        src_parts = split_path(src)
        dst_parts = split_path(dst)
        if not src_parts:
            raise InversionError("cannot rename the root")
        if not dst_parts:
            raise FileExists("Inversion path '/' already exists")
        snapshot = self._snapshot(txn, None)
        entry = self._require(src, snapshot)
        if src_parts == dst_parts:
            return  # POSIX: rename to the same path is a no-op success.
        if entry.is_dir and dst_parts[:len(src_parts)] == src_parts:
            raise DirectoryLoop(
                f"cannot rename {src!r} into its own subtree ({dst!r})")
        dirmove_held = False
        for _ in range(_LOCK_RETRIES):
            src_chain = self._resolve_chain(src_parts[:-1], snapshot)
            dst_chain = self._resolve_chain(dst_parts[:-1], snapshot)
            if src_chain is None:
                raise FileNotFound(f"no Inversion file {src!r}")
            if dst_chain is None:
                raise FileNotFound(
                    f"no Inversion directory "
                    f"{'/' + '/'.join(dst_parts[:-1])!r}")
            for chain, label in ((src_chain, src), (dst_chain, dst)):
                if chain and not chain[-1].is_dir:
                    raise NotADirectory(
                        f"parent of {label!r} is not a directory")
            src_ids = [ROOT_ID] + [e.file_id for e in src_chain]
            dst_ids = [ROOT_ID] + [e.file_id for e in dst_chain]
            src_name, dst_name = src_parts[-1], dst_parts[-1]
            moving = self._child(src_ids[-1], src_name, snapshot)
            # One lockdep operation scope per locking attempt (see
            # _locked_parent): dirmove -> entry -> tree, checked against
            # the declared inv_* order in repro/txn/lockdep.py.
            with lockdep.VALIDATOR.operation(f"rename-lock {src!r}"):
                if moving is not None and moving.is_dir \
                        and not dirmove_held:
                    # One directory mover at a time: two concurrent
                    # moves could each pass the ancestry check, then
                    # commit a cycle together.
                    self.db.locks.acquire(txn.xid, ("inv_dirmove",),
                                          LockMode.EXCLUSIVE)
                    dirmove_held = True
                for key in sorted({(src_ids[-1], src_name),
                                   (dst_ids[-1], dst_name)}):
                    self._lock_entry(txn, *key)
                for dir_id in sorted(set(src_ids) | set(dst_ids)):
                    self._lock_tree(txn, dir_id, LockMode.SHARED)
                if moving is not None and moving.is_dir:
                    # EXCLUSIVE on the moved subtree's root: every op
                    # below it holds this key SHARED in its ancestor
                    # chain, so nothing can land inside the subtree
                    # while it moves.
                    self._lock_tree(txn, moving.file_id,
                                    LockMode.EXCLUSIVE)
            snapshot = self._snapshot(txn, None)
            fresh_src = self._resolve_chain(src_parts[:-1], snapshot)
            fresh_dst = self._resolve_chain(dst_parts[:-1], snapshot)
            fresh_moving = None if fresh_src is None else \
                self._child(src_ids[-1], src_name, snapshot)
            same_moving = (
                (fresh_moving is None and moving is None)
                or (fresh_moving is not None and moving is not None
                    and fresh_moving.file_id == moving.file_id
                    and fresh_moving.is_dir == moving.is_dir))
            if (fresh_src is not None and fresh_dst is not None
                    and [e.file_id for e in fresh_src] == src_ids[1:]
                    and [e.file_id for e in fresh_dst] == dst_ids[1:]
                    and same_moving):
                break
        else:
            raise InversionError(
                f"directory chains for {src!r}/{dst!r} kept moving; "
                f"giving up")
        entry = self._child(src_ids[-1], src_name, snapshot)
        if entry is None:
            raise FileNotFound(f"no Inversion file {src!r}")
        if self._child(dst_ids[-1], dst_name, snapshot) is not None:
            raise FileExists(f"Inversion path {dst!r} already exists")
        if entry.is_dir:
            # Re-check ancestry by file id under the locks: the lexical
            # check above ran on a pre-lock snapshot, and the slot names
            # prove nothing about where the ids now live.
            if entry.file_id in dst_ids:
                raise DirectoryLoop(
                    f"cannot rename {src!r} into its own subtree "
                    f"({dst!r})")
        self.db.replace(txn, DIRECTORY, entry.tid,
                        (dst_name, entry.file_id, dst_ids[-1],
                         entry.kind))
        # POSIX rename updates the entry's status-change time.
        self._update_stat(txn, entry.file_id, touch_ctime=True)

    # -- traversal -----------------------------------------------------------------

    def import_tree(self, txn: Transaction, os_path: str,
                    inv_path: str = "/") -> int:
        """Copy a real directory tree into Inversion; returns files copied.

        The inverse of exporting: the whole import is one transaction, so
        a failure imports nothing.  Permission bits are carried over into
        FILESTAT (``mode & 0o7777``), directories included.
        """
        import os
        import stat as statmod
        copied = 0
        base = os.path.abspath(os_path)
        for dirpath, dirnames, filenames in os.walk(base):
            relative = os.path.relpath(dirpath, base)
            if relative == ".":
                target_dir = inv_path.rstrip("/") or ""
            else:
                target_dir = (inv_path.rstrip("/") + "/"
                              + relative.replace(os.sep, "/"))
                if not self.exists(target_dir or "/", txn):
                    self.mkdir(txn, target_dir,
                               mode=statmod.S_IMODE(
                                   os.stat(dirpath).st_mode))
            dirnames.sort()
            for filename in sorted(filenames):
                host = os.path.join(dirpath, filename)
                # repro: allow(R003): import_tree copies *host* files
                # into Inversion — not an engine data path.
                with open(host, "rb") as fh:
                    data = fh.read()
                target = f"{target_dir}/{filename}"
                self.write_file(txn, target, data)
                self.chmod(txn, target,
                           statmod.S_IMODE(os.stat(host).st_mode))
                copied += 1
        return copied

    def export_tree(self, inv_path: str, os_path: str,
                    txn: Transaction | None = None,
                    as_of: float | None = None) -> int:
        """Copy an Inversion tree out to a real directory; returns files.

        With ``as_of``, exports the tree *as it was* — a point-in-time
        backup straight out of the no-overwrite storage system.  FILESTAT
        permission bits are applied to the exported files; directory modes
        are applied last (a read-only directory must still accept its own
        children first).
        """
        import os
        os.makedirs(os_path, exist_ok=True)
        exported = 0
        dir_modes: list[tuple[str, int]] = []
        for current, dirs, files in self.walk(inv_path, txn, as_of=as_of):
            relative = current[len(inv_path.rstrip("/")):].lstrip("/")
            target_dir = os.path.join(os_path, relative) if relative \
                else os_path
            os.makedirs(target_dir, exist_ok=True)
            if split_path(current):
                dir_modes.append(
                    (target_dir,
                     self.stat(current, txn, as_of=as_of)["mode"]))
            for name in files:
                source = f"{current.rstrip('/')}/{name}"
                data = self.read_file(source, txn, as_of=as_of)
                target = os.path.join(target_dir, name)
                # repro: allow(R003): export_tree writes *host* files —
                # not an engine data path.
                with open(target, "wb") as fh:
                    fh.write(data)
                os.chmod(target, self.stat(source, txn,
                                           as_of=as_of)["mode"])
                exported += 1
        for target_dir, mode in reversed(dir_modes):
            os.chmod(target_dir, mode)
        return exported

    def walk(self, path: str = "/", txn: Transaction | None = None,
             as_of: float | None = None
             ) -> Iterator[tuple[str, list[str], list[str]]]:
        """Like :func:`os.walk` over the Inversion tree."""
        snapshot = self._snapshot(txn, as_of)
        if split_path(path):
            start = self._require(path, snapshot)
            if not start.is_dir:
                raise NotADirectory(f"{path!r} is not a directory")
            stack = [("/" + "/".join(split_path(path)), start.file_id)]
        else:
            stack = [("/", ROOT_ID)]
        while stack:
            current_path, file_id = stack.pop()
            children = self._children(file_id, snapshot)
            dirs = sorted(c.name for c in children if c.is_dir)
            files = sorted(c.name for c in children if not c.is_dir)
            yield current_path, dirs, files
            base = current_path.rstrip("/")
            for child in children:
                if child.is_dir:
                    stack.append((f"{base}/{child.name}", child.file_id))
