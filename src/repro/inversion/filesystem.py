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
stress in :mod:`repro.inversion.monkey` is the regression test).  Every
one of create/mkdir/unlink/rmdir/rename — a same-path rename included —
runs the **slot protocol**, which :meth:`InversionFileSystem._lock_slots`
alone executes, before it reports success:

1. resolve each named slot's parent chain ``[ROOT, ..., parent]`` under
   the transaction's snapshot;
2. ``("inv_dirmove",)`` EXCLUSIVE if the operation *moves a directory*:
   two concurrent moves could otherwise each pass the ancestry check and
   commit a cycle.  File renames never take it;
3. ``("inv_entry", parent_id, name)`` EXCLUSIVE per slot, keys sorted —
   so two creators of ``/same/path`` cannot both insert (the second sees
   the first's committed row and raises :class:`FileExists`);
4. ``("inv_tree", dir_id)`` SHARED on **every directory of every
   resolved chain**, in ascending file-id order (one total order for one
   chain or two), then EXCLUSIVE on the directory being moved.  The chain
   locks are what make commit order a real serialization: without them,
   a create deep inside ``/a/b`` and a rename of ``/a`` hold no common
   lock, both commit, and the file materializes under a path the creator
   never named.  With them, the mover's EXCLUSIVE on its own subtree
   root collides with the SHARED held by anything operating below it
   (``rmdir`` takes the same EXCLUSIVE key on the directory it removes);
5. lock keys are file ids, known only *before* the grant — so if a
   transaction ended meanwhile (the snapshot changed: ``_finish`` counts
   an end before it releases locks), re-resolve and start over (bounded)
   if any chain id, or the id of a directory being moved, changed.  A look
   reads each directory once and hands back every slot's entry.

``("inv_stat", file_id)`` EXCLUSIVE surrounds every FILESTAT update
(chmod/chown/utime and the atime/mtime maintenance), so concurrent
time-stamp touches serialize instead of aborting on a write-write
conflict.

Lock order (DESIGN.md §5c): dirmove → entry (sorted) → tree (ascending
id) → stat → relation/large-object locks.  All are strict-2PL and
deadlock-detected; a victim surfaces :class:`DeadlockError` and the
caller retries or reports, exactly like any other POSTGRES transaction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from repro.access.scan import IndexProbe
from repro.access.tuples import TID, HeapTuple
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


def _names_dir(path: str) -> bool:
    """Whether *path* ends in ``/`` (or ``/.``): it names a directory."""
    return path.endswith(("/", "/."))


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


class DirEntry(NamedTuple):
    """One resolved directory entry."""

    name: str
    file_id: int
    parent_id: int
    kind: str
    tid: TID | None

    @property
    def is_dir(self) -> bool:
        return self.kind == _KIND_DIR


#: A resolved path: parent chain ids, name, entry (``None``: empty slot).
Slot = tuple[list[int], str, DirEntry | None]

#: The root directory.  It has no DIRECTORY tuple (and no FILESTAT row),
#: but as an entry it heads every resolved chain, so no path code
#: branches on "is this the root".
ROOT = DirEntry("", ROOT_ID, ROOT_ID, _KIND_DIR, None)


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
        return IndexProbe(self.db, index, relation, key).tuples(snapshot)

    def _children(self, parent_id: int,
                  snapshot: Snapshot) -> dict[str, HeapTuple]:
        """One read of a directory: its ``DIRECTORY`` rows by name."""
        return {t.values[0]: t for t in
                self._rows_by_index("inv_dir_parent", parent_id, snapshot)}

    def _lookup(self, path: str, snapshot: Snapshot,
                listed: dict[int, dict[str, HeapTuple]]) -> Slot:
        """The one resolver: *path*'s slot (the root's ``([], "", ROOT)``),
        reading each directory not in *listed* once; raises if a parent is
        missing or a file, or a file is named as a directory."""
        parts = split_path(path)
        ids, entry = [], ROOT
        for i, name in enumerate(parts):
            if not entry.is_dir:
                raise NotADirectory(
                    f"{'/' + '/'.join(parts[:i])!r} is not a directory")
            ids.append(entry.file_id)
            if entry.file_id not in listed:
                listed[entry.file_id] = self._children(entry.file_id, snapshot)
            row = listed[entry.file_id].get(name)
            if row is None:
                if i + 1 < len(parts):
                    raise FileNotFound(f"no Inversion directory "
                                       f"{'/' + '/'.join(parts[:i + 1])!r}")
                return ids, name, None
            entry = DirEntry(*row.values, row.tid)
        if not entry.is_dir and _names_dir(path):
            raise NotADirectory(f"{path!r} is not a directory")
        return ids, entry.name, entry

    def _resolve(self, path: str, snapshot: Snapshot) -> DirEntry | None:
        """The entry at *path* (:data:`ROOT` for the root), or ``None``."""
        return self._lookup(path, snapshot, {})[2]

    def _require(self, path: str, snapshot: Snapshot) -> DirEntry:
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

    def _lock_tree(self, txn: Transaction, dir_id: int,
                   mode: LockMode) -> None:
        self.db.locks.acquire(txn.xid, ("inv_tree", dir_id), mode)

    def _lock_stat(self, txn: Transaction, file_id: int) -> None:
        self.db.locks.acquire(txn.xid, ("inv_stat", file_id),
                              LockMode.EXCLUSIVE)

    def _lock_slots(self, txn: Transaction, label: str, paths: list[str],
                    vet: Callable[[list[Slot]], int | None]
                    = lambda slots: None) -> list[Slot]:
        """Run the slot protocol (module docstring) over *paths*; returns
        their slots as of a look current after the last lock, so the
        paths still mean the same inodes when the transaction commits.
        *vet* checks each look before its locks and returns the id of the
        directory about to move, if any."""
        def look(snapshot: Snapshot) -> tuple[list[Slot], tuple]:
            """The slots, and what the locks depend on."""
            listed: dict[int, dict[str, HeapTuple]] = {}
            slots = [self._lookup(path, snapshot, listed) for path in paths]
            if not all(ids for ids, _name, _entry in slots):
                raise InversionError("operation not valid on the root")
            return slots, ([ids for ids, _name, _entry in slots], vet(slots))

        snapshot = self._snapshot(txn, None)
        slots, seen = look(snapshot)
        for _ in range(_LOCK_RETRIES):
            # One lockdep operation scope per locking *attempt*: a retry
            # legitimately starts the dirmove -> entry -> tree sequence
            # over while 2PL still holds the previous attempt's locks.
            with lockdep.VALIDATOR.operation(f"path-lock {label}"):
                chains, moving = seen
                if moving is not None:
                    self.db.locks.acquire(txn.xid, ("inv_dirmove",),
                                          LockMode.EXCLUSIVE)
                for parent_id, name in sorted(
                        {(ids[-1], name) for ids, name, _entry in slots}):
                    self.db.locks.acquire(
                        txn.xid, ("inv_entry", parent_id, name),
                        LockMode.EXCLUSIVE)
                for dir_id in sorted({d for ids in chains for d in ids}):
                    self._lock_tree(txn, dir_id, LockMode.SHARED)
                if moving is not None:
                    self._lock_tree(txn, moving, LockMode.EXCLUSIVE)
            snapshot, before = self._snapshot(txn, None), snapshot
            if snapshot is before:   # no transaction ended: nothing moved
                return slots
            slots, again = look(snapshot)
            if again == seen:
                return slots
            seen = again
        raise InversionError(
            f"directory chain for {label} kept moving; giving up")

    def _locked_entry(self, txn: Transaction, path: str) -> DirEntry:
        """The entry at *path*, its slot locked (:meth:`_lock_slots`)."""
        [(_ids, _name, entry)] = self._lock_slots(txn, repr(path), [path])
        if entry is None:
            raise FileNotFound(f"no Inversion file {path!r}")
        return entry

    # -- creation ------------------------------------------------------------------

    def _new_entry(self, txn: Transaction, path: str, kind: str,
                   mode: int) -> int:
        if kind == _KIND_FILE and _names_dir(path):
            raise InversionError(f"{path!r} is a directory")
        [(ids, name, entry)] = self._lock_slots(txn, repr(path), [path])
        if entry is not None:
            raise FileExists(f"Inversion path {path!r} already exists")
        file_id = self.db.catalog.allocate_oid()
        self.db.insert(txn, DIRECTORY, (name, file_id, ids[-1], kind))
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
        exists = self.exists(path, txn)
        if not exists:
            try:
                handle = self.create(txn, path)
            except FileExists:
                # Lost a create race: the slot lock wait ended with another
                # session's committed file — replace its contents instead.
                exists = True
        if exists:
            handle = self.open(path, txn, "rw")
            handle.truncate(0)
        with handle:
            handle.write(data)

    # -- metadata ------------------------------------------------------------------

    def exists(self, path: str, txn: Transaction | None = None,
               as_of: float | None = None) -> bool:
        """Whether *path* names an entry (not through a plain file)."""
        try:
            return self._resolve(path, self._snapshot(txn, as_of)) is not None
        except (FileNotFound, NotADirectory):
            return False

    def is_dir(self, path: str, txn: Transaction | None = None,
               as_of: float | None = None) -> bool:
        return self.exists(path.rstrip("/") + "/", txn, as_of)

    def listdir(self, path: str = "/", txn: Transaction | None = None,
                as_of: float | None = None) -> list[str]:
        """Names in a directory, sorted."""
        snapshot = self._snapshot(txn, as_of)
        entry = self._require(path, snapshot)
        if not entry.is_dir:
            raise NotADirectory(f"{path!r} is not a directory")
        return sorted(self._children(entry.file_id, snapshot))

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
        _fid, old_owner, old_mode, old_atime, old_mtime, ctime = rows[0].values
        self.db.replace(txn, FILESTAT, rows[0].tid, (
            file_id, old_owner if owner is None else owner,
            old_mode if mode is None else mode & 0o7777,
            old_atime if atime is None else atime,
            old_mtime if mtime is None else mtime,
            self.db.clock.now() if touch_ctime else ctime))
        return True

    def _set_stat(self, txn: Transaction, path: str, **changes) -> int:
        """Apply *changes* to *path*'s FILESTAT row and bump ``ctime``, as
        POSIX does for each of chmod/chown/utime.

        Returns the file id the change landed on — the id stays
        stat-locked until commit, so the caller knows *which* inode its
        change applies to even if the path is concurrently renamed.
        """
        entry = self._require(path, self._snapshot(txn, None))
        if not self._update_stat(txn, entry.file_id, touch_ctime=True,
                                 **changes):
            raise FileNotFound(f"no Inversion file {path!r}")
        return entry.file_id

    def chmod(self, txn: Transaction, path: str, mode: int) -> int:
        """Set the permission bits; returns the file id."""
        return self._set_stat(txn, path, mode=mode)

    def chown(self, txn: Transaction, path: str, owner: str) -> int:
        """Set the owner; returns the file id."""
        return self._set_stat(txn, path, owner=owner)

    def utime(self, txn: Transaction, path: str,
              atime: float | None = None,
              mtime: float | None = None) -> int:
        """Set access/modification times; both default to *now* when
        omitted (``utime(path, NULL)`` in POSIX); returns the file id."""
        if atime is None and mtime is None:
            atime = mtime = self.db.clock.now()
        return self._set_stat(txn, path, atime=atime, mtime=mtime)

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
        entry = self._locked_entry(txn, path)
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
        entry = self._locked_entry(txn, path)
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
        same = split_path(src) == split_path(dst)
        if not split_path(dst) and not same:
            raise FileExists("Inversion path '/' already exists")

        def vet(slots: list[Slot]) -> int | None:
            """The source exists (checked before any lock) and goes neither
            into its own subtree nor, as a file, to a directory's name; a
            same-path rename moves nothing, but holds its slot."""
            (_ids, _name, entry), (dst_ids, _name, _taken) = slots
            if entry is None:
                raise FileNotFound(f"no Inversion file {src!r}")
            if entry.file_id in dst_ids:
                raise DirectoryLoop(
                    f"cannot rename {src!r} into its own subtree ({dst!r})")
            if not entry.is_dir and _names_dir(dst):
                raise NotADirectory(f"{dst!r} names a directory, "
                                    f"{src!r} is not one")
            return entry.file_id if entry.is_dir and not same else None

        (_ids, _name, entry), (dst_ids, dst_name, taken) = \
            self._lock_slots(txn, f"{src!r} -> {dst!r}", [src, dst], vet)
        if same:
            return  # POSIX: rename to the same path is a no-op success.
        if taken is not None:
            raise FileExists(f"Inversion path {dst!r} already exists")
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
                # import_tree copies *host* files into Inversion — not
                # an engine data path.
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
                # export_tree writes *host* files — not an engine data
                # path.
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
        start = self._require(path, snapshot)
        if not start.is_dir:
            raise NotADirectory(f"{path!r} is not a directory")
        stack = [("/" + "/".join(split_path(path)), start.file_id)]
        while stack:
            current_path, file_id = stack.pop()
            children = [DirEntry(*t.values, t.tid) for t in
                        self._children(file_id, snapshot).values()]
            dirs = sorted(c.name for c in children if c.is_dir)
            files = sorted(c.name for c in children if not c.is_dir)
            yield current_path, dirs, files
            base = current_path.rstrip("/")
            for child in children:
                if child.is_dir:
                    stack.append((f"{base}/{child.name}", child.file_id))
