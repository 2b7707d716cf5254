"""The large-object manager: create / open / unlink across all four
implementations.

Designators
-----------
A large object is named in tuples by a **designator** string:

* ``"lo:<oid>"`` — a chunked object (f-chunk or v-segment); the oid
  resolves through the catalog to the implementation and its relations;
* ``"pg_pfiles/<n>"`` — a DBMS-owned p-file, allocated by
  :meth:`LargeObjectManager.newfilename` (the paper's function of the
  same name);
* anything else — a u-file path owned by the user.

This is exactly the paper's usage: *"the name of a user file is used as a
large object designator and stored in the appropriate field in the data
base"* (§6.1).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.compress.base import get_compressor
from repro.db import PG_LARGEOBJECT
from repro.errors import (
    LargeObjectError,
    LargeObjectNotFound,
    RelationNotFound,
)
from repro.lo import metadata
from repro.lo.fchunk import FChunkObject, chunk_class_name, chunk_index_name
from repro.lo.interface import LargeObject
from repro.lo.nativefs import NativeFileSystem
from repro.lo.pfile import PFILE_PREFIX, PostgresFileObject, is_pfile
from repro.lo.ufile import UserFileObject
from repro.lo.vsegment import (
    VSegmentObject,
    segment_class_name,
    segment_index_name,
)
from repro.txn.lockdep import LockdepMutex
from repro.txn.locks import LockMode
from repro.txn.manager import Transaction
from repro.txn.rangelock import lo_whole
from repro.txn.snapshot import Snapshot

if TYPE_CHECKING:
    import os

    from repro.db import Database


def is_chunked(designator: str) -> bool:
    """Whether a designator names an f-chunk/v-segment object."""
    return designator.startswith("lo:")


def designator_oid(designator: str) -> int:
    """The oid inside a chunked designator."""
    try:
        return int(designator[3:])
    except ValueError as exc:
        raise LargeObjectError(
            f"malformed large-object designator {designator!r}") from exc


class LargeObjectManager:
    """Creates, opens, and destroys large objects of every kind."""

    def __init__(self, db: "Database"):
        self.db = db
        root = None
        if db.path is not None:
            import os
            root = os.path.join(db.path, "files")
        self.nativefs = NativeFileSystem(db.clock, root=root)
        self._pfile_writers: set[str] = set()
        #: Aggregated hit/miss counters for every descriptor's
        #: decompressed-data cache; ``db.statistics()["largeobjects"]``.
        self.cache_stats = metadata.LargeObjectCacheStats()
        #: oid -> count of open chunked descriptors (any mode, any
        #: session).  Readers take no heavyweight locks, so this registry
        #: is how unlink — whose relation drop is non-transactional DDL —
        #: refuses to pull a class out from under a live scan.
        self._open_mutex = LockdepMutex("mutex:lo_registry")
        self._open_counts: dict[int, int] = {}
        #: Per-store append cursors for v-segment byte stores.  The store
        #: "only grows"; under concurrency each writer reserves a
        #: disjoint extent here instead of trusting its descriptor's
        #: (possibly stale) EOF.  Extents reserved by transactions that
        #: later abort are simply never written — holes read as zeros.
        self._cursor_mutex = LockdepMutex("mutex:lo_registry")
        self._append_cursors: dict[int, int] = {}

    # -- creation --------------------------------------------------------------------

    def create(self, txn: Transaction, impl: str = "fchunk",
               smgr: str | None = None, compression: str = "none",
               path: str | None = None) -> str:
        """Create a new large object; returns its designator.

        ``impl`` is one of ``ufile``/``pfile``/``fchunk``/``vsegment``
        (the paper's §6 implementations, hyphenated spellings accepted).
        ``path`` is required for ``ufile`` and rejected otherwise.
        """
        from repro.adt.types import normalize_storage
        impl = normalize_storage(impl)
        if impl == "ufile":
            if path is None:
                raise LargeObjectError("a u-file object needs a path")
            return self.create_ufile(path)
        if path is not None:
            raise LargeObjectError(
                f"{impl} objects are named by the system, not by path")
        if impl == "pfile":
            return self.newfilename(txn)
        if impl == "fchunk":
            return self._create_fchunk(txn, smgr, compression)
        return self._create_vsegment(txn, smgr, compression)

    def create_for_type(self, txn: Transaction, type_name: str,
                        path: str | None = None) -> str:
        """Create an object per a large ADT's storage clause."""
        definition = self.db.types.get(type_name)
        if not definition.is_large:
            raise LargeObjectError(f"type {type_name!r} is not a large ADT")
        return self.create(txn, impl=definition.storage,
                           compression=definition.compression, path=path)

    def create_ufile(self, path: str) -> str:
        """Register a user file as a large object (creates it if absent)."""
        if is_pfile(path) or is_chunked(path):
            raise LargeObjectError(
                f"{path!r} collides with a system designator namespace")
        self.nativefs.create(path)
        return path

    def newfilename(self, txn: Transaction | None = None) -> str:
        """Allocate a DBMS-owned file (§6.2's ``newfilename`` function).

        If called inside a transaction, the allocation (though not any
        bytes later written — p-files are not transactional) is undone on
        abort.
        """
        name = f"{PFILE_PREFIX}{self.db.catalog.allocate_oid()}"
        self.nativefs.create(name)
        if txn is not None:
            txn.on_abort.append(lambda: self.nativefs.unlink(name))
        return name

    def _register_chunked(self, txn: Transaction, oid: int, impl: str,
                          smgr_name: str, compression: str,
                          detail: dict | None = None) -> None:
        self.db.catalog.add_large_object(oid, impl, smgr_name, compression,
                                         detail=detail)
        self.db.insert(txn, PG_LARGEOBJECT, (oid, 0))
        txn.on_abort.append(lambda: self._undo_create(oid))

    def _undo_create(self, oid: int) -> None:
        """Abort hook: remove the relations a failed create left behind."""
        entry = self.db.catalog.large_objects.get(oid)
        if entry is None:
            return
        if entry.impl == "vsegment":
            self._drop_relations(oid, segment_class_name,
                                 segment_index_name)
            store_oid = (entry.detail or {}).get("store_oid")
            if store_oid is not None:
                self._undo_create(store_oid)
        else:
            self._drop_relations(oid, chunk_class_name, chunk_index_name)
        self._drop_entry(oid)

    def _drop_entry(self, oid: int) -> None:
        """Forget a dropped object: its catalog entry and, if it was a
        v-segment byte store, its append cursor."""
        self.db.catalog.drop_large_object(oid)
        with self._cursor_mutex:
            self._append_cursors.pop(oid, None)

    def _drop_relations(self, oid: int, class_name_fn, index_name_fn):
        name = class_name_fn(oid)
        if self.db.class_exists(name):
            self.db.drop_class(name)

    def recover_orphans(self) -> list[int]:
        """Drop cataloged large objects whose creating transaction never
        committed.

        The catalog journal is not transactional: a crash between
        registering a large object and committing the creating
        transaction leaves a catalog entry (and empty chunk relations)
        with no size row ever visible in ``pg_largeobject``.  In-process
        aborts are compensated by the ``on_abort`` hook installed in
        :meth:`_register_chunked`; this sweep is the crash-recovery
        equivalent, run once when a database directory is reopened.

        Safe because the only path that deletes size rows
        (:meth:`_unlink_chunked`) also drops the catalog entry, so a
        cataloged oid with no visible size row can only be the residue
        of an uncommitted create.
        """
        sized = {t.values[0] for t in self.db.scan(PG_LARGEOBJECT)}
        dropped = []
        for oid in sorted(self.db.catalog.large_objects):
            if oid in sized:
                continue
            if self.db.catalog.large_objects.get(oid) is None:
                continue  # already swept as a v-segment's byte store
            self._undo_create(oid)
            dropped.append(oid)
        return dropped

    def _create_fchunk(self, txn: Transaction, smgr: str | None,
                       compression: str) -> str:
        txn.require_active()
        get_compressor(compression)  # validate the name early
        smgr_name = smgr or self.db.default_smgr_name
        oid = self.db.catalog.allocate_oid()
        name = chunk_class_name(oid)
        self.db.create_class(name, [("seqno", "int4"), ("data", "bytea")],
                             smgr=smgr_name)
        self.db.create_index(chunk_index_name(oid), name, "seqno")
        self._register_chunked(txn, oid, "fchunk", smgr_name, compression)
        return f"lo:{oid}"

    def _create_vsegment(self, txn: Transaction, smgr: str | None,
                         compression: str) -> str:
        txn.require_active()
        get_compressor(compression)
        smgr_name = smgr or self.db.default_smgr_name
        # The byte store is a plain (uncompressed) f-chunk object.
        store_designator = self._create_fchunk(txn, smgr_name, "none")
        store_oid = designator_oid(store_designator)
        oid = self.db.catalog.allocate_oid()
        name = segment_class_name(oid)
        self.db.create_class(
            name,
            [("locn", "int8"), ("length", "int4"),
             ("compressed_len", "int4"), ("byte_pointer", "int8")],
            smgr=smgr_name)
        self.db.create_index(segment_index_name(oid), name, "locn")
        self._register_chunked(txn, oid, "vsegment", smgr_name, compression,
                               detail={"store_oid": store_oid})
        return f"lo:{oid}"

    # -- open -------------------------------------------------------------------------------

    def open(self, designator: str, txn: Transaction | None = None,
             mode: str = "r", as_of: float | None = None) -> LargeObject:
        """Open a large object with file semantics.

        ``mode`` is ``"r"`` or ``"rw"``.  ``as_of`` opens a historical
        snapshot — supported only by the chunked implementations, which is
        precisely the paper's point about time travel (§6.1 lists its
        absence as a u-file drawback).
        """
        if mode not in ("r", "rw", "w"):
            raise LargeObjectError(f"bad open mode {mode!r}")
        writable = "w" in mode
        if is_chunked(designator):
            return self._open_chunked(designator_oid(designator), txn,
                                      writable, as_of)
        if as_of is not None:
            raise LargeObjectError(
                f"{designator!r} is a native file: file-based large "
                f"objects do not support time travel")
        if not self.nativefs.exists(designator):
            raise LargeObjectNotFound(
                f"no native file {designator!r}")
        if is_pfile(designator):
            return PostgresFileObject(self.nativefs, designator, writable,
                                      self._pfile_writers)
        return UserFileObject(self.nativefs, designator, writable)

    def _open_chunked(self, oid: int, txn: Transaction | None,
                      writable: bool, as_of: float | None) -> LargeObject:
        # No whole-object lock here: writers declare the byte ranges they
        # actually mutate (EXCLUSIVE range locks taken at write time, held
        # to txn end), so disjoint-range writers proceed in parallel.
        # Readers still take no lock at all — no-overwrite versioning
        # means they never see a writer's uncommitted chunks.
        entry = self.db.catalog.get_large_object(oid)
        compressor = get_compressor(entry.compression)
        try:
            if entry.impl == "fchunk":
                obj: LargeObject = FChunkObject(
                    self.db, oid, compressor, txn, writable, as_of=as_of)
            else:
                store_oid = (entry.detail or {}).get("store_oid")
                if store_oid is None:
                    raise LargeObjectError(
                        f"v-segment object {oid} has no byte store "
                        f"recorded")
                store = self._open_chunked(store_oid, txn, writable, as_of)
                try:
                    obj = VSegmentObject(self.db, oid, compressor, store,
                                         txn, writable, as_of=as_of)
                except Exception:
                    store.close()
                    raise
        except RelationNotFound as exc:
            raise LargeObjectNotFound(
                f"large object {oid} was unlinked concurrently") from exc
        self._register_open(oid)
        obj.on_close.append(lambda: self._release_open(oid))
        return obj

    # -- open-descriptor registry / store append cursors -------------------------------------

    def _register_open(self, oid: int) -> None:
        with self._open_mutex:
            self._open_counts[oid] = self._open_counts.get(oid, 0) + 1

    def _release_open(self, oid: int) -> None:
        with self._open_mutex:
            count = self._open_counts.get(oid, 0) - 1
            if count > 0:
                self._open_counts[oid] = count
            else:
                self._open_counts.pop(oid, None)

    def open_descriptors(self, oid: int) -> int:
        """How many chunked descriptors are currently open on *oid*."""
        with self._open_mutex:
            return self._open_counts.get(oid, 0)

    def reserve_store_extent(self, store_oid: int, length: int, *,
                             eof_hint: int) -> int:
        """Claim ``length`` fresh bytes of a v-segment byte store.

        The cursor is lazily anchored at *eof_hint* (the caller's view of
        the store EOF) and only ever moves forward, so concurrent writers
        get disjoint extents without a size-row probe; a lone writer gets
        back exactly its own EOF — the identical layout the plain
        ``seek(0, SEEK_END)`` append produced.
        """
        with self._cursor_mutex:
            start = max(self._append_cursors.get(store_oid, 0), eof_hint)
            self._append_cursors[store_oid] = start + length
            return start

    # -- unlink -------------------------------------------------------------------------------

    def unlink(self, txn: Transaction | None, designator: str) -> None:
        """Destroy a large object.

        Chunked objects need a transaction (their size record is deleted
        transactionally); the relation drop itself is DDL and, as in
        POSTGRES V4, not undone by a later abort.
        """
        if not is_chunked(designator):
            if designator in self._pfile_writers:
                # A native-file writer flushes straight to the filesystem:
                # unlinking under it would let a later flush resurrect the
                # file (or lose the bytes entirely).
                raise LargeObjectError(
                    f"cannot unlink {designator!r}: an open writer holds "
                    f"it (close the descriptor first)")
            self.nativefs.unlink(designator)
            return
        if txn is None:
            raise LargeObjectError(
                f"unlinking {designator!r} requires a transaction")
        self._unlink_chunked(txn, designator_oid(designator))

    def _unlink_chunked(self, txn: Transaction, oid: int) -> None:
        # The whole-object [0, inf) range: conflicts with every writer's
        # range lock, so no write can be mid-flight while we drop.
        self.db.locks.acquire(txn.xid, lo_whole(oid), LockMode.EXCLUSIVE)
        # Lock-free readers are invisible to the lock manager; the open-
        # descriptor registry is what keeps the (non-transactional) DDL
        # drop below from failing them mid-scan.
        open_count = self.open_descriptors(oid)
        if open_count:
            raise LargeObjectError(
                f"cannot unlink large object {oid}: {open_count} open "
                f"descriptor(s) remain (close them first — the chunk "
                f"relations would drop under a live reader)")
        entry = self.db.catalog.get_large_object(oid)
        # Delete the size row (transactional part).  The scan collects
        # (and releases the engine latch) before the deletes: db.delete
        # takes a heavyweight relation lock, which must never be acquired
        # while the latch is held.
        snapshot = self.db.snapshot(txn)
        for row in metadata.size_rows(self.db, oid, snapshot):
            self.db.delete(txn, PG_LARGEOBJECT, row.tid)
        # Drop the relations (DDL).
        if entry.impl == "vsegment":
            self._drop_relations(oid, segment_class_name, segment_index_name)
            store_oid = (entry.detail or {}).get("store_oid")
            if store_oid is not None:
                self._unlink_chunked(txn, store_oid)
        else:
            self._drop_relations(oid, chunk_class_name, chunk_index_name)
        self._drop_entry(oid)

    # -- introspection ----------------------------------------------------------------------------

    def exists(self, designator: str) -> bool:
        """Whether the designator names a live object."""
        if is_chunked(designator):
            return designator_oid(designator) in self.db.catalog.large_objects
        return self.nativefs.exists(designator)

    def implementation(self, designator: str) -> str:
        """Which §6 implementation stores this object."""
        if is_chunked(designator):
            return self.db.catalog.get_large_object(
                designator_oid(designator)).impl
        return "pfile" if is_pfile(designator) else "ufile"

    def stat(self, designator: str,
             txn: Transaction | None = None) -> dict:
        """Implementation, storage manager, compression, and size."""
        impl = self.implementation(designator)
        info = {"designator": designator, "impl": impl}
        if is_chunked(designator):
            entry = self.db.catalog.get_large_object(
                designator_oid(designator))
            info["smgr"] = entry.smgr_name
            info["compression"] = entry.compression
        else:
            info["smgr"] = "native"
            info["compression"] = "none"
        info["size"] = self.size(designator, self.db.snapshot(txn))
        return info

    def size(self, designator: str, snapshot: Snapshot) -> int:
        """The object's byte size as of *snapshot*.

        A chunked object's size is one ``pg_largeobject`` row, so asking
        for it needs no descriptor (and no trip through the
        open-descriptor registry); a native file is asked directly.
        """
        if is_chunked(designator):
            return metadata.read_size(self.db, designator_oid(designator),
                                      snapshot)
        with self.open(designator, as_of=snapshot.as_of) as obj:
            return obj.size()

    def storage_breakdown(self, designator: str) -> dict[str, int]:
        """Device bytes per component, as reported in Figure 1."""
        if not is_chunked(designator):
            return {"data": self.nativefs.size(designator)}
        oid = designator_oid(designator)
        entry = self.db.catalog.get_large_object(oid)
        if entry.impl == "fchunk":
            return {
                "data": self.db.get_class(chunk_class_name(oid)).byte_size(),
                "btree": self.db.get_index(chunk_index_name(oid)).byte_size(),
            }
        store_oid = entry.detail["store_oid"]
        return {
            "data": self.db.get_class(
                chunk_class_name(store_oid)).byte_size(),
            "segment_map": self.db.get_class(
                segment_class_name(oid)).byte_size(),
            "btree": self.db.get_index(
                segment_index_name(oid)).byte_size(),
            "store_btree": self.db.get_index(
                chunk_index_name(store_oid)).byte_size(),
        }
