"""Whole-database integrity checking (à la PostgreSQL's amcheck).

``Database.check_integrity()`` walks every layer and returns a list of
problem descriptions (empty = healthy):

* **catalog ↔ storage**: every cataloged class/index has a backing file;
* **pages**: every page parses, and its line pointers stay inside bounds;
* **tuples**: every live tuple decodes under its relation's schema, and
  its transaction stamps refer to known-fate xids;
* **B-trees**: key ordering holds, and every index entry's TID points at
  a decodable heap tuple;
* **large objects**: every cataloged object has its chunk relations and
  (but a v-segment's byte store, which keeps none) its
  ``pg_largeobject`` size row; f-chunk objects and byte stores have one
  visible version per chunk, an f-chunk object none past its size; and
  (v-segment) every visible segment's store extent lies in visible store
  chunks, the segments disjoint, bounded and inside the object;
* **Inversion**: every live DIRECTORY file row has STORAGE and FILESTAT
  rows and its designator resolves; no duplicate directory slots or
  file ids; no orphan FILESTAT/STORAGE rows; every parent id is a live
  directory; every directory is reachable from the root (no cycles).

The checker only reads; it never repairs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.access.tuples import TID
from repro.errors import ReproError
from repro.storage.constants import CHUNK_PAYLOAD, INVALID_XID, PAGE_SIZE
from repro.txn.xlog import TxnStatus

if TYPE_CHECKING:
    from repro.db import Database


class IntegrityChecker:
    """Read-only consistency sweep over one database."""

    def __init__(self, db: "Database"):
        self.db = db
        self.problems: list[str] = []

    def _report(self, message: str) -> None:
        self.problems.append(message)

    def _visible(self, name: str, snapshot):
        """*name*'s versions visible to *snapshot*, streamed through the
        scan layer under the latch (writers may run; payloads not kept)."""
        from repro.access.scan import SeqScan
        with self.db.latch:
            yield from SeqScan(self.db, self.db.get_class(name)).each(snapshot)

    # -- entry point -------------------------------------------------------------

    def run(self) -> list[str]:
        """Run every check; returns the accumulated problem list."""
        self.problems = []
        self._check_catalog_storage()
        for name in self.db.catalog.relation_names():
            self._check_heap(name)
        for index_name in sorted(self.db.catalog.indexes):
            self._check_index(index_name)
        self._check_large_objects()
        self._check_inversion()
        return self.problems

    # -- individual checks ----------------------------------------------------------

    def _check_catalog_storage(self) -> None:
        for name, entry in sorted(self.db.catalog.relations.items()):
            smgr = self.db.storage_manager(entry.smgr_name)
            if not smgr.exists(entry.fileid):
                self._report(f"class {name!r}: backing file "
                             f"{entry.fileid!r} missing on "
                             f"{entry.smgr_name!r}")
        for name, entry in sorted(self.db.catalog.indexes.items()):
            relation = self.db.catalog.relations.get(entry.relation)
            if relation is None:
                self._report(f"index {name!r}: its class "
                             f"{entry.relation!r} is not cataloged")

    def _check_heap(self, name: str) -> None:
        entry = self.db.catalog.relations[name]
        if not self.db.storage_manager(entry.smgr_name).exists(
                entry.fileid):
            return  # already reported by the catalog/storage check
        try:
            relation = self.db.get_class(name)
        except ReproError as exc:
            self._report(f"class {name!r}: unopenable: {exc}")
            return
        for blockno in range(relation.nblocks()):
            try:
                with self.db.latch, self.db.bufmgr.page(
                        relation.smgr, relation.fileid, blockno) as page:
                    if page.lower > page.upper or page.upper > PAGE_SIZE:
                        self._report(f"class {name!r} page {blockno}: "
                                     f"header bounds corrupt")
                        continue
                    slots = page.live_slots()
                    images = [(s, page.get_item(s)) for s in slots]
            except ReproError as exc:
                self._report(f"class {name!r} page {blockno}: {exc}")
                continue
            for slot, image in images:
                self._check_tuple(name, relation, TID(blockno, slot),
                                  image)

    def _check_tuple(self, name: str, relation, tid: TID,
                     image: bytes) -> None:
        from repro.access.tuples import deserialize_tuple
        try:
            tup = deserialize_tuple(relation.schema, image, tid)
        except ReproError as exc:
            self._report(f"class {name!r} tuple {tid}: undecodable: {exc}")
            return
        if tup.xmin == INVALID_XID:
            self._report(f"class {name!r} tuple {tid}: invalid xmin")
        for label, xid in (("xmin", tup.xmin), ("xmax", tup.xmax)):
            if xid == INVALID_XID:
                continue
            status = self.db.clog.status(xid)
            if status == TxnStatus.COMMITTED:
                try:
                    self.db.clog.commit_time(xid)
                except ReproError:
                    self._report(f"class {name!r} tuple {tid}: committed "
                                 f"{label} {xid} has no commit time")

    def _check_index(self, index_name: str) -> None:
        from repro.access.scan import check_index, dangling_index_entries
        entry = self.db.catalog.indexes.get(index_name)
        if entry is None or entry.relation not in self.db.catalog.relations:
            return
        try:
            index = self.db.get_index(index_name)
            check_index(self.db, index)
        except ReproError as exc:
            self._report(f"index {index_name!r}: {exc}")
            return
        relation = self.db.get_class(entry.relation)
        for key, tid in dangling_index_entries(self.db, index, relation):
            self._report(f"index {index_name!r} entry {key}: "
                         f"dangling TID ({tid.blockno},{tid.slot})")

    def _check_large_objects(self) -> None:
        from repro.db import PG_LARGEOBJECT
        from repro.lo.fchunk import chunk_class_name
        from repro.lo.vsegment import segment_class_name
        snapshot = self.db.snapshot()
        size_rows = {t.values[0]: t.values[1]
                     for t in self._visible(PG_LARGEOBJECT, snapshot)}
        catalog = self.db.catalog
        for oid, entry in sorted(catalog.large_objects.items()):
            if catalog.is_byte_store(oid):
                # A byte store keeps no size row; one written before
                # stores stopped keeping it is stale and not read.
                size_rows.pop(oid, None)
            elif oid not in size_rows:
                self._report(f"large object {oid}: no visible size row "
                             f"in {PG_LARGEOBJECT}")
            expected = (segment_class_name(oid)
                        if entry.impl == "vsegment"
                        else chunk_class_name(oid))
            if not self.db.class_exists(expected):
                self._report(f"large object {oid} ({entry.impl}): "
                             f"class {expected!r} missing")
            if entry.impl == "vsegment":
                store_oid = (entry.detail or {}).get("store_oid")
                if store_oid is None:
                    self._report(f"large object {oid}: v-segment without "
                                 f"a recorded byte store")
                elif store_oid not in catalog.large_objects:
                    self._report(f"large object {oid}: byte store "
                                 f"{store_oid} not cataloged")
                else:
                    self._check_segments(oid, store_oid,
                                         size_rows.get(oid), snapshot)
            elif self.db.class_exists(expected):
                self._check_chunks(oid, expected, size_rows.get(oid),
                                   snapshot)

    def _check_chunks(self, oid: int, name: str, size: int | None,
                      snapshot) -> None:
        # What the f-chunk writer's known-TID map and absence baseline
        # rest on (docs/invariants.md): one visible version per chunk,
        # none at or past the size row (a missing row is reported above;
        # a byte store's size is where its last chunk ends).
        seen: set[int] = set()
        for tup in self._visible(name, snapshot):
            seqno = tup.values[0]
            if seqno in seen:
                self._report(f"large object {oid}: several visible "
                             f"versions of chunk {seqno}")
            seen.add(seqno)
            if size is not None and seqno * CHUNK_PAYLOAD >= size:
                self._report(f"large object {oid}: chunk {seqno} starts "
                             f"past the object's size ({size})")

    def _check_segments(self, oid: int, store_oid: int, size: int | None,
                        snapshot) -> None:
        from repro.lo.fchunk import chunk_class_name
        from repro.lo.vsegment import SEGMENT_MAX, segment_class_name
        name = segment_class_name(oid)
        store = chunk_class_name(store_oid)
        if not (self.db.class_exists(name) and self.db.class_exists(store)):
            return  # reported with the object or its store
        # What a segment read and the append cursor rest on: each segment's
        # store bytes are in visible chunks (so the store's size, where
        # its last chunk ends, is past every extent).
        stored = {t.values[0]: len(t.values[1])
                  for t in self._visible(store, snapshot)}
        # What the overlap query's floor probe rests on (docs/invariants.md):
        # visible segments are bounded, inside the object and disjoint
        # (*size*: a missing row is reported above).
        previous_end = 0
        for tup in sorted(self._visible(name, snapshot),
                          key=lambda t: t.values[0]):
            locn, length, clen, ptr = tup.values
            where = f"large object {oid}: segment at {locn}"
            end = ptr + clen
            for seqno in range(ptr // CHUNK_PAYLOAD,
                               (end - 1) // CHUNK_PAYLOAD + 1):
                start = seqno * CHUNK_PAYLOAD
                if stored.get(seqno, 0) < min(end - start, CHUNK_PAYLOAD):
                    self._report(f"{where} points past the visible "
                                 f"chunks of byte store {store_oid} "
                                 f"([{ptr}, {end}) needs chunk {seqno})")
                    break
            if not 0 < length <= SEGMENT_MAX:
                self._report(f"{where} has length {length} "
                             f"(limit {SEGMENT_MAX})")
            if locn < previous_end:
                self._report(f"{where} overlaps the one ending at "
                             f"{previous_end}")
            if size is not None and locn + length > size:
                self._report(f"{where} ends past the object's size "
                             f"({locn}+{length} > {size})")
            previous_end = max(previous_end, locn + length)

    def _check_inversion(self) -> None:
        from repro.inversion.filesystem import (DIRECTORY, FILESTAT,
                                                ROOT_ID, STORAGE)
        if not self.db.class_exists(DIRECTORY):
            return
        snapshot = self.db.snapshot()
        storage_ids = {t.values[0]: t.values[1]
                       for t in self._visible(STORAGE, snapshot)}
        stat_ids: set[int] = set()
        for tup in self._visible(FILESTAT, snapshot):
            file_id = tup.values[0]
            if file_id in stat_ids:
                self._report(f"inversion FILESTAT: duplicate rows for "
                             f"id {file_id}")
            stat_ids.add(file_id)
        storage_seen: set[int] = set()
        for tup in self._visible(STORAGE, snapshot):
            file_id = tup.values[0]
            if file_id in storage_seen:
                self._report(f"inversion STORAGE: duplicate rows for "
                             f"id {file_id}")
            storage_seen.add(file_id)
        entries = [t.values
                   for t in self._visible(DIRECTORY, snapshot)]
        dir_ids = {ROOT_ID} | {file_id for _n, file_id, _p, kind
                               in entries if kind == "d"}
        entry_ids = {file_id for _n, file_id, _p, _k in entries}
        slots: set[tuple[int, str]] = set()
        file_ids: set[int] = set()
        children: dict[int, list[int]] = {}
        for name, file_id, parent, kind in entries:
            if (parent, name) in slots:
                self._report(f"inversion: duplicate entry {name!r} under "
                             f"directory {parent}")
            slots.add((parent, name))
            if file_id in file_ids:
                self._report(f"inversion {name!r}: file id {file_id} "
                             f"appears in more than one DIRECTORY row")
            file_ids.add(file_id)
            if parent not in dir_ids:
                self._report(f"inversion {name!r} (id {file_id}): parent "
                             f"{parent} is not a live directory")
            elif kind == "d":
                children.setdefault(parent, []).append(file_id)
            if file_id not in stat_ids:
                self._report(f"inversion {name!r} (id {file_id}): "
                             f"no FILESTAT row")
            if kind == "f":
                designator = storage_ids.get(file_id)
                if designator is None:
                    self._report(f"inversion file {name!r} (id {file_id})"
                                 f": no STORAGE row")
                elif not self.db.lo.exists(designator):
                    self._report(f"inversion file {name!r}: designator "
                                 f"{designator!r} dangles")
        # Orphans: metadata rows whose file went away without them.
        for file_id in sorted(stat_ids - entry_ids):
            self._report(f"inversion FILESTAT: orphan row for id "
                         f"{file_id} (no DIRECTORY entry)")
        for file_id in sorted(storage_seen - entry_ids):
            self._report(f"inversion STORAGE: orphan row for id "
                         f"{file_id} (no DIRECTORY entry)")
        # Reachability: every directory must hang off the root.  An
        # unreachable directory means a rename committed a cycle (the bug
        # DirectoryLoop now prevents) or a detached subtree.
        reachable = {ROOT_ID}
        frontier = [ROOT_ID]
        while frontier:
            for child in children.get(frontier.pop(), ()):
                if child not in reachable:
                    reachable.add(child)
                    frontier.append(child)
        for name, file_id, parent, kind in entries:
            if kind == "d" and file_id not in reachable \
                    and parent in dir_ids:
                self._report(f"inversion directory {name!r} (id {file_id})"
                             f": unreachable from the root (cycle?)")
