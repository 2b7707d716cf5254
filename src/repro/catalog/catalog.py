"""The catalog: what classes, indexes, and large objects exist.

Entries are kept in memory and mirrored to the
:class:`~repro.catalog.journal.CatalogJournal`; reopening a database
directory replays the journal to rebuild this state.  Mutable large-object
state (the current byte size) is *not* here — it lives in the
``pg_largeobject`` system class, where no-overwrite versioning makes it
transactional and time-travel-able.

The catalog also allocates object ids, reserving them from the journal in
batches so a crash never reissues an oid.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.access.schema import Schema
from repro.catalog.journal import CatalogJournal
from repro.txn.lockdep import LockdepMutex
from repro.errors import (
    DuplicateRelation,
    LargeObjectNotFound,
    RelationNotFound,
)

_OID_BATCH = 128
_FIRST_OID = 1000  # below this: reserved for system objects


@dataclass
class RelationEntry:
    """One class (heap relation)."""

    name: str
    schema: Schema
    smgr_name: str
    fileid: str


@dataclass
class IndexEntry:
    """One B-tree index over an integer attribute of a class."""

    name: str
    relation: str
    attribute: str
    fileid: str


@dataclass
class LargeObjectEntry:
    """The immutable half of a large object's identity.

    ``impl`` is one of the four §6 implementations; ``compression`` names
    the per-chunk compressor fixed at creation.  ``detail`` holds
    implementation-private wiring (v-segment stores the oid of its
    underlying f-chunk byte store).  The object's size is in
    ``pg_largeobject``, not here.
    """

    oid: int
    impl: str
    smgr_name: str
    compression: str
    detail: dict | None = None


class Catalog:
    """In-memory catalog state mirrored to a journal."""

    def __init__(self, journal: CatalogJournal):
        self.journal = journal
        self.relations: dict[str, RelationEntry] = {}
        self.indexes: dict[str, IndexEntry] = {}
        #: ``indexes`` by relation: what :meth:`indexes_on` answers from.
        self._indexes_on: dict[str, list[IndexEntry]] = {}
        self.large_objects: dict[int, LargeObjectEntry] = {}
        self._next_oid = _FIRST_OID
        self._oid_reserved = _FIRST_OID
        #: Guards oid allocation — concurrent sessions get distinct oids.
        self._oid_mutex = LockdepMutex("mutex:oid")
        self._replay()

    # -- replay ---------------------------------------------------------------------

    def _replay(self) -> None:
        for record in self.journal.replay():
            action = record.get("action")
            if action == "create_class":
                self.relations[record["name"]] = RelationEntry(
                    name=record["name"],
                    schema=Schema.from_dict(record["schema"]),
                    smgr_name=record["smgr"],
                    fileid=record["fileid"])
            elif action == "drop_class":
                self.relations.pop(record["name"], None)
            elif action == "create_index":
                self._set_index(IndexEntry(
                    name=record["name"], relation=record["relation"],
                    attribute=record["attribute"], fileid=record["fileid"]))
            elif action == "drop_index":
                self._pop_index(record["name"])
            elif action == "create_lo":
                entry = LargeObjectEntry(
                    oid=record["oid"], impl=record["impl"],
                    smgr_name=record["smgr"],
                    compression=record["compression"],
                    detail=record.get("detail"))
                self.large_objects[entry.oid] = entry
            elif action == "drop_lo":
                self.large_objects.pop(record["oid"], None)
            elif action == "oid_hwm":
                self._oid_reserved = max(self._oid_reserved, record["upto"])
        self._next_oid = max(self._next_oid, self._oid_reserved)

    # -- oid allocation ----------------------------------------------------------------

    def allocate_oid(self) -> int:
        """A fresh oid, never reused even across crashes or threads."""
        with self._oid_mutex:
            oid = self._next_oid
            if oid >= self._oid_reserved:
                self._oid_reserved = oid + _OID_BATCH
                self.journal.append({"action": "oid_hwm",
                                     "upto": self._oid_reserved})
            self._next_oid += 1
            return oid

    # -- classes ------------------------------------------------------------------------

    def add_relation(self, name: str, schema: Schema,
                     smgr_name: str, fileid: str) -> RelationEntry:
        if name in self.relations:
            raise DuplicateRelation(f"class {name!r} already exists")
        entry = RelationEntry(name=name, schema=schema,
                              smgr_name=smgr_name, fileid=fileid)
        self.relations[name] = entry
        self.journal.append({"action": "create_class", "name": name,
                             "schema": schema.to_dict(),
                             "smgr": smgr_name, "fileid": fileid})
        return entry

    def get_relation(self, name: str) -> RelationEntry:
        entry = self.relations.get(name)
        if entry is None:
            raise RelationNotFound(f"no class named {name!r}")
        return entry

    def drop_relation(self, name: str) -> RelationEntry:
        entry = self.get_relation(name)
        del self.relations[name]
        self.journal.append({"action": "drop_class", "name": name})
        return entry

    def relation_names(self) -> list[str]:
        return sorted(self.relations)

    # -- indexes -------------------------------------------------------------------------

    def add_index(self, name: str, relation: str, attribute: str,
                  fileid: str) -> IndexEntry:
        if name in self.indexes:
            raise DuplicateRelation(f"index {name!r} already exists")
        entry = IndexEntry(name=name, relation=relation,
                           attribute=attribute, fileid=fileid)
        self._set_index(entry)
        self.journal.append({"action": "create_index", "name": name,
                             "relation": relation, "attribute": attribute,
                             "fileid": fileid})
        return entry

    def drop_index(self, name: str) -> IndexEntry:
        entry = self._pop_index(name)
        if entry is None:
            raise RelationNotFound(f"no index named {name!r}")
        self.journal.append({"action": "drop_index", "name": name})
        return entry

    def indexes_on(self, relation: str) -> list[IndexEntry]:
        return list(self._indexes_on.get(relation, ()))

    def _set_index(self, entry: IndexEntry) -> None:
        self.indexes[entry.name] = entry
        self._indexes_on.setdefault(entry.relation, []).append(entry)

    def _pop_index(self, name: str) -> IndexEntry | None:
        entry = self.indexes.pop(name, None)
        if entry is not None:
            self._indexes_on[entry.relation].remove(entry)
            if not self._indexes_on[entry.relation]:   # keep no empty list
                del self._indexes_on[entry.relation]
        return entry

    # -- large objects ------------------------------------------------------------------------

    def add_large_object(self, oid: int, impl: str, smgr_name: str,
                         compression: str,
                         detail: dict | None = None) -> LargeObjectEntry:
        entry = LargeObjectEntry(oid=oid, impl=impl, smgr_name=smgr_name,
                                 compression=compression, detail=detail)
        self.large_objects[oid] = entry
        self.journal.append({"action": "create_lo", "oid": oid,
                             "impl": impl, "smgr": smgr_name,
                             "compression": compression,
                             "detail": detail})
        return entry

    def get_large_object(self, oid: int) -> LargeObjectEntry:
        entry = self.large_objects.get(oid)
        if entry is None:
            raise LargeObjectNotFound(f"no large object with oid {oid}")
        return entry

    def drop_large_object(self, oid: int) -> LargeObjectEntry:
        entry = self.get_large_object(oid)
        del self.large_objects[oid]
        self.journal.append({"action": "drop_lo", "oid": oid})
        return entry
