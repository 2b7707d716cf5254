"""Unit tests for the catalog and its journal."""

import pytest

from repro.access.schema import Attribute, Schema
from repro.catalog import Catalog, CatalogJournal
from repro.errors import (
    DuplicateRelation,
    LargeObjectNotFound,
    RelationNotFound,
)


def schema():
    return Schema([Attribute("a", "int4"), Attribute("b", "text")])


@pytest.fixture
def catalog():
    return Catalog(CatalogJournal())


class TestRelations:
    def test_add_get(self, catalog):
        catalog.add_relation("EMP", schema(), "disk", "heap_EMP")
        entry = catalog.get_relation("EMP")
        assert entry.smgr_name == "disk"
        assert entry.schema == schema()

    def test_duplicate_rejected(self, catalog):
        catalog.add_relation("EMP", schema(), "disk", "f")
        with pytest.raises(DuplicateRelation):
            catalog.add_relation("EMP", schema(), "disk", "f")

    def test_missing_rejected(self, catalog):
        with pytest.raises(RelationNotFound):
            catalog.get_relation("GHOST")

    def test_drop(self, catalog):
        catalog.add_relation("EMP", schema(), "disk", "f")
        catalog.drop_relation("EMP")
        with pytest.raises(RelationNotFound):
            catalog.get_relation("EMP")

    def test_names_sorted(self, catalog):
        catalog.add_relation("Z", schema(), "disk", "z")
        catalog.add_relation("A", schema(), "disk", "a")
        assert catalog.relation_names() == ["A", "Z"]


class TestIndexes:
    def test_add_and_query(self, catalog):
        catalog.add_relation("EMP", schema(), "disk", "f")
        catalog.add_index("emp_a", "EMP", "a", "btree_emp_a")
        assert [e.name for e in catalog.indexes_on("EMP")] == ["emp_a"]
        assert catalog.indexes_on("OTHER") == []

    def test_drop_missing(self, catalog):
        with pytest.raises(RelationNotFound):
            catalog.drop_index("nope")

    def test_indexes_on_equals_a_scan_of_every_index(self, tmp_path):
        """``indexes_on`` answers from a per-relation map (ISSUE 22): it
        must say what the scan over ``catalog.indexes`` says, through
        creates, drops, a relation dropped with and without its indexes,
        and a reopen that rebuilds the map from the journal."""
        def check(db):
            catalog = db.catalog
            for relation in [*catalog.relations, "dropped", "never"]:
                assert catalog.indexes_on(relation) == [
                    entry for entry in catalog.indexes.values()
                    if entry.relation == relation], relation
            # No empty list is kept for a relation without indexes.
            assert all(catalog._indexes_on.values())

        from repro.db import Database
        path = str(tmp_path / "db")
        with Database(path) as db:
            for name in ("one", "two", "dropped"):
                db.create_class(name, [("a", "int4"), ("b", "int4")])
                db.create_index(f"{name}_a", name, "a")
                db.create_index(f"{name}_b", name, "b")
                check(db)
            db.drop_index("one_a")
            check(db)
            db.drop_class("dropped")
            check(db)
            db.create_index("one_a", "one", "a")   # back, now after one_b
            db.catalog.drop_relation("two")        # its indexes stay behind
            check(db)
            assert [e.name for e in db.catalog.indexes_on("one")] == [
                "one_b", "one_a"]
            assert db.catalog.indexes_on("dropped") == []
        with Database(path) as db:
            check(db)
            assert [e.name for e in db.catalog.indexes_on("two")] == [
                "two_a", "two_b"]
            # The answer is the caller's to mutate (drop_class drops
            # indexes while walking it).
            db.catalog.indexes_on("one").clear()
            assert len(db.catalog.indexes_on("one")) == 2


class TestLargeObjects:
    def test_add_get_drop(self, catalog):
        catalog.add_large_object(42, "fchunk", "disk", "zlib")
        entry = catalog.get_large_object(42)
        assert entry.impl == "fchunk"
        assert entry.compression == "zlib"
        catalog.drop_large_object(42)
        with pytest.raises(LargeObjectNotFound):
            catalog.get_large_object(42)

    def test_detail_roundtrip(self, catalog):
        catalog.add_large_object(1, "vsegment", "disk", "none",
                                 detail={"store_oid": 2})
        assert catalog.get_large_object(1).detail == {"store_oid": 2}


class TestOids:
    def test_unique_and_increasing(self, catalog):
        oids = [catalog.allocate_oid() for _ in range(300)]
        assert oids == sorted(set(oids))

    def test_never_reused_across_reopen(self, tmp_path):
        path = str(tmp_path / "journal")
        first = Catalog(CatalogJournal(path))
        used = [first.allocate_oid() for _ in range(5)]
        first.journal.close()
        second = Catalog(CatalogJournal(path))
        assert second.allocate_oid() > max(used)


class TestJournalReplay:
    def test_full_roundtrip(self, tmp_path):
        path = str(tmp_path / "journal")
        first = Catalog(CatalogJournal(path))
        first.add_relation("EMP", schema(), "worm", "heap_EMP")
        first.add_index("emp_a", "EMP", "a", "btree_emp_a")
        first.add_large_object(1001, "vsegment", "disk", "zero-rle",
                               detail={"store_oid": 1000})
        first.add_relation("DOOMED", schema(), "disk", "d")
        first.drop_relation("DOOMED")
        first.journal.close()

        second = Catalog(CatalogJournal(path))
        assert second.get_relation("EMP").smgr_name == "worm"
        assert second.indexes["emp_a"].attribute == "a"
        assert second.get_large_object(1001).detail == {"store_oid": 1000}
        with pytest.raises(RelationNotFound):
            second.get_relation("DOOMED")

    def test_torn_tail_ignored(self, tmp_path):
        path = str(tmp_path / "journal")
        first = Catalog(CatalogJournal(path))
        first.add_relation("KEEP", schema(), "disk", "k")
        first.journal.close()
        with open(path, "ab") as fh:
            fh.write(b'{"action": "create_class", "name": "TORN"')
        second = Catalog(CatalogJournal(path))
        assert second.get_relation("KEEP")
        with pytest.raises(RelationNotFound):
            second.get_relation("TORN")

    def test_corrupt_middle_stops_replay_safely(self, tmp_path):
        path = str(tmp_path / "journal")
        with open(path, "wb") as fh:
            fh.write(b'{"action": "create_class", "name": "A", '
                     b'"schema": [{"name": "x", "type": "int4", '
                     b'"storage": ""}], "smgr": "disk", "fileid": "a"}\n')
            fh.write(b"not json at all\n")
            fh.write(b'{"action": "create_class", "name": "B", '
                     b'"schema": [], "smgr": "disk", "fileid": "b"}\n')
        catalog = Catalog(CatalogJournal(path))
        assert "A" in catalog.relations
        assert "B" not in catalog.relations  # replay stopped at corruption

    def test_memory_journal_replays_nothing(self):
        journal = CatalogJournal()
        journal.append({"action": "create_class"})  # no-op without a path
        assert list(journal.replay()) == []
