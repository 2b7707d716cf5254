"""Tests for logical dump/restore and the `.all` projection."""

import json

import pytest

from repro.db import Database
from repro.tools import dump_database, restore_database


@pytest.fixture
def db():
    database = Database()
    yield database
    database.close()


def build_source(db):
    db.execute('create large type image '
               '(storage = v-segment, compression = "zero-rle")')
    db.execute('create EMP (name = text, empno = int4, picture = image)')
    db.execute('define index emp_no on EMP (empno)')
    db.execute('create PLAIN (label = text, weight = float8, '
               'blob = bytea)')
    txn = db.begin()
    for i, name in enumerate(("Joe", "Mike")):
        designator = db.lo.create_for_type(txn, "image")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(name.encode() * 1000 + bytes(4000))
        db.execute(f'append EMP (name = "{name}", empno = {i}, '
                   f'picture = "{designator}")', txn)
    db.insert(txn, "PLAIN", ("thing", 2.5, b"\x00\x01\x02"))
    txn.commit()


class TestDumpRestore:
    def test_roundtrip(self, db, tmp_path):
        build_source(db)
        summary = dump_database(db, str(tmp_path / "dump"))
        assert summary == {"classes": 2, "tuples": 3, "objects": 2}

        fresh = Database()
        try:
            restored = restore_database(fresh, str(tmp_path / "dump"))
            assert restored["tuples"] == 3
            rows = sorted(
                (n, e) for n, e, _p in
                (t.values for t in fresh.scan("EMP")))
            assert rows == [("Joe", 0), ("Mike", 1)]
            # Large objects were re-created with fresh designators and
            # identical contents.
            for tup in fresh.scan("EMP"):
                name, _empno, designator = tup.values
                with fresh.lo.open(designator) as obj:
                    assert obj.read(4) == name.encode()[:4] \
                        or obj.read(0) == b""
                    obj.seek(0)
                    data = obj.read()
                assert data == name.encode() * 1000 + bytes(4000)
                assert fresh.lo.implementation(designator) == "vsegment"
            # Bytea survived the JSON encoding.
            plain = next(fresh.scan("PLAIN"))
            assert plain.values == ("thing", 2.5, b"\x00\x01\x02")
            # Indexes were rebuilt.
            assert len(fresh.index_lookup("emp_no", 1)) == 1
            assert fresh.check_integrity() == []
        finally:
            fresh.close()

    def test_point_in_time_dump(self, db, tmp_path):
        db.execute('create T (v = int4)')
        db.execute('append T (v = 1)')
        stamp = db.clock.now()
        db.execute('replace T (v = 2)')
        dump_database(db, str(tmp_path / "old"), as_of=stamp)
        fresh = Database()
        try:
            restore_database(fresh, str(tmp_path / "old"))
            assert [t.values for t in fresh.scan("T")] == [(1,)]
        finally:
            fresh.close()

    def test_internal_classes_excluded(self, db, tmp_path):
        build_source(db)
        import json
        dump_database(db, str(tmp_path / "dump"))
        with open(tmp_path / "dump" / "schema.json") as fh:
            schema = json.load(fh)
        names = {c["name"] for c in schema["classes"]}
        assert names == {"EMP", "PLAIN"}  # no lo_* / pg_* classes


def build_every_kind(db):
    """A class holding one object of each stored kind: f-chunk and
    v-segment (compressed) and a native p-file."""
    db.execute('create large type fimg '
               '(storage = f-chunk, compression = "zero-rle")')
    db.execute('create large type vimg '
               '(storage = v-segment, compression = "zero-rle")')
    db.execute('create large type pimg (storage = p-file)')
    db.execute('create KINDS (f = fimg, v = vimg, p = pimg)')
    with db.begin() as txn:
        designators = []
        for n, type_name in enumerate(("fimg", "vimg", "pimg")):
            designator = db.lo.create_for_type(txn, type_name)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(bytes([n + 1]) * 3000 + bytes(3000))
            designators.append(designator)
        db.insert(txn, "KINDS", tuple(designators))


class TestDumpReadsNoSize:
    def test_manifest_is_the_same_without_a_size(self, db, tmp_path,
                                                 monkeypatch):
        """The dump reads each object's bytes and its catalog entry;
        asking for a size (a size-row probe, a native file open) would
        only be thrown away."""
        from repro.lo.manager import LargeObjectManager

        build_every_kind(db)
        dump_database(db, str(tmp_path / "sized"))

        def no_size(self, designator, snapshot):
            raise AssertionError(f"size of {designator} asked for")

        monkeypatch.setattr(LargeObjectManager, "size", no_size)
        summary = dump_database(db, str(tmp_path / "unsized"))
        assert summary["objects"] == 3
        for name in ("objects.json", "data.jsonl", "schema.json"):
            assert ((tmp_path / "unsized" / name).read_bytes()
                    == (tmp_path / "sized" / name).read_bytes())
        manifest = json.loads(
            (tmp_path / "unsized" / "objects.json").read_text())
        assert sorted((entry["impl"], entry["compression"])
                      for entry in manifest.values()) == [
            ("fchunk", "zero-rle"), ("pfile", "none"),
            ("vsegment", "zero-rle")]


class TestAllProjection:
    def test_dot_all_expands(self, db):
        db.execute('create EMP (name = text, age = int4)')
        db.execute('append EMP (name = "Joe", age = 30)')
        result = db.execute('retrieve (EMP.all)')
        assert result.columns == ["name", "age"]
        assert result.rows == [("Joe", 30)]

    def test_all_mixes_with_other_targets(self, db):
        db.execute('create EMP (name = text, age = int4)')
        db.execute('append EMP (name = "Joe", age = 30)')
        result = db.execute(
            'retrieve (doubled = EMP.age * 2, EMP.all)')
        assert result.columns == ["doubled", "name", "age"]
        assert result.rows == [(60, "Joe", 30)]

    def test_all_with_qualification(self, db):
        db.execute('create EMP (name = text, age = int4)')
        db.execute('append EMP (name = "Joe", age = 30)')
        db.execute('append EMP (name = "Sam", age = 50)')
        result = db.execute('retrieve (EMP.all) where EMP.age > 40')
        assert result.rows == [("Sam", 50)]

    def test_class_with_attribute_named_all(self, db):
        """A real attribute called 'all' wins over the expansion."""
        db.execute('create W (v = int4)')
        # 'all' expansion only fires for the magic attribute name when it
        # is not a real column; with a real column it must project it.
        db.execute('destroy W')
        db.execute('create W (all = int4)')
        db.execute('append W (all = 7)')
        result = db.execute('retrieve (W.all)')
        # Expansion still fires (POSTQUEL semantics); the single column
        # is the 'all' attribute itself.
        assert result.rows == [(7,)]
