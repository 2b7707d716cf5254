"""Tests for the mini-POSTQUEL query language."""

import pytest

from repro.db import Database
from repro.errors import (
    ExecutionError,
    ParseError,
    UnknownFunction,
)


@pytest.fixture
def db():
    database = Database()
    yield database
    database.close()


@pytest.fixture
def emp(db):
    db.execute('create EMP (name = text, salary = float8, age = int4)')
    db.execute('append EMP (name = "Joe", salary = 1000.0, age = 30)')
    db.execute('append EMP (name = "Mike", salary = 2000.0, age = 40)')
    db.execute('append EMP (name = "Sam", salary = 1500.0, age = 50)')
    return db


class TestLexerParser:
    def test_unterminated_string(self, db):
        with pytest.raises(ParseError):
            db.execute('retrieve (EMP.name) where EMP.name = "oops')

    def test_unknown_statement(self, db):
        with pytest.raises(ParseError):
            db.execute('frobnicate EMP')

    def test_trailing_garbage(self, db):
        with pytest.raises(ParseError):
            db.execute('destroy EMP extra')

    def test_error_carries_location(self, db):
        with pytest.raises(ParseError) as info:
            db.execute('retrieve (EMP.)')
        assert "line 1" in str(info.value)


class TestCreateAppendRetrieve:
    def test_basic_roundtrip(self, emp):
        result = emp.execute('retrieve (EMP.name) where EMP.age = 40')
        assert result.rows == [("Mike",)]
        assert result.columns == ["name"]

    def test_multiple_targets(self, emp):
        result = emp.execute(
            'retrieve (EMP.name, EMP.salary) where EMP.name = "Joe"')
        assert result.rows == [("Joe", 1000.0)]

    def test_named_target(self, emp):
        result = emp.execute('retrieve (who = EMP.name) where EMP.age < 35')
        assert result.columns == ["who"]

    def test_comparisons(self, emp):
        assert emp.execute(
            'retrieve (EMP.name) where EMP.age >= 40').count == 2
        assert emp.execute(
            'retrieve (EMP.name) where EMP.age != 40').count == 2
        assert emp.execute(
            'retrieve (EMP.name) where EMP.salary <= 1500.0').count == 2

    def test_boolean_connectives(self, emp):
        result = emp.execute(
            'retrieve (EMP.name) where EMP.age > 30 and EMP.salary < 1800.0')
        assert result.rows == [("Sam",)]
        result = emp.execute(
            'retrieve (EMP.name) where EMP.age = 30 or EMP.age = 50')
        assert result.count == 2
        result = emp.execute(
            'retrieve (EMP.name) where not EMP.age = 30')
        assert result.count == 2

    def test_arithmetic_in_targets(self, emp):
        result = emp.execute(
            'retrieve (double = EMP.salary * 2.0) where EMP.name = "Joe"')
        assert result.scalar() == 2000.0

    def test_arithmetic_in_qual(self, emp):
        result = emp.execute(
            'retrieve (EMP.name) where EMP.salary + 500.0 = 2000.0')
        assert result.rows == [("Sam",)]

    def test_unary_minus(self, emp):
        result = emp.execute(
            'retrieve (x = EMP.age * -1) where EMP.name = "Joe"')
        assert result.scalar() == -30

    def test_builtin_function(self, emp):
        result = emp.execute(
            'retrieve (n = length(EMP.name)) where EMP.name = "Mike"')
        assert result.scalar() == 4

    def test_retrieve_without_class(self, db):
        result = db.execute('retrieve (x = abs(-5))')
        assert result.scalar() == 5

    def test_unknown_function(self, emp):
        with pytest.raises(UnknownFunction):
            emp.execute('retrieve (frob(EMP.name))')

    def test_joins_rejected(self, emp):
        emp.execute('create DEPT (dname = text)')
        with pytest.raises(ExecutionError):
            emp.execute('retrieve (EMP.name, DEPT.dname)')


class TestReplaceDelete:
    def test_replace(self, emp):
        count = emp.execute(
            'replace EMP (salary = EMP.salary + 100.0) '
            'where EMP.name = "Joe"').count
        assert count == 1
        assert emp.execute(
            'retrieve (EMP.salary) where EMP.name = "Joe"').scalar() == 1100.0

    def test_replace_all(self, emp):
        assert emp.execute('replace EMP (age = EMP.age + 1)').count == 3

    def test_delete(self, emp):
        assert emp.execute('delete EMP where EMP.age > 35').count == 2
        assert emp.execute('retrieve (EMP.name)').rows == [("Joe",)]

    def test_delete_all(self, emp):
        assert emp.execute('delete EMP').count == 3

    def test_destroy(self, emp):
        emp.execute('destroy EMP')
        from repro.errors import RelationNotFound
        with pytest.raises(RelationNotFound):
            emp.execute('retrieve (EMP.name)')


class TestTransactionsInQl:
    def test_statement_atomicity(self, emp):
        """A failing statement run standalone leaves no changes."""
        from repro.errors import CastError
        with pytest.raises((ExecutionError, CastError)):
            emp.execute('replace EMP (salary = EMP.name) where EMP.age = 30')
        # Nothing was half-replaced (the statement's txn aborted).
        assert emp.execute(
            'retrieve (EMP.salary) where EMP.name = "Joe"').scalar() == 1000.0

    def test_a_failed_statement_ends_its_own_transaction(self, emp):
        """A statement run without a transaction gets one of its own, and
        its error aborts it: nothing stays active and no lock stays held.
        This is R005's runtime witness (``Executor._run``'s abort)."""
        from repro.errors import CastError, RelationNotFound
        for statement, error in (
                ('append NOPE (name = "x")', RelationNotFound),
                ('replace EMP (salary = EMP.name) where EMP.age = 30',
                 (ExecutionError, CastError))):
            with pytest.raises(error):
                emp.execute(statement)
            assert emp.tm.active_count() == 0, (
                f"{statement!r} leaked its transaction")
            assert emp.locks.grant_table_empty(), statement

    def test_explicit_transaction_spans_statements(self, emp):
        txn = emp.begin()
        emp.execute('append EMP (name = "Tmp", salary = 1.0, age = 1)', txn)
        emp.execute('append EMP (name = "Tmp2", salary = 2.0, age = 2)', txn)
        txn.abort()
        assert emp.execute('retrieve (EMP.name)').count == 3


class TestTimeTravelSyntax:
    def test_from_class_as_of(self, emp):
        t1 = emp.clock.now()
        emp.execute('replace EMP (salary = 9999.0) where EMP.name = "Joe"')
        result = emp.execute(
            f'retrieve (EMP.salary) from EMP["{t1}"] '
            f'where EMP.name = "Joe"')
        assert result.scalar() == 1000.0

    def test_epoch_and_now(self, emp):
        assert emp.execute(
            'retrieve (EMP.name) from EMP["epoch"]').count == 0
        assert emp.execute(
            'retrieve (EMP.name) from EMP["now"]').count == 3

    def test_full_history_range(self, emp):
        result = emp.execute(
            'retrieve (EMP.name) from EMP["epoch", "now"]')
        assert result.count == 3  # three rows, one version each


class TestCastsAndADTs:
    def test_rect_cast(self, db):
        db.register_function(
            "area", ("rect",), "float8",
            lambda r: abs((r[2] - r[0]) * (r[3] - r[1])))
        result = db.execute('retrieve (a = area("0,0,20,10"::rect))')
        assert result.scalar() == 200.0

    def test_custom_adt_column(self, db):
        db.execute('create BOX (label = text, bounds = rect)')
        db.execute('append BOX (label = "b1", bounds = "1,2,3,4")')
        result = db.execute('retrieve (BOX.bounds) where BOX.label = "b1"')
        assert result.scalar() == (1.0, 2.0, 3.0, 4.0)


class TestLargeADTsInQl:
    """The paper's end-to-end story: §4 and §5."""

    def setup_image_type(self, db, storage="f-chunk"):
        db.execute(f'create large type image (storage = {storage})')
        db.execute('create PHOTOS (name = text, picture = image)')

    def test_paper_section4_flow(self, db):
        """retrieve a designator, then open/seek/read it."""
        self.setup_image_type(db)
        txn = db.begin()
        designator = db.lo.create_for_type(txn, "image")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"JFIF....image bytes....")
        db.execute(
            f'append PHOTOS (name = "Joe", picture = "{designator}")', txn)
        txn.commit()

        result = db.execute(
            'retrieve (PHOTOS.picture) where PHOTOS.name = "Joe"')
        fetched = result.scalar()
        with db.lo.open(fetched) as obj:
            obj.seek(8)
            assert obj.read(5) == b"image"

    def test_newfilename_flow(self, db):
        """§6.2's insert protocol, verbatim."""
        self.setup_image_type(db)
        txn = db.begin()
        result = db.execute('retrieve (result = newfilename())', txn)
        designator = result.scalar()
        db.execute(
            f'append PHOTOS (name = "Joe", picture = "{designator}")', txn)
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"pfile contents")
        txn.commit()
        assert designator.startswith("pg_pfiles/")
        with db.lo.open(designator) as obj:
            assert obj.read() == b"pfile contents"

    def register_clip(self, db):
        """The paper's §5 function: clip(image, rect) -> image."""
        def clip(ctx, picture, rect):
            out = ctx.create_temporary_for_type("image")
            width = int(rect[2] - rect[0])
            picture.seek(int(rect[0]))
            with ctx.open(out, "rw") as target:
                target.write(picture.read(width))
            return out

        db.register_function("clip", ("image", "rect"), "image", clip,
                             needs_context=True)

    def store_photo(self, db, name, payload):
        txn = db.begin()
        designator = db.lo.create_for_type(txn, "image")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(payload)
        db.execute(
            f'append PHOTOS (name = "{name}", picture = "{designator}")',
            txn)
        txn.commit()
        return designator

    def test_paper_section5_clip(self, db):
        """retrieve (clip(EMP.picture, "0,0,20,20"::rect)) where ..."""
        self.setup_image_type(db)
        self.register_clip(db)
        self.store_photo(db, "Mike", b"0123456789abcdefghij_tail")
        result = db.execute(
            'retrieve (clip(PHOTOS.picture, "5,0,15,20"::rect)) '
            'where PHOTOS.name = "Mike"')
        clipped = result.scalar()
        assert clipped.startswith("lo:")
        with db.lo.open(clipped) as obj:
            assert obj.read() == b"56789abcde"
        # The result temporary was kept for the caller...
        assert result.temporaries == {clipped}
        assert db.lo.exists(clipped)

    def test_intermediate_temporaries_collected(self, db):
        """clip(clip(x)) garbage-collects the inner temporary (§5)."""
        self.setup_image_type(db)
        self.register_clip(db)
        self.store_photo(db, "Mike", b"0123456789abcdefghij")
        created_before = set(db.catalog.large_objects)
        result = db.execute(
            'retrieve (clip(clip(PHOTOS.picture, "0,0,10,0"::rect), '
            '"2,0,6,0"::rect)) where PHOTOS.name = "Mike"')
        clipped = result.scalar()
        with db.lo.open(clipped) as obj:
            assert obj.read() == b"2345"
        survivors = set(db.catalog.large_objects) - created_before
        # Only the final result (and, for v-segment, its store) survive.
        final_oid = int(clipped[3:])
        assert final_oid in survivors
        inner = [oid for oid in survivors if oid != final_oid]
        assert len(inner) == 0

    def test_temporary_stored_into_class_is_kept(self, db):
        """append of a function result keeps the temporary (§5)."""
        self.setup_image_type(db)
        self.register_clip(db)
        self.store_photo(db, "Mike", b"0123456789")
        txn = db.begin()
        result = db.execute(
            'retrieve (c = clip(PHOTOS.picture, "0,0,4,0"::rect)) '
            'where PHOTOS.name = "Mike"', txn)
        clipped = result.scalar()
        db.execute(
            f'append PHOTOS (name = "MikeThumb", picture = "{clipped}")',
            txn)
        txn.commit()
        stored = db.execute(
            'retrieve (PHOTOS.picture) where PHOTOS.name = "MikeThumb"'
        ).scalar()
        with db.lo.open(stored) as obj:
            assert obj.read() == b"0123"

    def test_create_with_storage_manager_clause(self, db):
        db.execute('create ARCHIVE (label = text) '
                   'with storage manager "memory"')
        db.execute('append ARCHIVE (label = "x")')
        assert db.execute('retrieve (ARCHIVE.label)').count == 1

    def test_create_large_type_spellings(self, db):
        db.execute('create large type thumb '
                   '(storage = v-segment, compression = "zero-rle")')
        definition = db.types.get("thumb")
        assert definition.storage == "vsegment"
        assert definition.compression == "zero-rle"


class TestDefineIndex:
    def test_define_and_probe(self, emp):
        emp.execute('create NUM (name = text, n = int4)')
        emp.execute('define index num_n on NUM (n)')
        with emp.begin() as txn:
            for i in range(100):
                emp.execute(f'append NUM (name = "r{i}", n = {i})', txn)
        result = emp.execute('retrieve (NUM.name) where NUM.n = 42')
        assert result.rows == [("r42",)]

    def test_index_probe_actually_used(self, db):
        """The equality probe must touch far fewer tuples than a scan."""
        db.execute('create NUM (name = text, n = int4)')
        db.execute('define index num_n on NUM (n)')
        with db.begin() as txn:
            for i in range(300):
                # Fat rows so the class spans many pages.
                db.insert(txn, "NUM", (f"r{i}" + "x" * 400, i))
        before = db.bufmgr.stats.hits + db.bufmgr.stats.misses
        db.execute('retrieve (NUM.n) where NUM.n = 7')
        probe_cost = db.bufmgr.stats.hits + db.bufmgr.stats.misses - before
        before = db.bufmgr.stats.hits + db.bufmgr.stats.misses
        # != is not indexable, so this one walks the heap.
        db.execute('retrieve (NUM.n) where NUM.n != 7')
        scan_cost = db.bufmgr.stats.hits + db.bufmgr.stats.misses - before
        assert probe_cost < scan_cost / 3

    def test_probe_with_conjunction(self, db):
        db.execute('create NUM (name = text, n = int4)')
        db.execute('define index num_n on NUM (n)')
        with db.begin() as txn:
            db.insert(txn, "NUM", ("keep", 5))
            db.insert(txn, "NUM", ("drop", 5))
        result = db.execute(
            'retrieve (NUM.name) where NUM.n = 5 and NUM.name = "keep"')
        assert result.rows == [("keep",)]

    def test_probe_respects_time_travel(self, db):
        db.execute('create NUM (n = int4)')
        db.execute('define index num_n on NUM (n)')
        t0 = db.clock.now()
        db.execute('append NUM (n = 1)')
        result = db.execute(f'retrieve (NUM.n) from NUM["{t0}"] '
                            f'where NUM.n = 1')
        assert result.count == 0  # heap scan, not a stale index shortcut


class TestRetrieveInto:
    def test_materializes_result(self, emp):
        emp.execute('retrieve into RICH (EMP.name, EMP.salary) '
                    'where EMP.salary > 1200.0')
        rows = sorted(emp.execute('retrieve (RICH.name)').rows)
        assert rows == [("Mike",), ("Sam",)]

    def test_types_inferred_from_source(self, emp):
        emp.execute('retrieve into COPY (EMP.name, EMP.age)')
        schema = emp.get_class("COPY").schema
        assert schema.attribute("name").type_name == "text"
        assert schema.attribute("age").type_name == "int4"

    def test_computed_columns(self, emp):
        emp.execute('retrieve into DOUBLED (name = EMP.name, '
                    'pay = EMP.salary * 2.0)')
        rows = dict(emp.execute('retrieve (DOUBLED.name, DOUBLED.pay)').rows)
        assert rows["Joe"] == 2000.0

    def test_empty_result_still_creates_class(self, emp):
        emp.execute('retrieve into NONE_SUCH (EMP.name) '
                    'where EMP.age > 999')
        assert emp.execute('retrieve (NONE_SUCH.name)').count == 0


class TestScripts:
    def test_execute_script(self, db):
        results = db.execute_script('''
            create PETS (name = text, legs = int4);
            append PETS (name = "rex", legs = 4);
            append PETS (name = "tweety", legs = 2);
            retrieve (PETS.name) where PETS.legs = 4
        ''')
        assert len(results) == 4
        assert results[-1].rows == [("rex",)]

    def test_script_is_atomic(self, db):
        db.execute('create T (n = int4)')
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            db.execute_script('''
                append T (n = 1);
                append T (n = "not a number")
            ''')
        assert db.execute('retrieve (T.n)').count == 0

    def test_trailing_semicolon_ok(self, db):
        db.execute('create T (n = int4);')
        assert db.execute('retrieve (T.n);').count == 0


class TestTimeRangeQueries:
    """POSTQUEL interval semantics: EMP["t1","t2"] yields every version
    alive at any point in the interval."""

    def test_range_returns_all_versions(self, db):
        db.execute('create H (v = int4)')
        db.execute('append H (v = 1)')
        t1 = db.clock.now()
        db.execute('replace H (v = 2)')
        db.execute('replace H (v = 3)')
        t2 = db.clock.now()
        rows = sorted(db.execute(
            f'retrieve (H.v) from H["{t1}", "{t2}"]').rows)
        assert rows == [(1,), (2,), (3,)]

    def test_point_query_returns_one_version(self, db):
        db.execute('create H (v = int4)')
        db.execute('append H (v = 1)')
        t1 = db.clock.now()
        db.execute('replace H (v = 2)')
        assert db.execute(f'retrieve (H.v) from H["{t1}"]').rows == [(1,)]

    def test_epoch_to_now_is_full_history(self, db):
        db.execute('create H (v = int4)')
        db.execute('append H (v = 1)')
        db.execute('replace H (v = 2)')
        db.execute('delete H')
        rows = sorted(db.execute(
            'retrieve (H.v) from H["epoch", "now"]').rows)
        assert rows == [(1,), (2,)]
        assert db.execute('retrieve (H.v)').count == 0

    def test_range_excludes_versions_outside(self, db):
        db.execute('create H (v = int4)')
        db.execute('append H (v = 1)')
        db.execute('replace H (v = 2)')
        t1 = db.clock.now()
        db.execute('replace H (v = 3)')
        t2 = db.clock.now()
        db.execute('replace H (v = 4)')
        rows = sorted(db.execute(
            f'retrieve (H.v) from H["{t1}", "{t2}"]').rows)
        # v=1 died before t1; v=4 born after t2; v=2 alive at t1, v=3 at t2.
        assert rows == [(2,), (3,)]

    def test_range_api_on_scan(self, db):
        db.create_class("H", [("v", "int4")])
        with db.begin() as txn:
            tid = db.insert(txn, "H", (1,))
        t1 = db.clock.now()
        with db.begin() as txn:
            db.replace(txn, "H", tid, (2,))
        t2 = db.clock.now()
        rows = sorted(t.values for t in db.scan("H", as_of=t1, until=t2))
        assert rows == [(1,), (2,)]


class TestSortBy:
    def test_ascending_default(self, emp):
        rows = emp.execute(
            'retrieve (EMP.name) sort by EMP.age').rows
        assert rows == [("Joe",), ("Mike",), ("Sam",)]

    def test_descending(self, emp):
        rows = emp.execute(
            'retrieve (EMP.name) sort by EMP.age >').rows
        assert rows == [("Sam",), ("Mike",), ("Joe",)]

    def test_multi_key(self, db):
        db.execute('create G (a = int4, b = int4)')
        for a, b in [(1, 2), (2, 1), (1, 1), (2, 2)]:
            db.execute(f'append G (a = {a}, b = {b})')
        rows = db.execute(
            'retrieve (G.a, G.b) sort by G.a, G.b >').rows
        assert rows == [(1, 2), (1, 1), (2, 2), (2, 1)]

    def test_sort_with_qualification(self, emp):
        rows = emp.execute(
            'retrieve (EMP.name) where EMP.age > 30 '
            'sort by EMP.salary >').rows
        assert rows == [("Mike",), ("Sam",)]

    def test_sort_by_expression(self, emp):
        rows = emp.execute(
            'retrieve (EMP.name) sort by EMP.salary * -1.0').rows
        assert rows == [("Mike",), ("Sam",), ("Joe",)]


class TestAggregates:
    def test_count(self, emp):
        assert emp.execute('retrieve (count(EMP.name))').scalar() == 3

    def test_count_with_qual(self, emp):
        result = emp.execute(
            'retrieve (n = count(EMP.name)) where EMP.age > 35')
        assert result.columns == ["n"]
        assert result.scalar() == 2

    def test_sum_avg_min_max(self, emp):
        result = emp.execute(
            'retrieve (s = sum(EMP.salary), a = avg(EMP.salary), '
            'lo = min(EMP.age), hi = max(EMP.age))')
        s, a, lo, hi = result.rows[0]
        assert s == 4500.0
        assert a == 1500.0
        assert (lo, hi) == (30, 50)

    def test_empty_aggregates(self, emp):
        result = emp.execute(
            'retrieve (c = count(EMP.name), s = sum(EMP.salary), '
            'a = avg(EMP.salary)) where EMP.age > 999')
        assert result.rows == [(0, 0, None)]

    def test_aggregate_over_expression(self, emp):
        assert emp.execute(
            'retrieve (sum(EMP.salary * 2.0))').scalar() == 9000.0

    def test_mixing_rejected(self, emp):
        with pytest.raises(ExecutionError):
            emp.execute('retrieve (EMP.name, count(EMP.name))')

    def test_aggregate_needs_class(self, db):
        with pytest.raises(ExecutionError):
            db.execute('retrieve (count(1))')

    def test_aggregate_in_time_travel(self, emp):
        t0 = emp.clock.now()
        emp.execute('append EMP (name = "New", salary = 1.0, age = 1)')
        assert emp.execute(
            f'retrieve (count(EMP.name)) from EMP["{t0}"]').scalar() == 3
        assert emp.execute('retrieve (count(EMP.name))').scalar() == 4


class TestIndexRangeScan:
    @pytest.fixture
    def num(self, db):
        db.execute('create NUM (n = int4)')
        db.execute('define index num_n on NUM (n)')
        with db.begin() as txn:
            for i in range(100):
                db.insert(txn, 'NUM', (i,))
        return db

    def test_between_style_pair(self, num):
        result = num.execute(
            'retrieve (NUM.n) where NUM.n >= 10 and NUM.n <= 20')
        assert sorted(r[0] for r in result.rows) == list(range(10, 21))

    def test_strict_bounds_tightened(self, num):
        result = num.execute(
            'retrieve (NUM.n) where NUM.n > 10 and NUM.n < 20')
        assert sorted(r[0] for r in result.rows) == list(range(11, 20))

    def test_half_open_ranges(self, num):
        assert num.execute('retrieve (NUM.n) where NUM.n >= 95').count == 5
        assert num.execute('retrieve (NUM.n) where NUM.n < 5').count == 5

    def test_mirrored_operands(self, num):
        """``7 < NUM.n`` must read as ``NUM.n > 7``."""
        result = num.execute('retrieve (NUM.n) where 7 < NUM.n and 12 > NUM.n')
        assert sorted(r[0] for r in result.rows) == list(range(8, 12))

    def test_range_plan_in_explain(self, num):
        plan = num.explain('retrieve (NUM.n) where NUM.n >= 10 and NUM.n <= 20')
        assert "index range scan num_n on NUM.n in [10, 20]" in plan
        plan = num.explain('retrieve (NUM.n) where NUM.n >= 42')
        assert "index range scan num_n on NUM.n in [42, +inf]" in plan

    def test_unindexed_attribute_falls_back(self, db):
        db.execute('create PLAIN (n = int4)')
        with db.begin() as txn:
            for i in range(10):
                db.insert(txn, 'PLAIN', (i,))
        plan = db.explain('retrieve (PLAIN.n) where PLAIN.n >= 3')
        assert "sequential scan of PLAIN" in plan
        assert db.execute('retrieve (PLAIN.n) where PLAIN.n >= 3').count == 7

    def test_range_with_extra_conjunct_rechecks(self, num):
        """Non-range conjuncts still filter the fetched tuples."""
        result = num.execute(
            'retrieve (NUM.n) where NUM.n >= 10 and NUM.n <= 30 '
            'and NUM.n != 15')
        got = sorted(r[0] for r in result.rows)
        assert got == [n for n in range(10, 31) if n != 15]

    def test_range_sees_fresh_and_replaced_tuples(self, num):
        with num.begin() as txn:
            tup = next(t for t in num.scan('NUM', txn)
                       if t.values[0] == 50)
            num.replace(txn, 'NUM', tup.tid, (1000,))
        result = num.execute('retrieve (NUM.n) where NUM.n >= 999')
        assert result.rows == [(1000,)]
        assert num.execute(
            'retrieve (NUM.n) where NUM.n >= 50 and NUM.n <= 50').count == 0

    def test_range_probe_cheaper_than_scan(self, db):
        db.execute('create FAT (name = text, n = int4)')
        db.execute('define index fat_n on FAT (n)')
        with db.begin() as txn:
            for i in range(300):
                # Fat rows so the class spans many pages.
                db.insert(txn, "FAT", ("x" * 400, i))

        def cost(query):
            before = db.bufmgr.stats.hits + db.bufmgr.stats.misses
            db.execute(query)
            return db.bufmgr.stats.hits + db.bufmgr.stats.misses - before

        narrow = cost('retrieve (FAT.n) where FAT.n >= 1 and FAT.n <= 4')
        # != is not indexable, so this one walks every heap page.
        full = cost('retrieve (FAT.n) where FAT.n != 1')
        assert narrow < full / 3


class TestExplain:
    def test_scan_plan(self, emp):
        plan = emp.explain('retrieve (EMP.name) where EMP.salary > 1.0')
        assert "sequential scan of EMP" in plan
        assert "filter" in plan

    def test_index_probe_plan(self, db):
        db.execute('create NUM (n = int4)')
        db.execute('define index num_n on NUM (n)')
        plan = db.explain('retrieve (NUM.n) where NUM.n = 5')
        assert "index probe num_n" in plan

    @pytest.mark.parametrize("query, plan, counter", [
        ('retrieve (NUM.m) where NUM.n = 5', "index probe", "probes"),
        ('retrieve (NUM.m) where NUM.n >= 5', "index range scan",
         "range_scans"),
        # An equality is the range [key, key], and any range of one key
        # is a probe.
        ('retrieve (NUM.m) where NUM.n >= 5 and NUM.n <= 5', "index probe",
         "probes"),
        ('retrieve (NUM.m) where 5 = NUM.n and NUM.n > 2', "index probe",
         "probes"),
        ('retrieve (NUM.n) where NUM.m = 5', "sequential scan", None),
        ('retrieve (NUM.m) from NUM["{t}"] where NUM.n = 5',
         "sequential scan", None),
    ])
    def test_explain_names_the_path_execution_takes(self, db, query, plan,
                                                    counter):
        """One access-path decision: the plan's first line names the
        path whose counter the same query moves when it runs."""
        db.execute('create NUM (n = int4, m = int4)')
        db.execute('define index num_n on NUM (n)')
        with db.begin() as txn:
            for i in range(10):
                db.insert(txn, "NUM", (i, i))
        query = query.format(t=repr(db.clock.now()))
        assert db.explain(query).splitlines()[0].startswith(plan)
        before = db.statistics()["access"]
        assert db.execute(query).count >= 1
        after = db.statistics()["access"]
        moved = {key for key in ("probes", "range_scans")
                 if after[key] != before[key]}
        assert moved == ({counter} if counter else set())

    def test_an_index_narrowed_to_one_key_is_taken_first(self, db):
        db.execute('create NUM (n = int4, m = int4)')
        db.execute('define index num_n on NUM (n)')
        db.execute('define index num_m on NUM (m)')
        with db.begin() as txn:
            for i in range(10):
                db.insert(txn, "NUM", (i, i))
        query = 'retrieve (NUM.n) where NUM.n >= 2 and NUM.m = 5'
        assert db.explain(query).splitlines()[0] == (
            "index probe num_m on NUM.m = 5")
        assert db.execute(query).rows == [(5,)]
        query = 'retrieve (NUM.m) where NUM.n = 5 and NUM.n > 7'
        assert db.explain(query).splitlines()[0] == (
            "index range scan num_n on NUM.n in [8, 5]")
        assert db.execute(query).count == 0

    def test_time_travel_plan_never_probes(self, db):
        db.execute('create NUM (n = int4)')
        db.execute('define index num_n on NUM (n)')
        plan = db.explain('retrieve (NUM.n) from NUM["1.0"] '
                          'where NUM.n = 5')
        assert "sequential scan" in plan
        assert "as of 1" in plan

    def test_aggregate_and_sort_noted(self, emp):
        plan = emp.explain('retrieve (count(EMP.name))')
        assert "aggregate: count" in plan
        plan = emp.explain('retrieve (EMP.name) sort by EMP.age')
        assert "sort by 1 key(s)" in plan

    def test_into_noted(self, emp):
        plan = emp.explain('retrieve into COPY (EMP.name)')
        assert "materialize into new class COPY" in plan

    def test_utility_statement(self, emp):
        assert "utility" in emp.explain('destroy EMP')
