"""Edge-case coverage across subsystems that larger suites skim over."""

import pytest

from repro.db import Database
from repro.errors import (
    ExecutionError,
    LargeObjectError,
    SchemaError,
)


@pytest.fixture
def db():
    database = Database()
    yield database
    database.close()


class TestDatabaseOptions:
    def test_charge_cpu_off(self):
        db = Database(charge_cpu=False)
        try:
            db.create_class("T", [("v", "int4")])
            with db.begin() as txn:
                db.insert(txn, "T", (1,))
            # I/O still charges the clock; CPU does not.
            assert db.clock.elapsed_in("cpu") == 0.0
            assert db.clock.elapsed > 0.0
        finally:
            db.close()

    def test_context_manager_closes(self, tmp_path):
        with Database(str(tmp_path / "db")) as db:
            db.create_class("T", [("v", "int4")])
        reopened = Database(str(tmp_path / "db"))
        assert reopened.class_exists("T")
        reopened.close()

    def test_default_smgr_is_disk(self, db):
        assert db.storage_manager() is db.storage_manager("disk")


class TestReplaceWithLargeFunctions:
    def test_replace_stores_function_result(self, db):
        """replace PHOTOS (picture = clip(...)) keeps the temporary."""
        db.execute('create large type image (storage = f-chunk)')
        db.execute('create PHOTOS (name = text, picture = image)')

        def shrink(ctx, picture):
            out = ctx.create_temporary_for_type("image")
            picture.seek(0)
            with ctx.open(out, "rw") as target:
                target.write(picture.read(4))
            return out

        db.register_function("shrink", ("image",), "image", shrink,
                             needs_context=True)
        txn = db.begin()
        designator = db.lo.create_for_type(txn, "image")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"0123456789")
        db.execute(f'append PHOTOS (name = "p", '
                   f'picture = "{designator}")', txn)
        txn.commit()

        db.execute('replace PHOTOS (picture = shrink(PHOTOS.picture)) '
                   'where PHOTOS.name = "p"')
        stored = db.execute(
            'retrieve (PHOTOS.picture) where PHOTOS.name = "p"').scalar()
        with db.lo.open(stored) as obj:
            assert obj.read() == b"0123"


class TestQueryResultHelpers:
    def test_scalar_requires_1x1(self, db):
        db.execute('create T (a = int4, b = int4)')
        db.execute('append T (a = 1, b = 2)')
        result = db.execute('retrieve (T.a, T.b)')
        with pytest.raises(ExecutionError):
            result.scalar()

    def test_first_on_empty(self, db):
        db.execute('create T (a = int4)')
        assert db.execute('retrieve (T.a)').first() is None


class TestIndexLookupAsOf:
    def test_index_lookup_honours_time(self, db):
        db.create_class("T", [("n", "int4")])
        db.create_index("t_n", "T", "n")
        t0 = db.clock.now()
        with db.begin() as txn:
            db.insert(txn, "T", (7,))
        assert db.index_lookup("t_n", 7, as_of=t0) == []
        assert len(db.index_lookup("t_n", 7)) == 1

    def test_null_keys_not_indexed(self, db):
        db.create_class("T", [("n", "int4")])
        db.create_index("t_n", "T", "n")
        with db.begin() as txn:
            db.insert(txn, "T", (None,))
        assert db.get_index("t_n").entry_count() == 0


class TestSchemaEdges:
    def test_index_on_missing_attribute(self, db):
        db.create_class("T", [("n", "int4")])
        with pytest.raises(SchemaError):
            db.create_index("bad", "T", "ghost")

    def test_column_count_mismatch_at_insert(self, db):
        db.create_class("T", [("a", "int4"), ("b", "int4")])
        txn = db.begin()
        with pytest.raises(SchemaError):
            db.insert(txn, "T", (1,))
        txn.abort()


class TestClientEdges:
    def test_rollback_without_begin(self, db):
        from repro.client import LargeObjectApi
        from repro.errors import NoActiveTransaction
        api = LargeObjectApi(db)
        with pytest.raises(NoActiveTransaction):
            api.rollback()

    def test_lo_creat_rejects_native_impls(self, db):
        from repro.client import LargeObjectApi
        api = LargeObjectApi(db)
        api.begin()
        with pytest.raises(LargeObjectError):
            api.lo_creat(impl="pfile")
        api.rollback()

    def test_refused_lo_creat_creates_nothing(self, tmp_path):
        from repro.client import LargeObjectApi
        db = Database(str(tmp_path / "db"))
        try:
            api = LargeObjectApi(db)
            api.begin()
            with pytest.raises(LargeObjectError):
                api.lo_creat(impl="pfile")
            api.commit()                    # nothing to undo the file
            assert list(tmp_path.rglob("pg_pfiles*")) == []
        finally:
            db.close()


class TestManagerEdges:
    def test_pfile_and_fchunk_reject_path(self, db):
        txn = db.begin()
        with pytest.raises(LargeObjectError):
            db.lo.create(txn, "fchunk", path="/nope")
        with pytest.raises(LargeObjectError):
            db.lo.create(txn, "pfile", path="/nope")
        txn.abort()

    def test_unlink_chunked_requires_txn(self, db):
        with db.begin() as txn:
            designator = db.lo.create(txn, "fchunk")
        with pytest.raises(LargeObjectError):
            db.lo.unlink(None, designator)

    def test_vsegment_unlink_removes_store(self, db):
        with db.begin() as txn:
            designator = db.lo.create(txn, "vsegment")
        count_before = len(db.catalog.large_objects)
        with db.begin() as txn:
            db.lo.unlink(txn, designator)
        # Both the object and its byte store are gone.
        assert len(db.catalog.large_objects) == count_before - 2


class TestWormStats:
    def test_platter_switch_accounting(self):
        from repro.sim import SimClock
        from repro.smgr import WormStorageManager
        from repro.sim.devices import DeviceModel
        tiny_platters = DeviceModel(
            name="tiny-jukebox", avg_seek_s=0.1, rotational_s=0.0,
            transfer_bytes_per_s=1e6, platter_bytes=3 * 8192,
            platter_switch_s=5.0)
        clock = SimClock()
        smgr = WormStorageManager(clock, tiny_platters)
        smgr.create("t")
        for i in range(7):  # crosses two platter boundaries
            smgr.extend("t", bytes([i]) * 8192)
        assert smgr.port.platter_switches >= 2
        assert clock.elapsed > 10.0  # two 5-second exchanges


class TestSwitchItems:
    def test_items_names_match_registration(self, db):
        db.storage_manager("disk")
        db.storage_manager("worm")
        names = {name for name, _ in db.switch.items()}
        assert {"disk", "worm"} <= names


class TestSmallApis:
    def test_read_exact(self, db):
        with db.begin() as txn:
            designator = db.lo.create(txn, "fchunk")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"0123456789")
                obj.seek(2)
                assert obj.read_exact(4) == b"2345"
                obj.seek(8)
                with pytest.raises(EOFError):
                    obj.read_exact(10)

    def test_in_progress_xids(self, db):
        a = db.begin()
        b = db.begin()
        live = db.clog.in_progress_xids()
        assert {a.xid, b.xid} <= live
        a.commit()
        assert a.xid not in db.clog.in_progress_xids()
        b.abort()

    def test_snapshot_travelling_flag(self, db):
        assert not db.snapshot().travelling()
        assert db.snapshot(as_of=1.0).travelling()

    def test_page_can_fit_via_dead_slot(self):
        from repro.storage.page import SlottedPage
        page = SlottedPage()
        big = page.free_space() - 2000
        doomed = page.add_item(b"x" * big)
        page.add_item(b"y" * 1900)
        page.delete_item(doomed)
        assert page.can_fit(big)  # reachable through compaction

    def test_lock_holders_view(self, db):
        from repro.txn.locks import LockMode
        txn = db.begin()
        db.locks.acquire(txn.xid, "res", LockMode.SHARED)
        assert db.locks.holders("res") == {txn.xid: LockMode.SHARED}
        txn.commit()
        assert db.locks.holders("res") == {}

    def test_types_names_listing(self, db):
        db.create_large_type("film", storage="fchunk")
        assert "film" in db.types.names()
        assert db.types.large_names() == ["film"]

    def test_functions_names_listing(self, db):
        assert "length" in db.functions.names()

    def test_clock_breakdown_copies(self, db):
        db.clock.advance(1.0, "io.read")
        breakdown = db.clock.breakdown()
        breakdown["io.read"] = 999.0
        assert db.clock.elapsed_in("io.read") == 1.0

    def test_buffer_stats_hit_rate_empty(self):
        from repro.storage.buffer import BufferStats
        assert BufferStats().hit_rate() == 0.0


class TestSessionRows:
    def test_delete_and_fetch_run_in_the_sessions_transaction(self, db):
        from repro.errors import NoActiveTransaction
        db.create_class("T", [("v", "int4")])
        writer, reader = db.session(), db.session()
        writer.begin()
        tid = writer.insert("T", (1,))
        assert writer.fetch("T", tid).values == (1,)   # its own write
        reader.begin()
        assert reader.fetch("T", tid) is None          # not yet committed
        writer.commit()
        assert reader.fetch("T", tid).values == (1,)   # the next statement
        before = db.clock.now()
        reader.delete("T", tid)
        assert reader.fetch("T", tid) is None          # its own delete
        assert writer.fetch("T", tid).values == (1,)   # detached: not yet
        reader.commit()
        assert writer.fetch("T", tid) is None
        assert writer.fetch("T", tid, as_of=before).values == (1,)
        with pytest.raises(NoActiveTransaction):
            writer.delete("T", tid)


class TestSmallTypeRoundTrip:
    def test_create_type_round_trips_a_value_through_a_class(self, db):
        """``create type``: the input function parses a column's text into
        a Python object, the output function renders it back."""

        class Point:
            def __init__(self, x, y):
                self.x, self.y = x, y

            def __eq__(self, other):
                return (self.x, self.y) == (other.x, other.y)

        def point_in(text):
            return Point(*(int(part) for part in text.split(",")))

        definition = db.create_type(
            "point", point_in, lambda point: f"{point.x},{point.y}")
        assert db.types.get("point") is definition
        db.execute('create SPOT (label = text, at = point)')
        db.execute('append SPOT (label = "a", at = "3,-4")')
        value = db.execute(
            'retrieve (SPOT.at) where SPOT.label = "a"').scalar()
        assert value == Point(3, -4)
        assert definition.render(value) == "3,-4"


class TestContextTemporaries:
    def test_create_temporary_is_collected_unless_the_result_escapes(
            self, db):
        """A context function's temporary is unlinked when the query
        ends, unless the query returns its designator."""
        made = []

        def stage(ctx, n):
            out = ctx.create_temporary("vsegment")
            with ctx.open(out, "rw") as target:
                target.write(b"t" * n)
            made.append(out)
            return out

        def staged_size(ctx, n):
            stage(ctx, n)
            return n

        db.register_function("staged", ("int4",), "text", stage,
                             needs_context=True)
        db.register_function("staged_size", ("int4",), "int4", staged_size,
                             needs_context=True)
        assert db.execute('retrieve (s = staged_size(5))').scalar() == 5
        assert not db.lo.exists(made[-1])        # did not escape
        result = db.execute('retrieve (s = staged(7))')
        escaped = result.scalar()
        assert escaped == made[-1] and result.temporaries == {escaped}
        with db.lo.open(escaped) as obj:
            assert obj.read() == b"t" * 7
