"""Time travel answers right or says it cannot (ROADMAP item 10).

A published version is immutable: an ``as_of`` read returns what was
committed at that instant, or raises.  Both probes here get a wrong
answer without raising today.  Each test asserts the correct outcome and
is a strict xfail until item 10 lands; a test that starts passing fails
the run.
"""

import pytest

from repro.db import Database
from repro.errors import LargeObjectError, ReproError

A = b"a" * 20_000


def read_as_of(db: Database, designator: str, as_of: float) -> bytes | None:
    """The object's bytes at *as_of*, or ``None`` when the engine says the
    instant lies below the vacuum horizon."""
    try:
        with db.lo.open(designator, as_of=as_of) as obj:
            return obj.read()
    except ReproError as exc:
        if "horizon" not in str(exc):
            raise
        return None


class TestHistoryBelowAVacuum:
    """Write 20,000 × ``a``, commit, take ``t1``, overwrite, commit,
    vacuum: the read at ``t1`` must give the ``a`` bytes or say that the
    history is below the vacuum horizon."""

    @pytest.mark.parametrize("impl, options", [
        pytest.param("fchunk", {}, id="fchunk"),
        pytest.param("vsegment", {"compression": "zero-rle"},
                     id="vsegment")])
    @pytest.mark.parametrize("overwrite", [
        pytest.param(20_000, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=(
                "the sweep records no horizon: the unchanged size row "
                "survives and the swept chunks read as 20,000 zeros"))),
        pytest.param(30_000, marks=pytest.mark.xfail(
            strict=True, raises=LargeObjectError, reason=(
                "the sweep records no horizon: the old size row is gone "
                "and the read raises 'no size record'")))])
    def test_the_read_returns_the_old_bytes_or_names_the_horizon(
            self, impl, options, overwrite):
        db = Database()
        with db.begin() as txn:
            designator = db.lo.create(txn, impl, **options)
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(A)
        t1 = db.clock.now()
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"b" * overwrite)
        db.vacuum()
        try:
            assert read_as_of(db, designator, t1) in (A, None)
        finally:
            db.close()


def abandon(db: Database) -> None:
    """Leave the database as a dead process would: no flushing."""
    for smgr in db.switch.instances():
        smgr.close()
    db.clog.close()
    db.catalog.journal.close()


class TestAnInstantReadBeforeARestart:
    """An ``as_of=T`` read that gave ``a`` before a reopen still gives
    ``a`` after the reopened database commits ``b``."""

    @pytest.mark.parametrize("stop", ["close", "abandon"])
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "reopen resumes the clock past the last commit only, below T: the "
        "first commit after it is stamped before T, and the read at T "
        "returns b"))
    def test_the_read_at_t_does_not_change(self, tmp_path, stop):
        path = str(tmp_path / "db")
        db = Database(path)
        with db.begin() as txn:
            designator = db.lo.create(txn, "fchunk")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"a" * 1000)
        db.clock.advance(5.0)
        instant = db.clock.now()
        assert read_as_of(db, designator, instant) == b"a" * 1000
        if stop == "close":
            db.close()
        else:
            abandon(db)
        db = Database(path)
        try:
            with db.begin() as txn:
                with db.lo.open(designator, txn, "rw") as obj:
                    obj.write(b"b" * 1000)
            assert read_as_of(db, designator, instant) == b"a" * 1000
        finally:
            db.close()
