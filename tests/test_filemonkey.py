"""FileMonkey: randomized multi-session stress for the Inversion FS.

Tiers (pyproject.toml markers, gated by tests/conftest.py):

* unmarked       — seeded deterministic smoke rounds, tier-1 sized;
* ``monkey``                — the acceptance-criteria run (2000 ops x 4
  sessions), selected with ``-m monkey``;
* ``monkey and stress``     — the long haul, selected with
  ``-m "monkey and stress"``.

Every round ends with the harness's own global consistency sweep
(oracle-vs-tree diff, IntegrityChecker, ``as_of`` replay of every
recorded commit point); a failing round dumps its seed + full op log as
a JSON artifact so the exact schedule can be replayed.

These runs are the reason three real bugs are fixed in this PR — the
harness is kept as a reusable subsystem (`repro.inversion.monkey`)
precisely because it keeps earning its keep:

* ``InversionFile`` inherited the non-atomic base-class ``append``
  (stale EOF under concurrency) instead of delegating to the chunked
  implementations' locked append;
* a committed *shrinking* truncate was never folded into a concurrent
  writer's cached size (``_refresh_committed`` ratcheted up only);
* path operations held no lock against a concurrent rename of an
  *ancestor* directory, so a create could commit into a subtree that
  had already moved — commit order was not a valid serialization.
"""

import json
import os
import pathlib

import pytest

from repro.db import Database
from repro.inversion.monkey import DEFAULT_MIX, FileMonkey, _Oracle


def _run_clean(monkey: FileMonkey, tmp_path, min_committed: int = 1):
    """Run a monkey and fail with a replayable artifact on problems.

    The artifact (seed + full op log, JSON) lands in ``tmp_path`` — and
    also in ``$MONKEY_ARTIFACT_DIR`` when set, which is how the CI job
    uploads failing schedules."""
    report = monkey.run()
    if not report.ok:
        artifact = tmp_path / f"monkey-seed{report.seed}.json"
        report.dump(str(artifact))
        ci_dir = os.environ.get("MONKEY_ARTIFACT_DIR")
        if ci_dir:
            pathlib.Path(ci_dir).mkdir(parents=True, exist_ok=True)
            report.dump(str(pathlib.Path(ci_dir) / artifact.name))
        pytest.fail(
            f"{report.summary()}\nfirst problems: {report.problems[:3]}\n"
            f"replay: FileMonkey(seed={report.seed}, "
            f"workers={report.workers}, ops={report.ops}); "
            f"full op log: {artifact}")
    assert report.committed >= min_committed, report.summary()
    return report


class TestSmoke:
    """Tier-1 sized rounds: seconds, fully deterministic per seed."""

    def test_seeded_round_four_sessions(self, tmp_path):
        monkey = FileMonkey(Database, seed=7, workers=4, ops=300)
        report = _run_clean(monkey, tmp_path, min_committed=100)
        assert report.commit_points == report.committed

    def test_seeded_round_single_session(self, tmp_path):
        """workers=1: reads are verified against the oracle inline, op
        by op, and no abort can be a lock-manager verdict — only
        precondition misses (rename onto an existing name, rmdir of a
        non-empty directory, ...) may fire."""
        monkey = FileMonkey(Database, seed=3, workers=1, ops=200)
        report = _run_clean(monkey, tmp_path, min_committed=120)
        assert not {"DeadlockError", "LockError"} & set(report.raced)

    def test_crash_round(self, tmp_path):
        """Single-session round with scripted commit-path crashes: the
        database reopens after each, the oracle resolves the in-doubt
        op from the recovered tree, and the final sweep (integrity
        included — crashed creates must not leave orphaned large
        objects) still comes up clean."""
        path = str(tmp_path / "crashdb")
        monkey = FileMonkey(lambda: Database(path), seed=5, workers=1,
                            ops=300, crash_every=40)
        report = _run_clean(monkey, tmp_path, min_committed=100)
        assert report.crashes >= 3, report.summary()
        # A reopen costs the clock seconds, not its own age: a clock that
        # doubles at every crash soon hands out commit points float
        # arithmetic cannot tell apart, and as_of replay fails.
        times = [instant for instant, _digest in monkey._points]
        assert max(b - a for a, b in zip(times, times[1:])) < 10.0

    def test_crash_requires_single_worker(self):
        with pytest.raises(ValueError):
            FileMonkey(Database, workers=4, crash_every=10)

    def test_raw_lo_ops_interleave_with_the_fs_mix(self, tmp_path):
        """The mix drives db.lo directly (create/write/append/read/
        truncate by designator, no FS paths); the oracle tracks every
        object's bytes and the as_of replay digests only the objects
        alive at each commit point."""
        monkey = FileMonkey(Database, seed=13, workers=2, ops=300)
        report = _run_clean(monkey, tmp_path, min_committed=150)
        committed = [e["op"] for e in report.oplog
                     if e["outcome"] == "ok"]
        assert "lo_create" in committed
        assert {"lo_write", "lo_append", "lo_read", "lo_truncate"} \
            & set(committed)
        assert monkey.oracle.los  # objects survived into the sweep

    def test_lo_crash_round_resolves_in_doubt_lo_ops(self, tmp_path):
        """Crashes landing on raw LO commits resolve like FS ops: the
        recovered state matches the oracle with or without the op."""
        path = str(tmp_path / "lodb")
        lo_mix = tuple((op, w * (4 if op.startswith("lo_") else 1))
                       for op, w in DEFAULT_MIX)
        monkey = FileMonkey(lambda: Database(path), seed=21, workers=1,
                            ops=250, crash_every=30, mix=lo_mix)
        report = _run_clean(monkey, tmp_path, min_committed=100)
        assert report.crashes >= 3, report.summary()

    def test_report_dump_and_summary(self, tmp_path):
        """The replay artifact a failing round leaves behind: the dumped
        JSON carries the seed, the worker count and the whole op log, and
        the summary line names the seed."""
        report = FileMonkey(Database, seed=11, workers=1, ops=40).run()
        artifact = tmp_path / "report.json"
        report.dump(str(artifact))
        dumped = json.loads(artifact.read_text(encoding="utf-8"))
        assert (dumped["seed"], dumped["workers"], dumped["ops"]) == \
            (11, 1, 40)
        assert dumped["oplog"] == json.loads(json.dumps(report.oplog))
        assert len(dumped["oplog"]) == 40
        assert dumped["committed"] == report.committed
        assert report.summary().startswith("FileMonkey(seed=11): ")

    def test_determinism_same_seed_same_tree(self):
        digests = []
        for _ in range(2):
            monkey = FileMonkey(Database, seed=42, workers=1, ops=120)
            report = monkey.run()
            assert report.ok, report.summary()
            digests.append(monkey.oracle.digest())
        assert digests[0] == digests[1]


@pytest.mark.monkey
class TestAcceptance:
    def test_2000_ops_four_sessions(self, tmp_path):
        """The acceptance-criteria run: >=2000 ops across >=4 concurrent
        sessions, zero-diff oracle sweep, clean integrity, full as_of
        replay."""
        monkey = FileMonkey(Database, seed=2024, workers=4, ops=2000)
        report = _run_clean(monkey, tmp_path, min_committed=1000)
        # With 4 sessions hammering 8 names some aborts are expected —
        # but they must be lock-manager verdicts, never corruption.
        assert report.commit_points == report.committed

    def test_second_seed(self, tmp_path):
        monkey = FileMonkey(Database, seed=99, workers=4, ops=1000)
        _run_clean(monkey, tmp_path, min_committed=400)


@pytest.mark.monkey
@pytest.mark.stress
class TestLongHaul:
    def test_long_multi_seed(self, tmp_path):
        for seed in (11, 23, 31337):
            monkey = FileMonkey(Database, seed=seed, workers=6, ops=2500)
            _run_clean(monkey, tmp_path, min_committed=800)

    def test_long_crash_round(self, tmp_path):
        path = str(tmp_path / "crashdb")
        monkey = FileMonkey(lambda: Database(path), seed=8, workers=1,
                            ops=1500, crash_every=25)
        report = _run_clean(monkey, tmp_path, min_committed=800)
        assert report.crashes >= 20, report.summary()


class TestOracle:
    """The in-memory oracle itself: its preconditions are the spec."""

    def test_rename_moves_subtree(self):
        oracle = _Oracle()
        oracle.add_dir("/a", 1, 0o755)
        oracle.add_dir("/a/b", 2, 0o755)
        oracle.add_file("/a/b/f", 3, 0o644, b"x")
        oracle.rename("/a", "/z")
        assert sorted(p for p, k, _m, _h in oracle.items()) == \
            ["/z", "/z/b", "/z/b/f"]

    def test_truncate_zero_fills(self):
        oracle = _Oracle()
        oracle.add_file("/f", 1, 0o644, b"ab")
        oracle.truncate_data(1, 5)
        assert oracle.data[1] == b"ab\0\0\0"

    def test_content_ops_by_fid_survive_rename(self):
        """A writer captured the file id before a concurrent rename; its
        bytes must land in the file wherever it lives now."""
        oracle = _Oracle()
        oracle.add_file("/f", 1, 0o644, b"old")
        oracle.rename("/f", "/g")
        oracle.set_data(1, b"new")
        assert [r for r in oracle.items() if r[0] == "/g"][0][3] == \
            oracle._content_hash(1)

    def test_digest_tracks_mode(self):
        oracle = _Oracle()
        oracle.add_file("/f", 1, 0o644, b"x")
        before = oracle.digest()
        oracle.set_mode(1, 0o600)
        assert oracle.digest() != before

    def test_default_mix_is_complete(self):
        assert sum(w for _op, w in DEFAULT_MIX) > 0
        assert {"create", "rename", "unlink", "truncate"} <= \
            {op for op, _w in DEFAULT_MIX}
