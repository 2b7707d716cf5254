"""Tests for the figure-harness plumbing (small scale, fast), and the
exact pin of the simulated Figures 1-3 at scale 0.1."""

import json
from pathlib import Path

import pytest

from repro.bench.figures import (
    ALL_FIGURES,
    BenchConfig,
    _fresh_db,
    cool_down,
    load_object,
    run_operation,
)
from repro.bench.workload import Workload

SMALL = BenchConfig(scale=0.01)


@pytest.fixture
def workload():
    return Workload(0.01)


class TestLoadObject:
    @pytest.mark.parametrize("impl", ["ufile", "pfile", "fchunk",
                                      "vsegment"])
    def test_loads_full_object(self, workload, impl):
        db = _fresh_db(SMALL)
        try:
            designator = load_object(db, impl, workload, 0.0, "none")
            with db.lo.open(designator) as obj:
                assert obj.size() == workload.object_size
        finally:
            db.close()

    def test_contents_are_the_workload_frames(self, workload):
        from repro.bench.datasets import frame_bytes
        db = _fresh_db(SMALL)
        try:
            designator = load_object(db, "fchunk", workload, 0.3,
                                     "paper-8ipb")
            with db.lo.open(designator) as obj:
                obj.seek(7 * workload.frame_size)
                expected = frame_bytes(7, 0.3, workload.frame_size,
                                       seed=workload.seed)
                assert obj.read(workload.frame_size) == expected
        finally:
            db.close()

    def test_deterministic_across_runs(self, workload):
        sizes = []
        for _ in range(2):
            db = _fresh_db(SMALL)
            try:
                designator = load_object(db, "fchunk", workload, 0.5,
                                         "paper-20ipb")
                sizes.append(db.lo.storage_breakdown(designator)["data"])
            finally:
                db.close()
        assert sizes[0] == sizes[1]


class TestRunOperation:
    def test_read_op_reads_every_frame(self, workload):
        db = _fresh_db(SMALL)
        try:
            designator = load_object(db, "fchunk", workload, 0.0, "none")
            cool_down(db)
            op = workload.operations()[0]
            seconds = run_operation(db, designator, op, workload, 0.0, 0)
            assert seconds > 0
        finally:
            db.close()

    def test_write_op_changes_contents(self, workload):
        from repro.bench.datasets import frame_bytes
        db = _fresh_db(SMALL)
        try:
            designator = load_object(db, "fchunk", workload, 0.0, "none")
            op = workload.operations()[1]  # sequential write
            run_operation(db, designator, op, workload, 0.0, generation=3)
            with db.lo.open(designator) as obj:
                frame_no = op.frames[0]
                obj.seek(frame_no * workload.frame_size)
                assert obj.read(workload.frame_size) == frame_bytes(
                    frame_no, 0.0, workload.frame_size, generation=3,
                    seed=workload.seed)
        finally:
            db.close()

    def test_write_op_is_transactional(self, workload):
        db = _fresh_db(SMALL)
        try:
            designator = load_object(db, "fchunk", workload, 0.0, "none")
            # Writes happen inside a committed transaction.
            op = workload.operations()[3]
            run_operation(db, designator, op, workload, 0.0, 1)
            assert db.tm.active_count() == 0
        finally:
            db.close()


class TestCoolDown:
    def test_empties_the_pool(self, workload):
        db = _fresh_db(SMALL)
        try:
            designator = load_object(db, "fchunk", workload, 0.0, "none")
            cool_down(db)
            assert len(db.bufmgr._frames) == 0
            # Everything is still readable afterwards.
            with db.lo.open(designator) as obj:
                assert obj.size() == workload.object_size
        finally:
            db.close()

    def test_archives_worm_data(self, workload):
        db = _fresh_db(SMALL)
        try:
            load_object(db, "fchunk", workload, 0.0, "none", smgr="worm")
            cool_down(db)
            worm = db.storage_manager("worm")
            assert worm.base.media_blocks_used() > 0
            assert worm.stats()["staged_blocks"] == 0
        finally:
            db.close()


class TestConfigScaling:
    def test_pool_scales_with_floor(self):
        assert BenchConfig(scale=1.0).scaled_pool() == 256
        assert BenchConfig(scale=0.5).scaled_pool() == 128
        assert BenchConfig(scale=0.01).scaled_pool() == 64  # the floor

    def test_worm_cache_scales(self):
        assert BenchConfig(scale=1.0).scaled_worm_cache() == 3200
        assert BenchConfig(scale=0.1).scaled_worm_cache() == 320


GOLDEN = Path(__file__).parent / "golden" / "figures_scale_0.1.json"


def test_simulated_figures_match_the_golden_file_exactly():
    """Every Figure 1-3 cell at scale 0.1, compared at full float
    precision: simulated numbers move only with the cost model, and a
    cost-model change must be deliberate."""
    config = BenchConfig(scale=0.1)
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == ["fig1", "fig2", "fig3"]
    drift = []
    for key, rows in golden.items():
        cells = ALL_FIGURES[key](config).cells
        pinned = {(row, col): value for row, cols in rows.items()
                  for col, value in cols.items()}
        for row, col in sorted(pinned.keys() | cells.keys()):
            want, got = pinned.get((row, col)), cells.get((row, col))
            if want != got:
                drift.append(f"{key} / {row} / {col} / {want!r} -> {got!r}")
    assert not drift, (
        f"{len(drift)} simulated cell(s) differ from {GOLDEN.name} "
        "(figure / row / column / pinned -> got):\n  "
        + "\n  ".join(drift)
        + "\nThe simulated figures move only when the cost model does. "
        "Regenerate the golden file only in a PR that names the "
        "cost-model change; otherwise find the charged path that moved.")
