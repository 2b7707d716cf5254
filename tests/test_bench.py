"""Unit tests for the benchmark harness components."""

import pytest

from repro.bench.datasets import build_object_bytes, frame_bytes, \
    measured_ratio
from repro.bench.report import FigureResult, render_table
from repro.bench.workload import Workload


class TestDatasets:
    def test_frame_is_right_size(self):
        assert len(frame_bytes(0, 0.3)) == 4096
        assert len(frame_bytes(5, 0.5, frame_size=1000)) == 1000

    def test_frames_differ_by_number(self):
        assert frame_bytes(1, 0.3) != frame_bytes(2, 0.3)

    def test_frames_differ_by_generation(self):
        assert frame_bytes(1, 0.3) != frame_bytes(1, 0.3, generation=1)

    def test_deterministic(self):
        assert frame_bytes(7, 0.5) == frame_bytes(7, 0.5)

    def test_zero_fraction_has_no_zero_tail(self):
        frame = frame_bytes(0, 0.0)
        assert frame[-16:] != bytes(16)

    def test_full_fraction_is_all_zeros(self):
        assert frame_bytes(0, 1.0) == bytes(4096)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            frame_bytes(0, 1.5)

    @pytest.mark.parametrize("target", [0.0, 0.3, 0.5, 0.7])
    def test_achieved_ratio_matches_target(self, target):
        """The §9.2 reproduction hinges on hitting the stated ratios."""
        assert abs(measured_ratio(target) - target) < 0.02

    def test_build_object(self):
        data = build_object_bytes(3, 0.5, frame_size=1024)
        assert len(data) == 3 * 1024
        assert data[:1024] == frame_bytes(0, 0.5, 1024)


class TestWorkload:
    def test_full_scale_matches_paper(self):
        w = Workload(1.0)
        assert w.total_frames == 12_500
        assert w.object_size == 51_200_000
        assert w.sequential_frames == 2_500  # 10 MB
        assert w.scattered_frames == 250  # 1 MB

    def test_scaled_proportions(self):
        w = Workload(0.1)
        assert w.total_frames == 1250
        assert w.sequential_frames == 250
        assert w.scattered_frames == 25

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            Workload(0)
        with pytest.raises(ValueError):
            Workload(1.5)

    def test_sequences_deterministic(self):
        a, b = Workload(0.1, seed=7), Workload(0.1, seed=7)
        assert a.random_frames(1) == b.random_frames(1)
        assert a.locality_frames(2) == b.locality_frames(2)

    def test_seed_changes_sequences(self):
        a, b = Workload(0.1, seed=7), Workload(0.1, seed=8)
        assert a.random_frames(1) != b.random_frames(1)

    def test_frames_in_range(self):
        w = Workload(0.1)
        for frame in w.random_frames(0) + w.locality_frames(0):
            assert 0 <= frame < w.total_frames

    def test_locality_is_mostly_sequential(self):
        w = Workload(0.5)
        frames = w.locality_frames(0)
        sequential = sum(
            1 for a, b in zip(frames, frames[1:])
            if b == (a + 1) % w.total_frames)
        assert sequential / len(frames) > 0.6

    def test_six_operations_in_paper_order(self):
        names = [op.name for op in Workload(0.1).operations()]
        assert names == [
            "10MB sequential read", "10MB sequential write",
            "1MB random read", "1MB random write",
            "1MB read, 80/20 locality", "1MB write, 80/20 locality"]

    def test_read_only_subset(self):
        ops = Workload(0.1).operations(include_writes=False)
        assert all(op.kind == "read" for op in ops)
        assert len(ops) == 3

    def test_bytes_touched(self):
        w = Workload(1.0)
        assert w.operations()[0].bytes_touched == 10_240_000


class TestReport:
    def make_figure(self):
        figure = FigureResult("Test figure", [], [], unit="seconds")
        figure.set("row a", "col 1", 1.5)
        figure.set("row a", "col 2", 250.0)
        figure.set("row b", "col 1", 0.07)
        return figure

    def test_set_get(self):
        figure = self.make_figure()
        assert figure.get("row a", "col 2") == 250.0
        assert figure.row_labels == ["row a", "row b"]

    def test_ratio(self):
        figure = self.make_figure()
        assert figure.ratio("row a", "col 2", "col 1") \
            == pytest.approx(250 / 1.5)

    def test_column(self):
        figure = self.make_figure()
        assert figure.column("col 1") == {"row a": 1.5, "row b": 0.07}

    def test_render_contains_everything(self):
        figure = self.make_figure()
        figure.notes.append("a note")
        text = render_table(figure)
        assert "Test figure" in text
        assert "row a" in text and "col 2" in text
        assert "250" in text and "0.07" in text
        assert "note: a note" in text
        assert "-" in text  # missing cell placeholder

    def test_render_bytes_unit(self):
        figure = FigureResult("F", [], [], unit="bytes")
        figure.set("r", "c", 51_200_000)
        assert "51,200,000" in render_table(figure)


class TestClaimsMachinery:
    def test_claim_holds_logic(self):
        from repro.bench.claims import Claim
        claim = Claim("x", "d", "p", 1.1, (1.0, 1.2))
        assert claim.holds
        assert not Claim("x", "d", "p", 1.3, (1.0, 1.2)).holds

    def test_render_claims(self):
        from repro.bench.claims import Claim, render_claims
        text = render_claims([
            Claim("good", "is good", "yes", 1.0, (0.5, 1.5)),
            Claim("bad", "is bad", "no", 9.0, (0.5, 1.5))])
        assert "[PASS] good" in text
        assert "[FAIL] bad" in text
        assert "1/2 claims hold" in text


class TestCli:
    def test_cli_fig1_smoke(self, capsys):
        from repro.bench.cli import main
        assert main(["fig1", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "f-chunk 30%" in out

    def test_cli_rejects_unknown_figure(self):
        from repro.bench.cli import main
        with pytest.raises(SystemExit):
            main(["fig9"])


class TestPaperLayout:
    def test_figure1_paper_rows(self):
        from repro.bench.report import (
            FigureResult,
            render_figure1_paper_layout,
        )
        figure = FigureResult("F", [], [], unit="bytes")
        figure.set("user file", "data", 51_200_000)
        figure.set("f-chunk 0%", "data", 51_838_976)
        figure.set("f-chunk 0%", "btree", 270_336)
        text = render_figure1_paper_layout(figure)
        assert "User file" in text
        assert "51,200,000" in text
        assert "f-chunk B-tree index" in text
        assert "v-segment" not in text  # absent cells are skipped


class TestReportGenerator:
    def test_full_report(self, tmp_path):
        from repro.bench.figures import BenchConfig
        from repro.bench.reportgen import write_report
        path = str(tmp_path / "report.md")
        text = write_report(path, BenchConfig(scale=0.02))
        assert "Figure 1" in text
        assert "Figure 2" in text
        assert "Figure 3" in text
        assert "claims hold" in text
        assert "| user file |" in text
        with open(path) as fh:
            assert fh.read().strip() == text.strip()
