"""Regenerates paper Figure 2: disk performance on the §9.1 benchmark."""

import pytest

from repro.bench.claims import RAND_READ, SEQ_READ
from repro.bench.figures import run_figure2
from repro.bench.report import render_table


@pytest.fixture(scope="module")
def figure2(config):
    return run_figure2(config)


def test_figure2_regenerates(figure2, capsys):
    with capsys.disabled():
        print()
        print(render_table(figure2))


class TestFigure2Shape:
    """Orderings §9.2's prose asserts about the disk table."""

    def test_native_files_are_identical(self, figure2):
        for row in figure2.row_labels:
            assert figure2.get(row, "user file") \
                == pytest.approx(figure2.get(row, "POSTGRES file"),
                                 rel=0.05)

    def test_fchunk_sequential_read_near_native(self, figure2):
        ratio = figure2.ratio(SEQ_READ, "f-chunk 0%", "user file")
        assert ratio < 1.4  # paper: within 7%

    def test_fchunk_random_read_slower_than_native(self, figure2):
        ratio = figure2.ratio(RAND_READ, "f-chunk 0%", "user file")
        assert 1.05 < ratio < 3.0  # paper: throughput 1/2 to 3/4

    def test_compression_costs_cpu_at_30pct(self, figure2):
        ratio = figure2.ratio(SEQ_READ, "f-chunk 30%", "f-chunk 0%")
        assert 1.0 <= ratio < 1.45  # paper: ~13% slower

    def test_vsegment_random_pays_index_hop(self, figure2):
        ratio = figure2.ratio(RAND_READ, "v-segment 30%", "f-chunk 0%")
        assert ratio > 1.0  # paper: ~25% slower

    def test_fchunk50_reads_less_than_uncompressed(self, figure2, config):
        ratio = figure2.ratio(SEQ_READ, "f-chunk 50%", "f-chunk 0%")
        if config.scale >= 0.1:
            assert ratio < 1.0  # paper: reduced traffic beats the CPU
        else:
            # At tiny scales fixed overheads (B-tree height, size-row
            # lookups) dominate and mask the transfer savings.
            assert ratio < 1.35

    def test_writes_cost_more_than_reads_under_no_overwrite(self, figure2):
        """Replace = read old + stamp old + insert new: >= 2x read cost."""
        ratio = (figure2.get("10MB sequential write", "f-chunk 0%")
                 / figure2.get(SEQ_READ, "f-chunk 0%"))
        assert ratio > 1.5
