"""Regenerates paper Figure 2: disk performance on the §9.1 benchmark."""

import pytest

from repro.bench.claims import SEQ_READ
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
    """Orderings §9.2's prose asserts about the disk table that no §9
    claim (``repro.bench.claims``) checks."""

    def test_native_files_are_identical(self, figure2):
        for row in figure2.row_labels:
            assert figure2.get(row, "user file") \
                == pytest.approx(figure2.get(row, "POSTGRES file"),
                                 rel=0.05)

    def test_compression_costs_cpu_at_30pct(self, figure2):
        # fchunk30-13pct-slower bounds the slower of read and write; the
        # read alone must not get faster.
        ratio = figure2.ratio(SEQ_READ, "f-chunk 30%", "f-chunk 0%")
        assert ratio >= 1.0  # paper: ~13% slower

    def test_writes_cost_more_than_reads_under_no_overwrite(self, figure2):
        """Replace = read old + stamp old + insert new: >= 2x read cost."""
        ratio = (figure2.get("10MB sequential write", "f-chunk 0%")
                 / figure2.get(SEQ_READ, "f-chunk 0%"))
        assert ratio > 1.5
