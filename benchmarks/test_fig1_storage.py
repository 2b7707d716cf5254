"""Regenerates paper Figure 1: storage used by each implementation.

``pytest benchmarks/test_fig1_storage.py`` prints the table.
"""

import pytest

from repro.bench.figures import run_figure1
from repro.bench.report import render_table


@pytest.fixture(scope="module")
def figure1(config):
    return run_figure1(config)


def test_figure1_regenerates(figure1, capsys):
    with capsys.disabled():
        print()
        print(render_table(figure1))


class TestFigure1Shape:
    """The relationships the paper's Figure 1 exhibits."""

    def test_native_files_have_no_overhead(self, figure1, config):
        from repro.bench.workload import Workload
        expected = Workload(config.scale).object_size
        assert figure1.get("user file", "data") == expected
        assert figure1.get("POSTGRES file", "data") == expected

    def test_fchunk_overhead_is_small(self, figure1):
        overhead = (figure1.get("f-chunk 0%", "total")
                    / figure1.get("user file", "data"))
        assert 1.0 < overhead < 1.08  # paper: 1.8%

    def test_fchunk30_saves_nothing(self, figure1):
        assert figure1.get("f-chunk 30%", "data") \
            == figure1.get("f-chunk 0%", "data")

    def test_fchunk50_halves_data(self, figure1):
        ratio = (figure1.get("f-chunk 50%", "data")
                 / figure1.get("f-chunk 0%", "data"))
        assert 0.45 < ratio < 0.60  # paper: 0.50

    def test_vsegment_reflects_any_compression(self, figure1):
        ratio30 = (figure1.get("v-segment 30%", "data")
                   / figure1.get("f-chunk 0%", "data"))
        ratio50 = (figure1.get("v-segment 50%", "data")
                   / figure1.get("f-chunk 0%", "data"))
        assert 0.62 < ratio30 < 0.85  # paper: 0.709
        assert 0.45 < ratio50 < 0.65

    def test_vsegment_carries_map_overhead(self, figure1):
        assert figure1.get("v-segment 30%", "segment_map") > 0
        assert figure1.get("v-segment 30%", "btree") > 0
