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
    """The relationships the paper's Figure 1 exhibits that no §9 claim
    (``repro.bench.claims``) checks."""

    def test_native_files_have_no_overhead(self, figure1, config):
        from repro.bench.workload import Workload
        expected = Workload(config.scale).object_size
        assert figure1.get("user file", "data") == expected
        assert figure1.get("POSTGRES file", "data") == expected

    def test_vsegment_reflects_any_compression(self, figure1):
        ratio50 = (figure1.get("v-segment 50%", "data")
                   / figure1.get("f-chunk 0%", "data"))
        assert 0.45 < ratio50 < 0.65

    def test_vsegment_carries_map_overhead(self, figure1):
        assert figure1.get("v-segment 30%", "segment_map") > 0
        assert figure1.get("v-segment 30%", "btree") > 0
