"""Regenerates paper Figure 3: WORM jukebox performance (read portion)."""

import pytest

from repro.bench.claims import LOC_READ, RAND_READ, SEQ_READ
from repro.bench.figures import run_figure3
from repro.bench.report import render_table


@pytest.fixture(scope="module")
def figure3(config):
    return run_figure3(config)


def test_figure3_regenerates(figure3, capsys):
    with capsys.disabled():
        print()
        print(render_table(figure3))


class TestFigure3Shape:
    """Orderings §9.3's prose asserts about the WORM table."""

    def test_special_program_wins_sequential(self, figure3):
        ratio = figure3.ratio(SEQ_READ, "f-chunk 0%", "special program")
        assert 1.0 < ratio < 1.8  # paper: ~20% faster, no cache overhead

    def test_fchunk_wins_random_via_cache(self, figure3):
        ratio = figure3.ratio(RAND_READ, "special program", "f-chunk 0%")
        assert ratio > 1.1  # paper: "dramatically superior"

    def test_fchunk_wins_locality_via_cache(self, figure3):
        ratio = figure3.ratio(LOC_READ, "special program", "f-chunk 0%")
        assert ratio > 1.3  # paper: "most of the requests ... cache"

    def test_compression_pays_on_slow_media(self, figure3):
        ratio = figure3.ratio(SEQ_READ, "f-chunk 50%", "f-chunk 0%")
        assert ratio < 0.8  # paper: fewer slow transfers win

    def test_vsegment_no_faster_than_fchunk_on_worm_random(self, figure3):
        """v-segment adds an index hop; at worst the disk cache absorbs
        it (the segment index is small and recently written), so it is
        comparable to or slower than f-chunk — never faster."""
        assert figure3.get(RAND_READ, "v-segment 30%") \
            >= figure3.get(RAND_READ, "f-chunk 30%") * 0.9
