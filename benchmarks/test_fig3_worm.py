"""Regenerates paper Figure 3: WORM jukebox performance (read portion)."""

import pytest

from repro.bench.claims import RAND_READ
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
    """Orderings §9.3's prose asserts about the WORM table that no §9
    claim (``repro.bench.claims``) checks."""

    def test_vsegment_no_faster_than_fchunk_on_worm_random(self, figure3):
        """v-segment adds an index hop; at worst the disk cache absorbs
        it (the segment index is small and recently written), so it is
        comparable to or slower than f-chunk — never faster."""
        assert figure3.get(RAND_READ, "v-segment 30%") \
            >= figure3.get(RAND_READ, "f-chunk 30%") * 0.9
