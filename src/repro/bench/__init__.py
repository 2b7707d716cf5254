"""Benchmark harness reproducing the paper's evaluation (§9).

The benchmark (§9.1): a 51.2 MB large object treated as 12,500 frames of
4096 bytes, exercised by six operations — 10 MB sequential read/replace,
1 MB random read/replace, and 1 MB read/replace with 80/20 locality.

* :mod:`repro.bench.datasets` synthesizes frames with a controlled
  compressible fraction (the paper's 30 % / 50 % algorithms).
* :mod:`repro.bench.workload` generates the six §9.1 access patterns.
* :mod:`repro.bench.figures` runs the implementations and regenerates
  Figure 1 (storage), Figure 2 (disk elapsed time), Figure 3 (WORM
  elapsed time), the ablation sweeps, and (from
  :mod:`repro.bench.topology`) the sharded-throughput table.
* :mod:`repro.bench.report` renders paper-style text tables.
* :mod:`repro.bench.cli` is the one runner; ``python -m repro.bench`` is
  its command-line entry point.
"""

from repro.bench.figures import (
    run_figure1,
    run_figure2,
    run_figure3,
)
from repro.bench.report import FigureResult, render_table
from repro.bench.workload import Workload

__all__ = [
    "Workload",
    "FigureResult",
    "render_table",
    "run_figure1",
    "run_figure2",
    "run_figure3",
]
