"""``BENCHMARK.json`` at the repository root, as the benchmark reads it.

That file is the one place where the workloads, the metric names, their
units, directions and bounds are declared; ``run.py`` prints exactly the
metrics it lists and fails when it cannot compute one of them.
"""

from __future__ import annotations

import json
import os

from conditions import ROOT


def load() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        return json.load(source)


def units(section: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, in order."""
    return {metric["name"]: metric["unit"] for metric in load()[section]}
