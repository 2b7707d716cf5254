"""Command-line entry point: ``python -m repro.bench`` / ``repro-bench``.

Examples::

    repro-bench fig2                 # Figure 2 at the default 1/10 scale
    repro-bench fig1 fig3 --scale 1  # full 51.2 MB object
    repro-bench all --scale 0.05     # quick smoke of every figure
    repro-bench claims               # paper-claim checklist
    repro-bench topology             # sharded throughput vs node count
    repro-bench report --scale 1     # figures 1-3 and the claims, also
                                     # written to benchmark_report.md
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.claims import evaluate_claims, render_claims
from repro.bench.figures import ALL_FIGURES, BenchConfig
from repro.bench.report import render_figure1_paper_layout, render_table

#: Names that stand for a list of names, expanded where they appear.
PSEUDO_NAMES = {
    "all": sorted(ALL_FIGURES),
    "report": ["fig1", "fig2", "fig3", "claims"],
}


def run(names: list[str], config: BenchConfig) -> str:
    """Run *names* in order and return their tables; ``claims`` reuses
    the figures run before it."""
    figures = {}
    parts = []
    for name in names:
        if name == "claims":
            parts.append(render_claims(evaluate_claims(config, figures)))
            continue
        figure = figures[name] = ALL_FIGURES[name](config)
        parts.append(render_table(figure))
        if name == "fig1":
            parts.append(render_figure1_paper_layout(figure))
    return "".join(part + "\n\n" for part in parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the tables of 'Large Object Support in "
                    "POSTGRES' (ICDE 1993)")
    parser.add_argument(
        "figures", nargs="+",
        choices=sorted(ALL_FIGURES) + ["claims", *PSEUDO_NAMES],
        help="what to run, in order: figures, 'claims', 'all' (every "
             "figure) or 'report' (figures 1-3 and the claims, also "
             "written to --output)")
    parser.add_argument("-o", "--output", default="benchmark_report.md",
                        help="output path for 'report' "
                             "(default benchmark_report.md)")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="fraction of the paper's 51.2 MB object "
                             "(default 0.1)")
    parser.add_argument("--seed", type=int, default=1993)
    args = parser.parse_args(argv)

    names = list(dict.fromkeys(
        name for arg in args.figures for name in PSEUDO_NAMES.get(arg, [arg])))
    text = run(names, BenchConfig(scale=args.scale, seed=args.seed))
    sys.stdout.write(text)
    if "report" in args.figures:
        # Host-side results artifact, not engine block I/O.
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
