"""Command-line entry point: ``python -m repro.bench`` / ``repro-bench``.

Examples::

    repro-bench fig2                 # Figure 2 at the default 1/10 scale
    repro-bench fig1 fig3 --scale 1  # full 51.2 MB object
    repro-bench all --scale 0.05     # quick smoke of every figure
    repro-bench claims               # paper-claim checklist (see below)
    repro-bench topology             # sharded throughput vs node count
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.claims import evaluate_claims, render_claims
from repro.bench.figures import ALL_FIGURES, BenchConfig
from repro.bench.report import render_table


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The topology sweep has its own option set, orthogonal to the figure
    # knobs, so it dispatches before the figure parser sees the arguments.
    if argv and argv[0] == "topology":
        from repro.bench.topology import main as topology_main
        return topology_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the tables of 'Large Object Support in "
                    "POSTGRES' (ICDE 1993)")
    parser.add_argument(
        "figures", nargs="+",
        choices=sorted(ALL_FIGURES) + ["all", "claims", "report"],
        help="which figure(s) to regenerate ('report' writes a full "
             "markdown report)")
    parser.add_argument("-o", "--output", default="benchmark_report.md",
                        help="output path for 'report' "
                             "(default benchmark_report.md)")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="fraction of the paper's 51.2 MB object "
                             "(default 0.1)")
    parser.add_argument("--seed", type=int, default=1993)
    args = parser.parse_args(argv)

    config = BenchConfig(scale=args.scale, seed=args.seed)

    wanted = list(dict.fromkeys(
        sorted(ALL_FIGURES) if "all" in args.figures else args.figures))
    # Figures this invocation has run, handed on to the claims check.
    figures = {}
    for name in wanted:
        if name == "claims":
            print(render_claims(evaluate_claims(config, figures=figures)))
            print()
            continue
        if name == "report":
            from repro.bench.reportgen import write_report
            write_report(args.output, config)
            print(f"report written to {args.output}")
            print()
            continue
        figure = figures[name] = ALL_FIGURES[name](config)
        print(render_table(figure))
        if name == "fig1":
            from repro.bench.report import render_figure1_paper_layout
            print()
            print(render_figure1_paper_layout(figure))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
