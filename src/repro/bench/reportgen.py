"""One-shot markdown report of the whole evaluation.

``repro-bench report --scale 1`` regenerates every figure and the claim
checklist and writes a self-contained markdown document — the executable
version of EXPERIMENTS.md's measured columns.
"""

from __future__ import annotations

from repro.bench.claims import evaluate_claims
from repro.bench.figures import (
    MIPS,
    BenchConfig,
    run_figure1,
    run_figure2,
    run_figure3,
)
from repro.bench.report import (
    FigureResult,
    render_figure1_paper_layout,
)


def _figure_markdown(figure: FigureResult) -> str:
    header = "| " + " | ".join([""] + figure.col_labels) + " |"
    rule = "|" + "---|" * (len(figure.col_labels) + 1)
    lines = [f"### {figure.title}", "", header, rule]
    for row in figure.row_labels:
        cells = []
        for col in figure.col_labels:
            value = figure.cells.get((row, col))
            if value is None:
                cells.append("—")
            elif figure.unit == "bytes":
                cells.append(f"{int(value):,}")
            else:
                cells.append(f"{value:,.2f}")
        lines.append("| " + " | ".join([row] + cells) + " |")
    if figure.notes:
        lines.append("")
        for note in figure.notes:
            lines.append(f"*{note}*")
    return "\n".join(lines)


def generate_report(config: BenchConfig | None = None) -> str:
    """Run figures 1–3 and the claims; return a markdown report."""
    config = config or BenchConfig()
    fig1 = run_figure1(config)
    fig2 = run_figure2(config)
    fig3 = run_figure3(config)
    claims = evaluate_claims(config, figures={
        "fig1": fig1, "fig2": fig2, "fig3": fig3})

    lines = [
        "# Benchmark report — *Large Object Support in POSTGRES* "
        "reproduction",
        "",
        f"Scale: {config.scale:g} of the paper's 51.2 MB object; "
        f"CPU {MIPS:g} MIPS; buffer pool "
        f"{config.scaled_pool()} pages; WORM cache "
        f"{config.scaled_worm_cache()} blocks.",
        "",
        _figure_markdown(fig1),
        "",
        "```",
        render_figure1_paper_layout(fig1),
        "```",
        "",
        _figure_markdown(fig2),
        "",
        _figure_markdown(fig3),
        "",
        "## §9 prose claims",
        "",
        "| claim | paper | measured | verdict |",
        "|---|---|---|---|",
    ]
    for claim in claims:
        verdict = "PASS" if claim.holds else "FAIL"
        lines.append(f"| {claim.description} | {claim.paper_value} | "
                     f"{claim.measured:.3f} | {verdict} |")
    passed = sum(c.holds for c in claims)
    lines.append("")
    lines.append(f"**{passed}/{len(claims)} claims hold.**")
    return "\n".join(lines)


def write_report(path: str, config: BenchConfig | None = None) -> str:
    """Generate the report and write it to *path*; returns the text."""
    text = generate_report(config)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text
