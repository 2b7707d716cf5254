"""Paper-style text tables for benchmark results."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FigureResult:
    """One reproduced figure: a labelled grid of numbers."""

    title: str
    row_labels: list[str]
    col_labels: list[str]
    cells: dict[tuple[str, str], float] = field(default_factory=dict)
    unit: str = "seconds"
    notes: list[str] = field(default_factory=list)

    def set(self, row: str, col: str, value: float) -> None:
        if row not in self.row_labels:
            self.row_labels.append(row)
        if col not in self.col_labels:
            self.col_labels.append(col)
        self.cells[(row, col)] = value

    def get(self, row: str, col: str) -> float:
        return self.cells[(row, col)]

    def ratio(self, row: str, col_a: str, col_b: str) -> float:
        """cells[row, col_a] / cells[row, col_b]."""
        return self.get(row, col_a) / self.get(row, col_b)


def _format_value(value: float, unit: str) -> str:
    if unit == "bytes":
        return f"{int(value):,}"
    if value >= 100:
        return f"{value:,.0f}"
    if value >= 1:
        return f"{value:,.1f}"
    return f"{value:.2f}"


#: Figure 1's row layout in the paper, as (label, column label, component).
_PAPER_FIG1_ROWS = [
    ("User file", "user file", "data"),
    ("POSTGRES file", "POSTGRES file", "data"),
    ("f-chunk data", "f-chunk 0%", "data"),
    ("f-chunk B-tree index", "f-chunk 0%", "btree"),
    ("f-chunk data (30% compression)", "f-chunk 30%", "data"),
    ("f-chunk B-tree index", "f-chunk 30%", "btree"),
    ("v-segment data (30% compression)", "v-segment 30%", "data"),
    ("v-segment 2-level map", "v-segment 30%", "segment_map"),
    ("v-segment B-tree index", "v-segment 30%", "btree"),
    ("f-chunk data (50% compression)", "f-chunk 50%", "data"),
    ("f-chunk B-tree index", "f-chunk 50%", "btree"),
    ("v-segment data (50% compression)", "v-segment 50%", "data"),
    ("v-segment 2-level map", "v-segment 50%", "segment_map"),
    ("v-segment B-tree index", "v-segment 50%", "btree"),
]


def render_figure1_paper_layout(figure: FigureResult) -> str:
    """Figure 1 in the paper's own row order and labels."""
    lines = ["Storage Used by the Various Large Object Implementations",
             "-" * 56]
    for label, column, component in _PAPER_FIG1_ROWS:
        value = figure.cells.get((column, component))
        if value is None:
            continue
        lines.append(f"{label:<42}{int(value):>14,}")
    return "\n".join(lines)


def render_table(figure: FigureResult) -> str:
    """Monospace rendering, one row per row label."""
    col_width = max((len(c) for c in figure.col_labels), default=8)
    col_width = max(col_width, 10)
    row_width = max((len(r) for r in figure.row_labels), default=10) + 2
    lines = [figure.title, "=" * len(figure.title)]
    header = " " * row_width + "".join(
        f"{c:>{col_width + 2}}" for c in figure.col_labels)
    lines.append(header)
    lines.append("-" * len(header))
    for row in figure.row_labels:
        cells = []
        for col in figure.col_labels:
            value = figure.cells.get((row, col))
            text = "-" if value is None else _format_value(value,
                                                           figure.unit)
            cells.append(f"{text:>{col_width + 2}}")
        lines.append(f"{row:<{row_width}}" + "".join(cells))
    lines.append(f"(values in {figure.unit})")
    for note in figure.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
