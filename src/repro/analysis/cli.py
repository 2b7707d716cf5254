"""Command-line entry point for the invariant linter.

``python -m repro.analysis [paths...]`` — also installed as the
``repro-lint`` console script.  Exits 0 when the tree is clean, 1 when
there are findings, 2 on usage errors.  ``--doc`` prints the two tables
docs/invariants.md embeds instead.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.core import Report, analyze_paths
from repro.analysis.rules import DECLARED_SITES
from repro.txn.lockdep import HIERARCHY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=("AST-based invariant checks for the repro engine "
                     "(where each declared pattern may occur)"))
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to check (default: src/repro)")
    parser.add_argument(
        "--doc", action="store_true",
        help="print docs/invariants.md's lock-hierarchy and R010 tables "
             "and exit")
    return parser


def render_text(report: Report) -> str:
    """ruff-style one-line-per-finding text, with a trailing summary."""
    lines = [
        f"{f.path}:{f.line}:{f.col + 1}: {f.rule} {f.message}"
        for f in report.findings
    ]
    noun = "finding" if len(report.findings) == 1 else "findings"
    summary = (f"{len(report.findings)} {noun} in "
               f"{report.files_checked} file(s) checked")
    lines.append(summary if report.findings else f"OK — {summary}")
    return "\n".join(lines)


def render_doc_tables() -> str:
    """The lock-hierarchy table (from ``txn/lockdep.py::HIERARCHY``) and
    the R010 table (from ``DECLARED_SITES``), one row per entry, as
    docs/invariants.md embeds them; a blank line between the two."""
    lines = ["| Rank | Domain | Class | What it protects |",
             "| ---: | --- | --- | --- |"]
    lines += [f"| {lock.rank} | {lock.domain} | `{lock.name}` | "
              f"{lock.summary} |" for lock in HIERARCHY.values()]
    lines += ["", "| Pattern | Declared sites | Why |", "| --- | --- | --- |"]
    lines += [f"| {row.pattern} | "
              + (", ".join(f"`{module}` ({count})"
                           for module, count in row.sites.items()) or "none")
              + f" | {row.why} |" for row in DECLARED_SITES]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.doc:
        print(render_doc_tables())
        return 0
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: no such file or directory: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    report = analyze_paths(args.paths)
    if report.files_checked == 0:
        print(f"error: no Python files under {', '.join(args.paths)}",
              file=sys.stderr)
        return 2
    print(render_text(report))
    return 1 if report.findings else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
