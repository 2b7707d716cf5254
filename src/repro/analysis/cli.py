"""Command-line entry point for the invariant linter.

``python -m repro.analysis [--select RULES] [paths...]`` — also
installed as the ``repro-lint`` console script.  Exits 0 when the tree
is clean, 1 when there are findings or a selected rule's
``# repro: allow(...)`` comment suppressed nothing, 2 on usage errors.
``--doc`` prints the two tables docs/invariants.md embeds instead.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.core import Report, all_rules, analyze_paths
from repro.analysis.rules import DECLARED_SITES
from repro.txn.lockdep import HIERARCHY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=("AST-based invariant checks for the repro engine "
                     "(scan-layer discipline, smgr-only I/O, simulated "
                     "clock, transaction scope, declared single sites)"))
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to check (default: src/repro)")
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    parser.add_argument(
        "--doc", action="store_true",
        help="print docs/invariants.md's lock-hierarchy and R010 tables "
             "and exit")
    return parser


def _select_rules(spec: str) -> list:
    """Resolve a ``--select`` spec, validating every id up front.

    All unknown ids are reported together (not just the first), and an
    effectively empty selection (``--select ","``) is a usage error —
    silently running zero rules used to exit 0 and look like a clean
    tree.
    """
    ids = [rid.strip() for rid in spec.split(",") if rid.strip()]
    known = {rule.id: rule for rule in all_rules()}
    if not ids:
        raise ValueError(
            f"--select selected no rules from {spec!r} "
            f"(known rules: {', '.join(sorted(known))})")
    unknown = [rid for rid in ids if rid not in known]
    if unknown:
        raise ValueError(
            f"unknown rule(s) {', '.join(unknown)} "
            f"(known rules: {', '.join(sorted(known))})")
    return [known[rid] for rid in ids]


def render_text(report: Report) -> str:
    """ruff-style one-line-per-finding text, with a trailing summary."""
    lines = [
        f"{f.path}:{f.line}:{f.col + 1}: {f.rule} {f.message}"
        for f in report.findings
    ]
    for unused in report.unused_suppressions:
        lines.append(
            f"{unused.path}:{unused.line}: error: suppression for "
            f"{unused.rule} matched no finding (stale 'repro: allow'?)")
    noun = "finding" if len(report.findings) == 1 else "findings"
    summary = (f"{len(report.findings)} {noun} in "
               f"{report.files_checked} file(s) checked")
    if report.suppressed:
        summary += f" ({report.suppressed} suppressed)"
    if report.unused_suppressions:
        summary += (f" [{len(report.unused_suppressions)} unused "
                    f"suppression(s)]")
    clean = not report.findings and not report.unused_suppressions
    lines.append(f"OK — {summary}" if clean else summary)
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
              + ", ".join(f"`{module}` ({count})"
                          for module, count in row.sites.items())
              + f" | {row.why} |" for row in DECLARED_SITES]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.doc:
        print(render_doc_tables())
        return 0
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.name}: {rule.summary}")
        return 0

    try:
        rules = None if args.select is None else _select_rules(args.select)
        missing = [p for p in args.paths if not Path(p).exists()]
        if missing:
            raise ValueError(f"no such file or directory: "
                             f"{', '.join(missing)}")
    except ValueError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    report = analyze_paths(args.paths, rules)
    if report.files_checked == 0:
        print(f"error: no Python files under {', '.join(args.paths)}",
              file=sys.stderr)
        return 2
    print(render_text(report))
    return 1 if report.findings or report.unused_suppressions else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
