"""Invariant linter: AST-based static checks for the engine's discipline.

One rule, R010, reading one table, ``rules.DECLARED_SITES``: where raw
heap/index reads, file opens, wall-clock reads, broad swallowed
exceptions, buffer-slice copies and transactions begun outside a
``with`` item may occur, and the single sites of the no-overwrite store
and of the heavy-lock protocol (one xmax writer, one sweep, one archive
reader, the declared ``locks.acquire`` calls, ...), each with an exact
count per module.  These hold on every path, so this package checks
every path, in tier-1 and in CI.  Lock *order* is the runtime
validator's (``repro.txn.lockdep``, armed by ``REPRO_LOCKDEP=1``).

Usage::

    python -m repro.analysis [paths...]
    python -m repro.analysis --doc
    repro-lint src/repro

A new site of a declared pattern is a change to its row, made with the
reason it is needed.  The rows, the invariant each encodes, and the
reasoning behind them live in ``docs/invariants.md`` (and DESIGN.md
§5c for the locking discipline itself).
"""

from repro.analysis.core import (
    Finding,
    ModuleInfo,
    Report,
    analyze_paths,
    check,
)
from repro.analysis.cli import render_text

__all__ = [
    "Finding",
    "ModuleInfo",
    "Report",
    "analyze_paths",
    "check",
    "render_text",
]
