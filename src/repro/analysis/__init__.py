"""Invariant linter: AST-based static checks for the engine's discipline.

Two rules.  R010 reads one table, ``rules.DECLARED_SITES``: where raw
heap/index reads, file opens, wall-clock reads, broad swallowed
exceptions and buffer-slice copies may occur, and the single sites of
the no-overwrite store and of the heavy-lock protocol (one xmax writer,
one sweep, one archive reader, the declared ``locks.acquire`` calls,
...), each with an exact count per module.  R005 checks that a function
which begins a transaction ends it on its error path.  These hold on
every path, so this package checks every path, in tier-1 and in CI.
Lock *order* is the runtime validator's (``repro.txn.lockdep``, armed by
``REPRO_LOCKDEP=1``).

Usage::

    python -m repro.analysis [paths...]
    python -m repro.analysis --doc
    repro-lint src/repro

A new site of a declared pattern is a change to its row, made with the
reason it is needed.  The rules, the invariant each encodes, and the
reasoning behind them live in ``docs/invariants.md`` (and DESIGN.md
§5c for the locking discipline itself).
"""

from repro.analysis.core import (
    Finding,
    ModuleInfo,
    Report,
    Rule,
    all_rules,
    analyze_paths,
    get_rule,
    register,
)
from repro.analysis.cli import render_text

# Importing the rules module populates the registry.
import repro.analysis.rules  # noqa: F401  (registration side effect)

__all__ = [
    "Finding",
    "ModuleInfo",
    "Report",
    "Rule",
    "all_rules",
    "analyze_paths",
    "get_rule",
    "register",
    "render_text",
]
