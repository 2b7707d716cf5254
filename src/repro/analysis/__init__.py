"""Invariant linter: AST-based static checks for the engine's discipline.

Raw heap/index access only in the scan layer, block I/O only through the
storage-manager switch, time only from the simulated clock, and the
single sites of the no-overwrite store and of the heavy-lock protocol
(one xmax writer, one sweep, one archive reader, the declared
``locks.acquire`` calls, ...).  These hold on every path, so this package
checks every path, in tier-1 and in CI.  Lock *order* is the runtime
validator's (``repro.txn.lockdep``, armed by ``REPRO_LOCKDEP=1``).

Usage::

    python -m repro.analysis [--select RULES] [paths...]
    repro-lint src/repro

Each finding carries a rule id (``R001``..).  Intentional exceptions are
annotated in source with a suppression comment on (or directly above)
the offending line; one that suppresses nothing fails the run::

    handle = open(self.path, "ab")  # repro: allow(R003): own fsync discipline

The catalogue of rules, the invariant each encodes, and the reasoning
behind them live in ``docs/invariants.md`` (and DESIGN.md §5c for the
locking discipline itself).
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
