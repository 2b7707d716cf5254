"""Invariant linter: AST-based static checks for the engine's discipline.

The concurrency and recovery work (PRs 2–4) made the engine safe by
*convention*: heavyweight locks before the engine latch, raw heap/index
access only inside the scan layer, block I/O only through the storage
manager switch, wall-clock time only from the simulated clock.  Until
now those conventions were enforced by a runtime tripwire (the latch
probe, armed with ``REPRO_LOCKDEP=1``) that fires only on paths a test
happens to execute.  This package enforces them *statically*, on every
path, as part of CI.

Usage::

    python -m repro.analysis [--format json] [paths...]
    repro-lint src/repro

Each finding carries a rule id (``R001``..).  Intentional exceptions are
annotated in source with a suppression comment on (or directly above)
the offending line::

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
    analyze_file,
    analyze_paths,
    get_rule,
    register,
)
from repro.analysis.report import render_json, render_text

# Importing the rules modules populates the registry.
import repro.analysis.rules  # noqa: F401  (registration side effect)
import repro.analysis.lockdep  # noqa: F401  (R008/R009 registration)

__all__ = [
    "Finding",
    "ModuleInfo",
    "Report",
    "Rule",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "get_rule",
    "register",
    "render_json",
    "render_text",
]
