"""Scripted fault plans: *when* to break, and *how*.

The crash-recovery harness needs faults at exact points in the commit
pipeline — "tear the second page write to the chunk file", "die after the
pages are forced but before the ``pg_log`` append".  A :class:`FaultPlan`
scripts those points declaratively.  The storage-manager switch holds
the armed plan and stamps it on every manager it hands out, so
``read``/``write``/``sync`` rules reach every relation on every manager
(the ``pg_largeobject`` size rows and Inversion system classes included)
and ``node`` rules every :class:`~repro.smgr.base.StorageNode`;
:class:`~repro.smgr.base.AppendLog` files (``pg_log`` and the catalog
journal) consult the same plan for ``append``.

Plans are built from :class:`FaultRule` objects or parsed from a one-line
-per-rule DSL::

    # op      file pattern     skip      action
    on write  heap_lo_17*      after 1:  torn 512
    on sync   *:                         error
    on append pg_log:                    crash
    on node   node1            after 40: down

* ``op`` is one of ``read`` / ``write`` (one block) / ``sync`` (one
  file; either however many replicas it fans out to),
  ``append`` (one record written to ``pg_log`` or ``catalog.journal``),
  or ``node`` (a health transition of one storage node).
* the file pattern is an :mod:`fnmatch` glob over the relation file id
  (the log's file name for appends, the node id for ``node`` rules).
* ``after N`` lets the first *N* matching operations through unharmed
  (for ``node`` rules: the node's first *N* block accesses — which is how
  a node gets killed *mid*-workload).
* the action is ``error`` (raise :class:`StorageManagerError`; the process
  survives and the transaction manager aborts the transaction), ``crash``
  (raise :class:`SimulatedCrash` with nothing persisted), or ``torn N``
  (persist only the first *N* bytes of the payload, then crash — a torn
  page or torn log record, the signature failure of *To BLOB or Not To
  BLOB*'s write-path fault tests).  ``node`` rules instead take a health
  state — ``down`` / ``slow`` / ``flaky`` / ``up`` — applied to the
  matching node; they never raise by themselves (the node's own gate does
  the raising, and a replicated manager absorbs it replica by replica).

After a ``crash``/``torn`` rule fires the plan is **halted**: any further
guarded operation raises :class:`SimulatedCrash` immediately, because a
dead process performs no further I/O.  The test harness catches the
exception, discards the in-memory database object, and reopens the
directory from disk.

Every consulted operation is appended to :attr:`FaultPlan.trace` — a cheap
protocol checker: the force-at-commit tests arm an empty plan and assert
that a ``sync`` for each touched file follows its writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from repro.errors import SimulatedCrash, StorageManagerError

#: Operations a rule may guard.
FAULT_OPS = ("read", "write", "sync", "append", "node")

#: Actions an I/O rule may take when it fires.
FAULT_ACTIONS = ("error", "crash", "torn")

#: Health states a ``node`` rule may put a storage node in.
NODE_ACTIONS = ("down", "slow", "flaky", "up")


@dataclass
class FaultRule:
    """One trigger point: fail operation *op* on files matching *pattern*.

    ``after`` matching operations are let through before the rule fires.
    ``error`` rules keep firing on every later match (a persistently bad
    device); ``crash``/``torn`` rules fire once and halt the whole plan.
    """

    op: str
    pattern: str = "*"
    after: int = 0
    action: str = "error"
    keep_bytes: int = 0
    #: Matching operations seen so far (runtime state).
    seen: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.op not in FAULT_OPS:
            raise ValueError(
                f"unknown fault op {self.op!r} (have: {FAULT_OPS})")
        if self.op == "node":
            if self.action not in NODE_ACTIONS:
                raise ValueError(
                    f"unknown node action {self.action!r} "
                    f"(have: {NODE_ACTIONS})")
        elif self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} "
                f"(have: {FAULT_ACTIONS})")
        if self.after < 0:
            raise ValueError(f"negative 'after' count {self.after}")
        if self.action == "torn":
            if self.op not in ("write", "append"):
                raise ValueError(
                    f"torn faults apply to write/append, not {self.op!r}")
            if self.keep_bytes < 0:
                raise ValueError(
                    f"torn fault keeps a non-negative prefix, "
                    f"got {self.keep_bytes}")

    def matches(self, op: str, fileid: str) -> bool:
        return op == self.op and fnmatchcase(fileid, self.pattern)

    def __str__(self) -> str:
        suffix = f" {self.keep_bytes}" if self.action == "torn" else ""
        skip = f" after {self.after}" if self.after else ""
        return f"on {self.op} {self.pattern}{skip}: {self.action}{suffix}"


class FaultPlan:
    """An ordered set of fault rules plus their shared runtime state."""

    def __init__(self, rules: list[FaultRule] | None = None):
        self.rules = list(rules or [])
        #: True once a crash/torn rule fired; all guarded I/O then fails.
        self.halted = False
        #: Human-readable record of every fault delivered, oldest first.
        self.fired: list[str] = []
        #: Every (operation, fileid) consulted while this plan was armed.
        self.trace: list[tuple[str, str]] = []

    def check(self, op: str, fileid: str) -> FaultRule | None:
        """The rule firing for this operation, or ``None`` to proceed.

        Counts the operation against every matching rule, so ``after``
        budgets keep ticking even while another rule is firing first.
        The first eligible rule wins — except among ``node`` rules (*fileid*
        is the node id), where the *last* does, so ``on node n0: down`` then
        ``on node n0 after 6: up`` scripts a transition sequence.
        Raises :class:`SimulatedCrash` outright when the plan is halted.
        """
        self.trace.append((op, fileid))
        if self.halted:
            raise SimulatedCrash(
                f"{op} of {fileid!r} after a simulated crash "
                f"(the harness should have reopened the database)")
        firing = None
        for rule in self.rules:
            if not rule.matches(op, fileid):
                continue
            rule.seen += 1
            if rule.seen > rule.after and (firing is None or op == "node"):
                firing = rule
        return firing

    def op_count(self, op: str, fileid: str | None = None) -> int:
        """How many *op* calls (optionally on *fileid*) were consulted."""
        return sum(1 for seen_op, seen_file in self.trace
                   if seen_op == op
                   and (fileid is None or seen_file == fileid))

    def fire(self, rule: FaultRule, detail: str) -> None:
        """Deliver *rule*'s fault (always raises).

        The caller has already persisted the torn prefix if the action is
        ``torn``; this method only records the event and raises.
        """
        self.fired.append(f"{rule.action}: {detail}")
        if rule.action == "error":
            raise StorageManagerError(f"injected device error: {detail}")
        self.halted = True
        raise SimulatedCrash(f"simulated crash ({rule.action}): {detail}")

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "halted" if self.halted else "armed"
        return f"FaultPlan({len(self.rules)} rules, {state})"


def parse_plan(text: str) -> FaultPlan:
    """Parse the fault-plan DSL (see the module docstring) into a plan.

    One rule per line; blank lines and ``#`` comments are ignored.
    Raises :class:`ValueError` with the offending line on any mistake.
    """
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rules.append(_parse_rule(line, lineno))
    return FaultPlan(rules)


def _parse_rule(line: str, lineno: int) -> FaultRule:
    def bad(why: str) -> ValueError:
        return ValueError(f"fault plan line {lineno}: {why}: {line!r}")

    if ":" not in line:
        raise bad("expected 'on <op> <pattern> [after N]: <action>'")
    head, _, action_part = line.partition(":")
    head_words = head.split()
    if len(head_words) < 3 or head_words[0] != "on":
        raise bad("trigger must be 'on <op> <pattern> [after N]'")
    op, pattern = head_words[1], head_words[2]
    after = 0
    if len(head_words) > 3:
        if len(head_words) != 5 or head_words[3] != "after":
            raise bad("unexpected words after the file pattern")
        try:
            after = int(head_words[4])
        except ValueError:
            raise bad(f"'after' wants an integer, got {head_words[4]!r}")
    action_words = action_part.split()
    if not action_words:
        raise bad("missing action")
    action = action_words[0]
    keep_bytes = 0
    if action == "torn":
        if len(action_words) != 2:
            raise bad("'torn' wants exactly one byte count")
        try:
            keep_bytes = int(action_words[1])
        except ValueError:
            raise bad(f"'torn' wants an integer, got {action_words[1]!r}")
    elif len(action_words) != 1:
        raise bad(f"unexpected words after action {action!r}")
    try:
        return FaultRule(op=op, pattern=pattern, after=after,
                         action=action, keep_bytes=keep_bytes)
    except ValueError as exc:
        raise bad(str(exc))
