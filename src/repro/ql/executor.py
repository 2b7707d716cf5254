"""Executor for mini-POSTQUEL.

The executor is where the paper's ADT story comes together:

* functions in a target list are resolved by argument *types* and run
  inside the database (§3);
* a large-ADT argument is handed to the function as an **open file-like
  descriptor**, never as an in-memory blob (§3's first problem with small
  ADTs);
* a function returning a large ADT creates a **temporary large object**
  through its context, and temporaries that do not survive into stored
  tuples or the final result are garbage-collected when the query ends
  (§5);
* a class reference may carry a time-travel suffix
  (``from EMP["<stamp>"]``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Any

from repro.access.scan import IndexProbe, IndexRangeScan, SeqScan
from repro.access.schema import SCALAR_TYPES, Attribute
from repro.adt.values import Datum
from repro.errors import ExecutionError
from repro.lo.interface import LargeObject
from repro.lo.temporary import TemporaryObjects
from repro.ql import ast
from repro.ql.parser import parse
from repro.txn.manager import Transaction


@dataclass
class QueryResult:
    """Outcome of one statement."""

    columns: list[str]
    rows: list[tuple]
    count: int
    #: Designators of temporary large objects kept alive because they
    #: appear in ``rows``; the caller owns unlinking them.
    temporaries: set[str]

    def scalar(self) -> Any:
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, have "
                f"{len(self.rows)}x{len(self.columns)}")
        return self.rows[0][0]

    def first(self) -> tuple | None:
        return self.rows[0] if self.rows else None


class FunctionContext:
    """What a user-defined function may do to the database.

    Passed as the first argument to functions registered with
    ``needs_context=True`` — typically functions that return large ADTs
    and must materialize the result as a temporary object (§5).
    """

    def __init__(self, executor: "Executor", txn: Transaction,
                 temps: TemporaryObjects):
        self.db = executor.db
        self.txn = txn
        self.temps = temps

    def create_temporary(self, impl: str = "fchunk",
                         compression: str = "none") -> str:
        """A fresh temporary large object; collected unless it escapes."""
        designator = self.db.lo.create(self.txn, impl,
                                       compression=compression)
        return self.temps.register(designator)

    def create_temporary_for_type(self, type_name: str) -> str:
        """A temporary stored per a large ADT's storage clause."""
        designator = self.db.lo.create_for_type(self.txn, type_name)
        return self.temps.register(designator)

    def open(self, designator: str, mode: str = "r") -> LargeObject:
        """Open a large object within the function's transaction."""
        return self.db.lo.open(designator, self.txn, mode)


def _walk_classes(node: Any, found: set[str]) -> None:
    """Collect class names referenced by attribute refs under *node*."""
    if isinstance(node, ast.AttributeRef):
        found.add(node.class_name)
    elif is_dataclass(node):
        for field_ in fields(node):
            _walk_classes(getattr(node, field_.name), found)
    elif isinstance(node, tuple):
        for item in node:
            _walk_classes(item, found)


class Executor:
    """Runs parsed statements against a database."""

    def __init__(self, db):
        self.db = db
        self._ensure_builtins()

    def _ensure_builtins(self) -> None:
        if not self.db.functions.exists("newfilename"):
            self.db.register_function(
                "newfilename", (), "text",
                lambda ctx: ctx.db.lo.newfilename(ctx.txn),
                needs_context=True)

    # -- entry point ---------------------------------------------------------------------

    def execute(self, query: str,
                txn: Transaction | None = None) -> QueryResult:
        statement = parse(query)
        own_txn = txn is None
        if own_txn:
            txn = self.db.begin()
        temps = TemporaryObjects(self.db, txn)
        try:
            result = self._dispatch(statement, txn, temps)
            for designator in result.temporaries:
                temps.keep(designator)
            temps.collect()
            if own_txn:
                txn.commit()
            return result
        except BaseException:
            if own_txn and txn.is_active:
                txn.abort()
            raise

    def explain(self, query: str) -> str:
        """A one-paragraph description of how *query* would execute.

        Shows the access path (sequential scan vs. index probe), the
        presence of a filter, time travel, sorting, aggregation, and
        materialization — without running anything.
        """
        statement = parse(query)
        if not isinstance(statement, ast.Retrieve):
            return f"{type(statement).__name__.lower()} (utility statement)"
        class_ref = self._single_class(statement, statement.from_class)
        statement = self._expand_all_targets(statement, class_ref)
        lines = []
        if class_ref is None:
            lines.append("evaluate targets over a single empty row")
        else:
            path = self._access_path(class_ref, statement.qualification)
            if path is None:
                lines.append(f"sequential scan of {class_ref.name}")
            else:
                kind, index_name, attribute, lo, hi = path
                where = f"{index_name} on {class_ref.name}.{attribute}"
                if kind == "probe":
                    lines.append(f"index probe {where} = {lo}")
                else:
                    lines.append(
                        f"index range scan {where} in "
                        f"[{'-inf' if lo is None else lo}, "
                        f"{'+inf' if hi is None else hi}]")
            if class_ref.as_of is not None:
                if class_ref.until is not None:
                    lines.append(f"  time range [{class_ref.as_of:g}, "
                                 f"{class_ref.until:g}]")
                else:
                    lines.append(f"  as of {class_ref.as_of:g}")
            if statement.qualification is not None:
                lines.append("  filter: qualification re-checked per tuple")
        if self._is_aggregate_query(statement):
            names = ", ".join(t.expr.name for t in statement.targets)
            lines.append(f"aggregate: {names}")
        if statement.sort_by:
            lines.append(f"sort by {len(statement.sort_by)} key(s)")
        if statement.into:
            lines.append(f"materialize into new class {statement.into}")
        return "\n".join(lines)

    def execute_script(self, script: str,
                       txn: Transaction | None = None) -> list[QueryResult]:
        """Run `;`-separated statements, all in one transaction."""
        from repro.ql.parser import Parser
        statements = Parser(script).parse_script()
        own_txn = txn is None
        if own_txn:
            txn = self.db.begin()
        results = []
        try:
            for statement in statements:
                temps = TemporaryObjects(self.db, txn)
                result = self._dispatch(statement, txn, temps)
                for designator in result.temporaries:
                    temps.keep(designator)
                temps.collect()
                results.append(result)
            if own_txn:
                txn.commit()
            return results
        except BaseException:
            if own_txn and txn.is_active:
                txn.abort()
            raise

    def _dispatch(self, statement, txn, temps) -> QueryResult:
        if isinstance(statement, ast.Retrieve):
            return self._retrieve(statement, txn, temps)
        if isinstance(statement, ast.Append):
            return self._append(statement, txn, temps)
        if isinstance(statement, ast.Replace):
            return self._replace(statement, txn, temps)
        if isinstance(statement, ast.Delete):
            return self._delete(statement, txn, temps)
        if isinstance(statement, ast.CreateClass):
            return self._create_class(statement)
        if isinstance(statement, ast.CreateLargeType):
            return self._create_large_type(statement)
        if isinstance(statement, ast.DestroyClass):
            self.db.drop_class(statement.name)
            return QueryResult([], [], 0, set())
        if isinstance(statement, ast.DefineIndex):
            self.db.create_index(statement.name, statement.class_name,
                                 statement.attribute)
            return QueryResult([], [], 0, set())
        raise ExecutionError(f"unsupported statement {statement!r}")

    # -- DDL -----------------------------------------------------------------------------------

    def _create_class(self, statement: ast.CreateClass) -> QueryResult:
        columns = [(c.name, c.type_name) for c in statement.columns]
        self.db.create_class(statement.name, columns,
                             smgr=statement.storage_manager)
        return QueryResult([], [], 0, set())

    def _create_large_type(self,
                           statement: ast.CreateLargeType) -> QueryResult:
        self.db.create_large_type(statement.name,
                                  storage=statement.storage,
                                  compression=statement.compression)
        return QueryResult([], [], 0, set())

    # -- statement execution ---------------------------------------------------------------------

    def _single_class(self, statement, from_class) -> ast.ClassRef | None:
        """The one class a statement ranges over (or None)."""
        referenced: set[str] = set()
        _walk_classes(statement, referenced)
        if from_class is not None:
            referenced.discard(from_class.name)
            if referenced:
                raise ExecutionError(
                    f"query references classes {sorted(referenced)} "
                    f"outside its from-clause ({from_class.name})")
            return from_class
        if not referenced:
            return None
        if len(referenced) > 1:
            raise ExecutionError(
                f"joins are not supported (classes: {sorted(referenced)})")
        return ast.ClassRef(referenced.pop(), None)

    def _matching_tuples(self, class_ref, qualification, txn, temps):
        relation = self.db.get_class(class_ref.name)
        snapshot = self.db.snapshot(txn, as_of=class_ref.as_of,
                                    until=class_ref.until)
        source = self._tuple_source(class_ref, qualification, relation,
                                    snapshot)
        for tup in source:
            if qualification is not None:
                keep = self._eval(qualification, txn, temps,
                                  (class_ref.name, relation, tup))
                if not keep.value:
                    continue
            yield relation, tup

    def _access_path(self, class_ref, qualification):
        """The access path a scan of *class_ref* takes, which
        :meth:`explain` describes and :meth:`_tuple_source` runs:
        ``("probe", index, attribute, key, key)``, ``("range", index,
        attribute, lo, hi)``, or ``None`` for a sequential scan.

        An equality conjunct ``CLASS.attr = <integer literal>`` over an
        indexed attribute is an index probe, and inequality conjuncts
        (``>=``/``<=``/``>``/``<``, alone or paired BETWEEN-style) are
        one index range scan over the leaf chain.  Historical scans
        always walk the heap, which chains the class's archive
        (:class:`~repro.access.scan.SeqScan`).
        """
        if class_ref.as_of is not None or qualification is None:
            return None
        probe = self._find_index_probe(class_ref.name, qualification)
        if probe is not None:
            index_name, attribute, key = probe
            return "probe", index_name, attribute, key, key
        rng = self._find_index_range(class_ref.name, qualification)
        return None if rng is None else ("range", *rng)

    def _tuple_source(self, class_ref, qualification, relation, snapshot):
        """The tuples of *class_ref* along its :meth:`_access_path`."""
        path = self._access_path(class_ref, qualification)
        if path is None:
            yield from SeqScan(self.db, relation).tuples(snapshot)
            return
        kind, index_name, attribute, lo, hi = path
        index = self.db.get_index(index_name)
        position = relation.schema.position(attribute)
        if kind == "probe":
            # The scan descriptor materializes under the engine latch and
            # re-checks the key against the fetched tuple (stale entries
            # must never surface); qualifications are evaluated outside
            # the latch, so user functions can run DML without
            # lock-before-latch issues.
            yield from IndexProbe(
                self.db, index, relation, (lo,),
                recheck_position=position).tuples(snapshot)
            return
        fetched = IndexRangeScan(
            self.db, index, relation,
            None if lo is None else (lo,),
            None if hi is None else (hi,)).tuples(snapshot)
        for tup in fetched:
            # Re-check bounds: stale entries must never surface.
            value = tup.values[position]
            if value is None:
                continue
            if lo is not None and value < lo:
                continue
            if hi is not None and value > hi:
                continue
            yield tup

    def _find_index_probe(self, class_name: str,
                          qualification) -> tuple[str, str, int] | None:
        """(index, attribute, key) for an indexable equality conjunct."""
        if isinstance(qualification, ast.BinaryOp):
            if qualification.op == "and":
                return (self._find_index_probe(class_name,
                                               qualification.left)
                        or self._find_index_probe(class_name,
                                                  qualification.right))
            if qualification.op == "=":
                for ref, lit in ((qualification.left, qualification.right),
                                 (qualification.right, qualification.left)):
                    if (isinstance(ref, ast.AttributeRef)
                            and ref.class_name == class_name
                            and isinstance(lit, ast.Literal)
                            and isinstance(lit.value, int)
                            and not isinstance(lit.value, bool)):
                        for entry in self.db.catalog.indexes_on(class_name):
                            if entry.attribute == ref.attribute:
                                return entry.name, entry.attribute, lit.value
        return None

    #: How a comparison flips when the literal is on the left.
    _MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

    def _collect_bounds(self, class_name: str, qualification,
                        bounds: dict) -> None:
        """Accumulate attr -> [(op, int)] from top-level AND conjuncts."""
        if not isinstance(qualification, ast.BinaryOp):
            return
        if qualification.op == "and":
            self._collect_bounds(class_name, qualification.left, bounds)
            self._collect_bounds(class_name, qualification.right, bounds)
            return
        if qualification.op not in self._MIRRORED:
            return
        for ref, lit, flipped in (
                (qualification.left, qualification.right, False),
                (qualification.right, qualification.left, True)):
            if (isinstance(ref, ast.AttributeRef)
                    and ref.class_name == class_name
                    and isinstance(lit, ast.Literal)
                    and isinstance(lit.value, int)
                    and not isinstance(lit.value, bool)):
                op = (self._MIRRORED[qualification.op] if flipped
                      else qualification.op)
                bounds.setdefault(ref.attribute, []).append((op, lit.value))

    def _find_index_range(self, class_name: str, qualification) -> (
            tuple[str, str, int | None, int | None] | None):
        """(index, attribute, lo, hi) for an indexable inequality range.

        Strict bounds are tightened to inclusive integer bounds (the
        indexable attributes are integers), so ``a > 5 and a < 9``
        becomes the key range ``[6, 8]``.  Either side may be open.
        """
        bounds: dict[str, list[tuple[str, int]]] = {}
        self._collect_bounds(class_name, qualification, bounds)
        for entry in self.db.catalog.indexes_on(class_name):
            constraints = bounds.get(entry.attribute)
            if not constraints:
                continue
            lo: int | None = None
            hi: int | None = None
            for op, value in constraints:
                if op == ">":
                    value += 1
                    op = ">="
                elif op == "<":
                    value -= 1
                    op = "<="
                if op == ">=":
                    lo = value if lo is None else max(lo, value)
                else:
                    hi = value if hi is None else min(hi, value)
            return entry.name, entry.attribute, lo, hi
        return None

    def _expand_all_targets(self, statement: ast.Retrieve,
                            class_ref) -> ast.Retrieve:
        """POSTQUEL's ``CLASS.all``: expand to every attribute."""
        if not any(isinstance(t.expr, ast.AttributeRef)
                   and t.expr.attribute == "all"
                   for t in statement.targets):
            return statement
        expanded: list[ast.Target] = []
        for target in statement.targets:
            expr = target.expr
            if isinstance(expr, ast.AttributeRef) and expr.attribute == "all":
                relation = self.db.get_class(expr.class_name)
                expanded.extend(
                    ast.Target(ast.AttributeRef(expr.class_name, name))
                    for name in relation.schema.names())
            else:
                expanded.append(target)
        return ast.Retrieve(tuple(expanded), statement.from_class,
                            statement.qualification, into=statement.into,
                            sort_by=statement.sort_by)

    #: Aggregate target functions: name -> (combine(values), result type
    #: or None to inherit the argument's type).
    _AGGREGATES = {
        "count": (len, "int4"),
        "sum": (sum, None),
        "avg": (lambda vs: sum(vs) / len(vs) if vs else None, "float8"),
        "min": (lambda vs: min(vs) if vs else None, None),
        "max": (lambda vs: max(vs) if vs else None, None),
    }

    def _is_aggregate_query(self, statement: ast.Retrieve) -> bool:
        found = any(isinstance(t.expr, ast.FunctionCall)
                    and t.expr.name in self._AGGREGATES
                    and not self.db.functions.exists(t.expr.name)
                    for t in statement.targets)
        if found and not all(
                isinstance(t.expr, ast.FunctionCall)
                and t.expr.name in self._AGGREGATES
                for t in statement.targets):
            raise ExecutionError(
                "aggregates cannot be mixed with plain targets")
        return found

    def _retrieve_aggregate(self, statement: ast.Retrieve, class_ref,
                            txn, temps) -> QueryResult:
        """``retrieve (count(EMP.name), avg(EMP.salary)) where ...``"""
        if class_ref is None:
            raise ExecutionError("aggregates need a class to range over")
        columns = [self._target_name(i, t)
                   for i, t in enumerate(statement.targets)]
        collected: list[list] = [[] for _ in statement.targets]
        arg_types: list[str | None] = [None] * len(statement.targets)
        for _relation, tup in self._matching_tuples(
                class_ref, statement.qualification, txn, temps):
            row_ctx = (class_ref.name, _relation, tup)
            for position, target in enumerate(statement.targets):
                if len(target.expr.args) != 1:
                    raise ExecutionError(
                        f"aggregate {target.expr.name} takes exactly "
                        f"one argument")
                (argument,) = target.expr.args
                datum = self._eval(argument, txn, temps, row_ctx)
                arg_types[position] = datum.type_name
                if datum.value is not None:
                    collected[position].append(datum.value)
        row = []
        for position, target in enumerate(statement.targets):
            combine, _result_type = self._AGGREGATES[target.expr.name]
            row.append(combine(collected[position]))
        return QueryResult(columns, [tuple(row)], 1, set())

    def _retrieve(self, statement: ast.Retrieve, txn,
                  temps) -> QueryResult:
        class_ref = self._single_class(statement, statement.from_class)
        statement = self._expand_all_targets(statement, class_ref)
        if self._is_aggregate_query(statement):
            return self._retrieve_aggregate(statement, class_ref, txn,
                                            temps)
        columns = [self._target_name(i, target)
                   for i, target in enumerate(statement.targets)]
        rows = []
        sort_keys = []
        if class_ref is None:
            row = tuple(self._eval(t.expr, txn, temps, None)
                        for t in statement.targets)
            rows.append(row)
        else:
            for _relation, tup in self._matching_tuples(
                    class_ref, statement.qualification, txn, temps):
                row_ctx = (class_ref.name, _relation, tup)
                rows.append(tuple(
                    self._eval(t.expr, txn, temps, row_ctx)
                    for t in statement.targets))
                if statement.sort_by:
                    sort_keys.append(tuple(
                        self._eval(expr, txn, temps, row_ctx).value
                        for expr, _desc in statement.sort_by))
        if statement.sort_by and rows:
            rows = self._sorted_rows(rows, sort_keys, statement.sort_by)
        kept = {d.value for row in rows for d in row
                if isinstance(d.value, str) and d.value in temps.pending()}
        if statement.into is not None:
            return self._materialize_into(statement, columns, rows, txn,
                                          temps)
        plain_rows = [tuple(d.value for d in row) for row in rows]
        return QueryResult(columns, plain_rows, len(plain_rows), kept)

    def _materialize_into(self, statement: ast.Retrieve,
                          columns: list[str], rows, txn,
                          temps) -> QueryResult:
        """``retrieve into NEWCLASS``: create the class and fill it."""
        types = []
        for position, target in enumerate(statement.targets):
            inferred = self._static_type(target.expr)
            if inferred is None and rows:
                inferred = rows[0][position].type_name
            types.append(inferred or "text")
        relation = self.db.create_class(statement.into,
                                        list(zip(columns, types)))
        for row in rows:
            values = tuple(
                self._coerce(datum, relation.schema.attributes[i], temps)
                for i, datum in enumerate(row))
            self.db.insert(txn, statement.into, values)
        return QueryResult(columns, [], len(rows), set())

    def _static_type(self, expr) -> str | None:
        """Best-effort type of an expression without evaluating it."""
        if isinstance(expr, ast.Literal):
            return Datum.infer(expr.value).type_name
        if isinstance(expr, ast.AttributeRef):
            try:
                relation = self.db.get_class(expr.class_name)
                return relation.schema.attribute(expr.attribute).type_name
            except Exception:
                return None
        if isinstance(expr, ast.Cast):
            return expr.type_name
        if isinstance(expr, ast.FunctionCall):
            candidates = self.db.functions._by_name.get(expr.name, [])
            returns = {c.return_type for c in candidates}
            return returns.pop() if len(returns) == 1 else None
        if isinstance(expr, ast.UnaryOp) and expr.op == "-":
            return self._static_type(expr.operand)
        return None

    @staticmethod
    def _sorted_rows(rows, sort_keys, sort_by):
        """Stable multi-key sort honouring per-key direction."""
        order = list(range(len(rows)))
        # Sort by the least-significant key first (stable sorts compose).
        for position in reversed(range(len(sort_by))):
            descending = sort_by[position][1]
            order.sort(key=lambda i: sort_keys[i][position],
                       reverse=descending)
        return [rows[i] for i in order]

    @staticmethod
    def _target_name(position: int, target: ast.Target) -> str:
        if target.name:
            return target.name
        expr = target.expr
        if isinstance(expr, ast.AttributeRef):
            return expr.attribute
        if isinstance(expr, ast.FunctionCall):
            return expr.name
        return f"column{position + 1}"

    def _append(self, statement: ast.Append, txn, temps) -> QueryResult:
        relation = self.db.get_class(statement.class_name)
        values = self._build_row(relation, statement.assignments, None,
                                 txn, temps)
        self.db.insert(txn, statement.class_name, values)
        return QueryResult([], [], 1, set())

    def _replace(self, statement: ast.Replace, txn, temps) -> QueryResult:
        class_ref = ast.ClassRef(statement.class_name, None)
        count = 0
        matches = list(self._matching_tuples(
            class_ref, statement.qualification, txn, temps))
        for relation, tup in matches:
            values = self._build_row(relation, statement.assignments,
                                     (statement.class_name, relation, tup),
                                     txn, temps)
            self.db.replace(txn, statement.class_name, tup.tid, values)
            count += 1
        return QueryResult([], [], count, set())

    def _delete(self, statement: ast.Delete, txn, temps) -> QueryResult:
        class_ref = ast.ClassRef(statement.class_name, None)
        count = 0
        matches = list(self._matching_tuples(
            class_ref, statement.qualification, txn, temps))
        for _relation, tup in matches:
            self.db.delete(txn, statement.class_name, tup.tid)
            count += 1
        return QueryResult([], [], count, set())

    def _build_row(self, relation, assignments, row_ctx, txn,
                   temps) -> tuple:
        """Evaluate assignments into a full tuple for *relation*."""
        if row_ctx is not None:
            values = list(row_ctx[2].values)
        else:
            values = [None] * len(relation.schema)
        for name, expr in assignments:
            position = relation.schema.position(name)
            attr = relation.schema.attributes[position]
            datum = self._eval(expr, txn, temps, row_ctx)
            values[position] = self._coerce(datum, attr, temps)
        return tuple(values)

    # -- value coercion -----------------------------------------------------------------------------

    def _coerce(self, datum: Datum, attr: Attribute, temps) -> Any:
        """Convert *datum* into the stored form for column *attr*."""
        definition = self.db.types.get(attr.type_name)
        if definition.is_large:
            if not isinstance(datum.value, str):
                raise ExecutionError(
                    f"column {attr.name!r} stores a large-object "
                    f"designator, got {datum.type_name}")
            temps.keep(datum.value)  # stored: survives GC (§5)
            return datum.value
        if attr.type_name in SCALAR_TYPES:
            return self._coerce_scalar(datum, attr)
        # Custom small ADT: store its text rendering.
        if datum.type_name == attr.type_name:
            return definition.render(datum.value)
        if datum.type_name in ("text", "name"):
            definition.parse(datum.value)  # validate
            return datum.value
        raise ExecutionError(
            f"cannot store a {datum.type_name} into column "
            f"{attr.name!r} of type {attr.type_name}")

    def _coerce_scalar(self, datum: Datum, attr: Attribute) -> Any:
        target = attr.type_name
        value = datum.value
        widening = {
            "int8": ("int4", "oid"),
            "oid": ("int4", "int8"),
            "float8": ("int4", "int8"),
            "text": ("name",),
            "name": ("text",),
            "int4": (),
            "bool": (),
            "bytea": (),
        }
        if datum.type_name == target:
            return value
        if datum.type_name in widening.get(target, ()):
            return float(value) if target == "float8" else value
        if datum.type_name in ("text", "name"):
            return self.db.types.get(target).parse(value)
        raise ExecutionError(
            f"cannot store a {datum.type_name} into column "
            f"{attr.name!r} of type {target}")

    # -- expression evaluation -------------------------------------------------------------------------

    def _eval(self, node, txn, temps, row_ctx) -> Datum:
        if isinstance(node, ast.Literal):
            return Datum.infer(node.value)
        if isinstance(node, ast.AttributeRef):
            return self._eval_attribute(node, row_ctx)
        if isinstance(node, ast.Cast):
            operand = self._eval(node.operand, txn, temps, row_ctx)
            definition = self.db.types.get(node.type_name)
            if operand.type_name == node.type_name:
                return operand
            return Datum(node.type_name, definition.parse(str(operand.value)))
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, txn, temps, row_ctx)
            if node.op == "not":
                return Datum("bool", not operand.value)
            return Datum(operand.type_name, -operand.value)
        if isinstance(node, ast.BinaryOp):
            return self._eval_binary(node, txn, temps, row_ctx)
        if isinstance(node, ast.FunctionCall):
            return self._eval_call(node, txn, temps, row_ctx)
        raise ExecutionError(f"cannot evaluate {node!r}")

    def _eval_attribute(self, node: ast.AttributeRef, row_ctx) -> Datum:
        if row_ctx is None:
            raise ExecutionError(
                f"{node.class_name}.{node.attribute} used outside a "
                f"class context")
        class_name, relation, tup = row_ctx
        if node.class_name != class_name:
            raise ExecutionError(
                f"attribute of {node.class_name!r} in a query over "
                f"{class_name!r}")
        position = relation.schema.position(node.attribute)
        attr = relation.schema.attributes[position]
        raw = tup.values[position]
        definition = self.db.types.get(attr.type_name)
        if (not definition.is_large and attr.type_name not in SCALAR_TYPES
                and raw is not None):
            return Datum(attr.type_name, definition.parse(raw))
        return Datum(attr.type_name, raw)

    _COMPARISONS = {
        "=": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    def _eval_binary(self, node: ast.BinaryOp, txn, temps,
                     row_ctx) -> Datum:
        if node.op in ("and", "or"):
            left = self._eval(node.left, txn, temps, row_ctx)
            if node.op == "and" and not left.value:
                return Datum("bool", False)
            if node.op == "or" and left.value:
                return Datum("bool", True)
            right = self._eval(node.right, txn, temps, row_ctx)
            return Datum("bool", bool(right.value))
        left = self._eval(node.left, txn, temps, row_ctx)
        right = self._eval(node.right, txn, temps, row_ctx)
        if node.op in self._COMPARISONS:
            try:
                return Datum("bool",
                             self._COMPARISONS[node.op](left.value,
                                                        right.value))
            except TypeError as exc:
                raise ExecutionError(
                    f"cannot compare {left.type_name} {node.op} "
                    f"{right.type_name}") from exc
        definition = self.db.functions.resolve_operator(
            node.op, left.type_name, right.type_name)
        value = definition.fn(left.value, right.value)
        return Datum(definition.return_type, value)

    def _eval_call(self, node: ast.FunctionCall, txn, temps,
                   row_ctx) -> Datum:
        args = [self._eval(arg, txn, temps, row_ctx) for arg in node.args]
        definition = self.db.functions.resolve(
            node.name, tuple(a.type_name for a in args))
        call_args = []
        opened: list[LargeObject] = []
        try:
            for datum in args:
                type_def = (self.db.types.get(datum.type_name)
                            if self.db.types.exists(datum.type_name)
                            else None)
                if type_def is not None and type_def.is_large:
                    # §3: large values reach functions as open descriptors.
                    handle = self.db.lo.open(datum.value, txn, "r")
                    opened.append(handle)
                    call_args.append(handle)
                else:
                    call_args.append(datum.value)
            if definition.needs_context:
                context = FunctionContext(self, txn, temps)
                result = definition.fn(context, *call_args)
            else:
                result = definition.fn(*call_args)
        finally:
            for handle in opened:
                handle.close()
        if isinstance(result, LargeObject):
            result.close()
            result = result.designator
        return Datum(definition.return_type, result)
