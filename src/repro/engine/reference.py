"""Reference evaluator: direct interpretation of query trees.

This is the semantics oracle for the whole project.  It evaluates a query
tree naively — nested-loop joins in from-list order, tuple-iteration
semantics for every subquery, no statistics, no plans — and is used by
the test suite to check that every transformation and every physical plan
preserves query results.

It deliberately mirrors the declarative reading of the query block:

* inner-join conjuncts are applied as soon as their aliases are bound;
* LEFT / SEMI / ANTI from-items implement outer join, semijoin and
  antijoin; ANTI_NA is the null-aware antijoin (a left row is rejected if
  any right row makes the condition TRUE *or* UNKNOWN);
* ROWNUM limits rows after WHERE, before GROUP BY and ORDER BY (Oracle
  semantics);
* INTERSECT / MINUS match NULLs and return duplicate-free results
  (§2.2.7 of the paper).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..errors import ExecutionError, UnsupportedError
from ..qtree.blocks import FromItem, QueryBlock, QueryNode, SetOpBlock
from ..qtree import exprutil
from ..sql import ast
from .expressions import (
    ExpressionCompiler,
    FunctionRegistry,
    Row,
    agg_key,
    is_true,
    sql_compare,
    sql_eq,
    window_key,
)
from .grouping import evaluate_group_by
from .tables import Storage
from .windows import compute_window


class ReferenceEvaluator:
    """Evaluates query trees directly against stored rows."""

    def __init__(
        self,
        storage: Storage,
        functions: Optional[FunctionRegistry] = None,
        binds: Optional[dict] = None,
    ):
        self._storage = storage
        self._functions = functions or FunctionRegistry()
        self._compiler = ExpressionCompiler(self._functions, _Runner(self), binds)

    # -- public API -----------------------------------------------------------

    def evaluate(self, node: QueryNode, outer_row: Optional[Row] = None) -> list[tuple]:
        """Evaluate *node*, returning result rows as tuples in output
        order."""
        outer = outer_row or {}
        if isinstance(node, SetOpBlock):
            return self._evaluate_setop(node, outer)
        if isinstance(node, QueryBlock):
            return [t for t, _row in self._evaluate_block(node, outer)]
        raise UnsupportedError(f"cannot evaluate {type(node).__name__}")

    # -- set operations ---------------------------------------------------------

    def _evaluate_setop(self, node: SetOpBlock, outer: Row) -> list[tuple]:
        branch_results = [self.evaluate(branch, outer) for branch in node.branches]
        if node.op == "UNION ALL":
            result: list[tuple] = []
            for rows in branch_results:
                result.extend(rows)
        elif node.op == "UNION":
            seen: set[tuple] = set()
            result = []
            for rows in branch_results:
                for row in rows:
                    if row not in seen:
                        seen.add(row)
                        result.append(row)
        elif node.op == "INTERSECT":
            left, right = branch_results
            right_set = set(right)
            seen = set()
            result = []
            for row in left:
                if row in right_set and row not in seen:
                    seen.add(row)
                    result.append(row)
        elif node.op == "MINUS":
            left, right = branch_results
            right_set = set(right)
            seen = set()
            result = []
            for row in left:
                if row not in right_set and row not in seen:
                    seen.add(row)
                    result.append(row)
        else:  # pragma: no cover - constructor validates
            raise UnsupportedError(node.op)
        if node.order_by:
            columns = node.output_columns()
            positions = {name: i for i, name in enumerate(columns)}

            for item in reversed(node.order_by):
                if not isinstance(item.expr, ast.ColumnRef):
                    raise UnsupportedError(
                        "set-operation ORDER BY must name output columns"
                    )
                pos = positions.get(item.expr.name)
                if pos is None:
                    raise ExecutionError(
                        f"unknown ORDER BY column {item.expr.name!r}"
                    )
                result.sort(key=lambda t: _sort_key(t[pos], item.descending),
                            reverse=item.descending)
        return result

    # -- query blocks ------------------------------------------------------------

    def _evaluate_block(
        self, block: QueryBlock, outer: Row
    ) -> list[tuple[tuple, Row]]:
        rows = self._join_rows(block, outer)
        if block.rownum_limit is not None:
            rows = rows[: block.rownum_limit]

        needs_grouping = bool(block.group_by) or block.has_aggregates
        if needs_grouping:
            rows = self._group_rows(block, rows)
            for conjunct in block.having_conjuncts:
                predicate = self._compiler.compile(conjunct)
                rows = [r for r in rows if is_true(predicate(r))]

        rows = self._compute_windows(block, rows)

        projections = [self._compiler.compile(i.expr) for i in block.select_items]
        projected = [(tuple(p(row) for p in projections), row) for row in rows]

        if block.distinct:
            seen: set[tuple] = set()
            deduped = []
            for pair in projected:
                if pair[0] not in seen:
                    seen.add(pair[0])
                    deduped.append(pair)
            projected = deduped

        if block.order_by:
            order_fns = [self._compiler.compile(o.expr) for o in block.order_by]
            for fn, item in reversed(list(zip(order_fns, block.order_by))):
                projected.sort(
                    key=lambda pair, fn=fn, d=item.descending: _sort_key(
                        fn(pair[1]), d
                    ),
                    reverse=item.descending,
                )
        return projected

    # -- join evaluation -----------------------------------------------------------

    def _join_rows(self, block: QueryBlock, outer: Row) -> list[Row]:
        local_aliases = block.aliases()
        pending = [
            (conjunct, exprutil.aliases_referenced(conjunct) & local_aliases)
            for conjunct in block.where_conjuncts
        ]
        applied: set[int] = set()
        current: list[Row] = [dict(outer)]
        bound: set[str] = set()

        for item in block.from_items:
            # Equality conjuncts between the bound prefix and this item
            # drive a hash lookup instead of a cross product — purely a
            # speed-up: `=` never matches NULL either way, and the
            # remaining conjuncts are still applied below.
            equi = None
            if item.join_type == "INNER":
                equi = self._applicable_equi(
                    pending, applied, bound, item.alias
                )
            current = self._expand_item(item, current, outer, equi)
            if equi is not None:
                applied.add(equi[0])
            bound.add(item.alias)
            for i, (conjunct, refs) in enumerate(pending):
                if i in applied or not refs <= bound:
                    continue
                predicate = self._compiler.compile(conjunct)
                current = [row for row in current if is_true(predicate(row))]
                applied.add(i)
        # Any conjunct with no local refs (e.g. pure outer-correlation or
        # constant) is applied at the end.
        for i, (conjunct, _refs) in enumerate(pending):
            if i in applied:
                continue
            predicate = self._compiler.compile(conjunct)
            current = [row for row in current if is_true(predicate(row))]
        return current

    def _applicable_equi(self, pending, applied, bound, alias):
        """Find one pending plain-equality conjunct joining *alias* to the
        bound prefix; returns (index, prefix_expr_fn, item_expr_fn)."""
        for i, (conjunct, refs) in enumerate(pending):
            if i in applied:
                continue
            if not isinstance(conjunct, ast.BinOp) or conjunct.op != "=":
                continue
            if ast.contains_subquery(conjunct):
                continue
            left_refs = exprutil.aliases_referenced(conjunct.left)
            right_refs = exprutil.aliases_referenced(conjunct.right)
            if left_refs and left_refs <= bound and right_refs == {alias}:
                return (i, self._compiler.compile(conjunct.left),
                        self._compiler.compile(conjunct.right))
            if right_refs and right_refs <= bound and left_refs == {alias}:
                return (i, self._compiler.compile(conjunct.right),
                        self._compiler.compile(conjunct.left))
        return None

    def _expand_item(
        self, item: FromItem, current: list[Row], outer: Row, equi=None
    ) -> list[Row]:
        if item.join_type == "INNER":
            result = []
            # A derived item correlated to anything beyond the outer
            # binding must be re-evaluated per row: no hash fast path.
            laterally_correlated = item.is_derived and any(
                ref.qualifier for ref in item.subquery.correlation_refs()
            )
            if equi is not None and not laterally_correlated:
                _idx, prefix_fn, item_fn = equi
                buckets: dict[object, list[Row]] = {}
                for addition in self._item_rows(item, outer):
                    key = item_fn(addition)
                    if key is None:
                        continue
                    buckets.setdefault(key, []).append(addition)
                for row in current:
                    key = prefix_fn(row)
                    if key is None:
                        continue
                    for addition in buckets.get(key, ()):
                        merged = dict(row)
                        merged.update(addition)
                        result.append(merged)
                return result
            for row in current:
                for addition in self._item_rows(item, row):
                    merged = dict(row)
                    merged.update(addition)
                    result.append(merged)
            return result

        condition = ast.make_conjunction(item.join_conjuncts)
        cond_fn = (
            self._compiler.compile(condition) if condition is not None else None
        )
        result = []
        for row in current:
            additions = list(self._item_rows(item, row))
            if item.join_type == "LEFT":
                matched = False
                for addition in additions:
                    merged = dict(row)
                    merged.update(addition)
                    if cond_fn is None or is_true(cond_fn(merged)):
                        matched = True
                        result.append(merged)
                if not matched:
                    null_row = dict(row)
                    for column in item.output_columns():
                        null_row[f"{item.alias}.{column}"] = None
                    result.append(null_row)
            elif item.join_type == "SEMI":
                for addition in additions:
                    merged = dict(row)
                    merged.update(addition)
                    if cond_fn is None or is_true(cond_fn(merged)):
                        result.append(row)
                        break
            elif item.join_type == "ANTI":
                if not any(
                    cond_fn is None or is_true(cond_fn({**row, **addition}))
                    for addition in additions
                ):
                    result.append(row)
            elif item.join_type == "ANTI_NA":
                rejected = False
                for addition in additions:
                    merged = dict(row)
                    merged.update(addition)
                    value = cond_fn(merged) if cond_fn is not None else True
                    if value is True or value is None:
                        rejected = True
                        break
                if not rejected:
                    result.append(row)
        return result

    def _item_rows(self, item: FromItem, binding: Row) -> Iterable[Row]:
        """Rows produced by one from-item, re-keyed with its alias.
        *binding* supplies outer/lateral correlation values."""
        if item.is_base_table:
            data = self._storage.get(item.table_name)
            prefix = item.alias
            for row_id, stored in enumerate(data.rows):
                row = {f"{prefix}.{name}": value for name, value in stored.items()}
                row[f"{prefix}.rowid"] = row_id
                yield row
        else:
            columns = item.output_columns()
            for values in self.evaluate(item.subquery, binding):
                yield {
                    f"{item.alias}.{name}": value
                    for name, value in zip(columns, values)
                }

    # -- grouping ----------------------------------------------------------------

    def _group_rows(self, block: QueryBlock, rows: list[Row]) -> list[Row]:
        aggregates = self._collect_aggregates(block)
        key_fns = [self._compiler.compile(g) for g in block.group_by]
        return evaluate_group_by(
            rows, block.group_by, key_fns, block.grouping_sets, aggregates
        )

    def _collect_aggregates(self, block: QueryBlock):
        calls: list[ast.FuncCall] = []
        seen: set[str] = set()

        def collect(expr: ast.Expr) -> None:
            if isinstance(expr, ast.WindowFunc):
                return
            if isinstance(expr, ast.FuncCall) and expr.is_aggregate:
                key = agg_key(expr)
                if key not in seen:
                    seen.add(key)
                    calls.append(expr)
                return
            for child in expr.children():
                collect(child)

        for item in block.select_items:
            collect(item.expr)
        for conjunct in block.having_conjuncts:
            collect(conjunct)
        for item in block.order_by:
            collect(item.expr)

        compiled = []
        for call in calls:
            is_star = bool(call.args) and isinstance(call.args[0], ast.Star)
            arg_fn = None if is_star else self._compiler.compile(call.args[0])
            compiled.append((call, arg_fn, is_star))
        return compiled

    # -- window functions -----------------------------------------------------------

    def _compute_windows(self, block: QueryBlock, rows: list[Row]) -> list[Row]:
        windows: list[ast.WindowFunc] = []
        seen: set[str] = set()
        for item in block.select_items:
            for node in item.expr.walk():
                if isinstance(node, ast.WindowFunc):
                    key = window_key(node)
                    if key not in seen:
                        seen.add(key)
                        windows.append(node)
        if not windows:
            return rows
        rows = [dict(row) for row in rows]
        for window in windows:
            compute_window(window, rows, self._compiler, _sort_key)
        return rows


class _Runner:
    """SubqueryRunner implementation backed by the reference evaluator.

    Results are memoised on the subquery's correlation values — a pure
    speed-up (evaluation is deterministic), mirroring the TIS caching of
    the real engine."""

    def __init__(self, evaluator: ReferenceEvaluator):
        self._evaluator = evaluator
        self._cache: dict[tuple, list[tuple]] = {}
        self._corr_keys: dict[int, tuple[str, ...]] = {}

    def _rows(self, sub: ast.SubqueryExpr, outer_row: Row) -> list[tuple]:
        keys = self._corr_keys.get(id(sub))
        if keys is None:
            keys = tuple(sorted({
                f"{ref.qualifier}.{ref.name}"
                for ref in sub.query.correlation_refs()
            }))
            self._corr_keys[id(sub)] = keys
        cache_key = (id(sub.query),) + tuple(outer_row.get(k) for k in keys)
        cached = self._cache.get(cache_key)
        if cached is None:
            cached = self._evaluator.evaluate(sub.query, outer_row)
            self._cache[cache_key] = cached
        return cached

    def scalar(self, sub: ast.SubqueryExpr, outer_row: Row) -> object:
        rows = self._rows(sub, outer_row)
        if not rows:
            return None
        if len(rows) > 1:
            raise ExecutionError("single-row subquery returned more than one row")
        return rows[0][0]

    def exists(self, sub: ast.SubqueryExpr, outer_row: Row) -> bool:
        return bool(self._rows(sub, outer_row))

    def in_probe(self, sub: ast.SubqueryExpr, left_values: tuple,
                 outer_row: Row) -> object:
        rows = self._rows(sub, outer_row)
        saw_null = False
        for row in rows:
            verdict = _row_equal(left_values, row)
            if verdict is True:
                return True
            if verdict is None:
                saw_null = True
        return None if saw_null else False

    def quantified(self, sub: ast.SubqueryExpr, left_value: object,
                   outer_row: Row) -> object:
        rows = self._rows(sub, outer_row)
        results = [sql_compare(sub.op, left_value, row[0]) for row in rows]
        if sub.quantifier == "ANY":
            if any(r is True for r in results):
                return True
            if any(r is None for r in results):
                return None
            return False
        # ALL
        if any(r is False for r in results):
            return False
        if any(r is None for r in results):
            return None
        return True


def _row_equal(left: tuple, right: tuple) -> object:
    saw_null = False
    for a, b in zip(left, right):
        verdict = sql_eq(a, b)
        if verdict is False:
            return False
        if verdict is None:
            saw_null = True
    return None if saw_null else True


class _SortKey:
    """Total order over possibly-NULL values: Oracle places NULLs last in
    ascending order and first in descending order."""

    __slots__ = ("value", "null_rank")

    def __init__(self, value: object, descending: bool):
        self.value = value
        # In both directions, after `reverse` is applied, NULLs must land
        # at Oracle's position: rank NULLs above everything when the sort
        # is ascending (last) and above everything when descending too
        # (reverse puts them first).
        self.null_rank = 1 if value is None else 0

    def __lt__(self, other: "_SortKey") -> bool:
        if self.null_rank != other.null_rank:
            return self.null_rank < other.null_rank
        if self.value is None:
            return False
        return self.value < other.value

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _SortKey)
            and self.null_rank == other.null_rank
            and self.value == other.value
        )


def _sort_key(value: object, descending: bool) -> _SortKey:
    return _SortKey(value, descending)
