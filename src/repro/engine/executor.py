"""Plan executor: interprets physical plans with work-unit accounting.

The executor is generator-based so that COUNT STOPKEY (ROWNUM) limits
stop upstream work, exactly as the optimizer's stop-key cost model
assumes.  Every operator charges work units using the same
:class:`~repro.optimizer.costmodel.CostModel` constants the optimizer
estimated with, so "estimated cost" and "measured work" share a currency
and benchmark improvements are deterministic.

Subquery predicates that survived unnesting execute here under tuple
iteration semantics through :class:`TisSubqueryRunner`: per outer row,
the subquery's plan runs with the outer row as a binding, and results are
cached keyed on the correlation values — the caching behaviour §2.1.1 and
§2.2.1 of the paper describe.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ..catalog.schema import Catalog
from ..errors import ExecutionError, UnsupportedError
from ..optimizer.costmodel import DEFAULT_COST_MODEL, CostModel
from ..optimizer.plans import (
    Distinct,
    Filter,
    GroupBy,
    HashJoin,
    IndexScan,
    Limit,
    MergeJoin,
    NestedLoopJoin,
    Plan,
    Project,
    SetOp,
    Sort,
    TableScan,
    ViewScan,
    WindowCompute,
)
from ..qtree.blocks import QueryNode
from ..resilience import CancelToken, faults
from ..sql import ast
from .expressions import (
    ExpressionCompiler,
    FunctionRegistry,
    Row,
    is_true,
    sql_compare,
)
from .grouping import evaluate_group_by
from .reference import _row_equal, _sort_key
from .tables import Storage
from .windows import compute_window


@dataclass
class ExecStats:
    """Execution accounting for one query."""

    work_units: float = 0.0
    rows_out: int = 0
    subquery_invocations: int = 0
    subquery_cache_hits: int = 0
    #: which engine produced this run: "row" or "vector"
    executor_mode: str = "row"
    operator_rows: dict[str, int] = field(default_factory=dict)
    #: actual rows emitted per plan node (keyed by id(plan)); consumed by
    #: Plan.describe(actual_rows=...) for EXPLAIN ANALYZE output
    node_rows: dict[int, int] = field(default_factory=dict)
    #: filled only under ``analyze=True``: times each node's generator
    #: was instantiated (a parameterised NLJ inner re-runs per outer row)
    node_invocations: dict[int, int] = field(default_factory=dict)
    #: filled only under ``analyze=True``: inclusive wall-clock seconds
    #: spent producing each node's rows (children included; EXPLAIN
    #: ANALYZE subtracts direct children to report self-time)
    node_seconds: dict[int, float] = field(default_factory=dict)

    def charge(self, units: float) -> None:
        self.work_units += units


class Executor:
    """Executes plans against storage.

    ``plan_subquery`` is a callable ``QueryNode -> Plan`` used for
    subqueries still embedded in predicates (TIS); the Database facade
    wires it to the physical optimizer with annotation reuse.
    """

    def __init__(
        self,
        storage: Storage,
        catalog: Catalog,
        functions: Optional[FunctionRegistry] = None,
        plan_subquery: Optional[Callable[[QueryNode], Plan]] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ):
        self._storage = storage
        self._catalog = catalog
        self._functions = functions or FunctionRegistry()
        self._plan_subquery = plan_subquery
        self._cm = cost_model

    def execute(
        self,
        plan: Plan,
        binding: Optional[Row] = None,
        binds: Optional[dict] = None,
        token: Optional[CancelToken] = None,
        analyze: bool = False,
    ) -> tuple[list[tuple], ExecStats]:
        """Run *plan* to completion; returns output tuples and stats.

        *binds* maps bind-variable keys (lowercase, as on
        :class:`~repro.sql.ast.BindParam`) to their values for this run.
        *token* arms cooperative cancellation: row loops poll it and the
        run aborts with StatementTimeout/StatementCancelled when it trips.
        *analyze* wraps every node's row generator in a profiler counting
        invocations and wall-clock inclusive time (EXPLAIN ANALYZE); off,
        the dispatch path pays one boolean test and fills neither dict.
        """
        stats = ExecStats()
        run = _PlanRun(self, stats, binds, token, analyze)
        rows = [run.output_tuple(row) for row in run.rows(plan, binding or {})]
        stats.rows_out = len(rows)
        return rows, stats


class _PlanRun:
    """State for one plan execution (stats, subquery caches)."""

    def __init__(self, executor: Executor, stats: ExecStats,
                 binds: Optional[dict] = None,
                 token: Optional[CancelToken] = None,
                 analyze: bool = False):
        self._executor = executor
        self._storage = executor._storage
        self._catalog = executor._catalog
        self._cm = executor._cm
        #: None in the common case — hot loops hoist ``token.check`` into
        #: a local and pay one ``is None`` test per row when disarmed
        self._token = token
        #: EXPLAIN ANALYZE profiling; False keeps dispatch allocation-free
        self._analyze = analyze
        self.stats = stats
        self._runner = TisSubqueryRunner(self)
        self._compiler = ExpressionCompiler(
            executor._functions, self._runner, binds
        )
        self._predicate_cache: dict[int, Callable[[Row], object]] = {}
        self._expr_cache: dict[int, Callable[[Row], object]] = {}
        self._subquery_plans: dict[int, Plan] = {}
        self._subquery_results: dict[tuple, list[tuple]] = {}

    # -- helpers ---------------------------------------------------------------

    def _compiled(self, expr: ast.Expr) -> Callable[[Row], object]:
        fn = self._expr_cache.get(id(expr))
        if fn is None:
            fn = self._compiler.compile(expr)
            self._expr_cache[id(expr)] = fn
        return fn

    def _count(self, plan: Plan, n: int = 1) -> None:
        label = type(plan).__name__
        self.stats.operator_rows[label] = self.stats.operator_rows.get(label, 0) + n
        self.stats.node_rows[id(plan)] = self.stats.node_rows.get(id(plan), 0) + n

    def output_tuple(self, row: Row) -> tuple:
        width = row.get("#width")
        if width is None:
            raise ExecutionError("top-level plan does not produce output rows")
        return tuple(row.get(f"#out:{i}") for i in range(width))

    # -- dispatch ---------------------------------------------------------------

    def rows(self, plan: Plan, binding: Row) -> Iterator[Row]:
        name = type(plan).__name__
        faults.check(f"executor.{name}", self._token)
        method = getattr(self, f"_run_{name.lower()}", None)
        if method is None:
            raise UnsupportedError(f"no executor for plan node {name}")
        if not self._analyze:
            return method(plan, binding)
        node_id = id(plan)
        invocations = self.stats.node_invocations
        invocations[node_id] = invocations.get(node_id, 0) + 1
        return self._profiled(method(plan, binding), node_id)

    def _profiled(self, rows: Iterator[Row], node_id: int) -> Iterator[Row]:
        """Meter one node's generator: wall-clock spent inside ``next()``
        (children included — they are metered wrappers themselves, and
        EXPLAIN ANALYZE subtracts direct children for self-time)."""
        seconds = self.stats.node_seconds
        clock = time.perf_counter
        while True:
            start = clock()
            try:
                row = next(rows)
            except StopIteration:
                seconds[node_id] = (
                    seconds.get(node_id, 0.0) + clock() - start
                )
                return
            seconds[node_id] = seconds.get(node_id, 0.0) + clock() - start
            yield row

    # -- leaves ---------------------------------------------------------------

    def _run_tablescan(self, plan: TableScan, binding: Row) -> Iterator[Row]:
        cm = self._cm
        data = self._storage.get(plan.table_name)
        predicates = [self._compiled(c) for c in plan.conjuncts]
        prefix = plan.alias
        n_pred = len(predicates)
        check = self._token.check if self._token is not None else None
        for row_id, stored in enumerate(data.rows):
            if check is not None:
                check()
            self.stats.charge(cm.scan_row + cm.predicate_eval * n_pred)
            row = dict(binding)
            for name, value in stored.items():
                row[f"{prefix}.{name}"] = value
            row[f"{prefix}.rowid"] = row_id
            if all(is_true(p(row)) for p in predicates):
                self._count(plan)
                yield row

    def _run_indexscan(self, plan: IndexScan, binding: Row) -> Iterator[Row]:
        cm = self._cm
        data = self._storage.get(plan.table_name)
        index_data = data.index_named(plan.index.name)
        eq_fns = [(column, self._compiled(expr)) for column, expr in plan.eq_binds]
        range_fn = None
        if plan.range_bind is not None:
            _column, op, expr = plan.range_bind
            range_fn = (op, self._compiled(expr))
        predicates = [self._compiled(c) for c in plan.post_conjuncts]
        prefix_values = tuple(fn(binding) for _c, fn in eq_fns)
        self.stats.charge(cm.index_probe)
        if any(v is None for v in prefix_values):
            return
        if range_fn is not None:
            op, fn = range_fn
            range_value = fn(binding)
            if range_value is None:
                return
            row_ids = index_data.scan(prefix_values, op, range_value)
        else:
            row_ids = index_data.scan(prefix_values)
        alias = plan.alias
        n_pred = len(predicates)
        check = self._token.check if self._token is not None else None
        for row_id in row_ids:
            if check is not None:
                check()
            self.stats.charge(cm.index_row + cm.predicate_eval * n_pred)
            stored = data.rows[row_id]
            row = dict(binding)
            for name, value in stored.items():
                row[f"{alias}.{name}"] = value
            row[f"{alias}.rowid"] = row_id
            if all(is_true(p(row)) for p in predicates):
                self._count(plan)
                yield row

    def _run_viewscan(self, plan: ViewScan, binding: Row) -> Iterator[Row]:
        cm = self._cm
        predicates = [self._compiled(c) for c in plan.conjuncts]
        alias = plan.alias
        columns = plan.column_names
        for child_row in self.rows(plan.child, binding):
            self.stats.charge(cm.materialise_row)
            width = child_row.get("#width", 0)
            row = dict(binding)
            for i in range(min(width, len(columns))):
                row[f"{alias}.{columns[i]}"] = child_row.get(f"#out:{i}")
            if all(is_true(p(row)) for p in predicates):
                self._count(plan)
                yield row

    # -- joins ---------------------------------------------------------------

    def _null_extend(self, row: Row, right: Plan) -> Row:
        extended = dict(row)
        for alias in right.aliases:
            for key in self._right_keys_of(right, alias):
                extended[key] = None
        return extended

    def _right_keys_of(self, right: Plan, alias: str) -> list[str]:
        if isinstance(right, (TableScan, IndexScan)):
            table = self._catalog.table(right.table_name)
            return [f"{alias}.{c}" for c in table.column_names + ["rowid"]]
        if isinstance(right, ViewScan):
            return [f"{alias}.{c}" for c in right.column_names]
        keys: list[str] = []
        for child in right.children():
            keys.extend(self._right_keys_of(child, alias)
                        if alias in child.aliases else [])
        return keys

    def _run_nestedloopjoin(self, plan: NestedLoopJoin, binding: Row) -> Iterator[Row]:
        cm = self._cm
        predicates = [self._compiled(c) for c in plan.conjuncts]
        parameterised = bool(_plan_dependencies(plan.right) & plan.left.aliases)
        materialised: Optional[list[Row]] = None
        semi_like = plan.join_type in ("SEMI", "ANTI", "ANTI_NA")
        probe_cache: dict[tuple, bool] = {}
        cache_key_fns = (
            self._probe_key_fns(plan) if semi_like else []
        )

        def inner_rows(left_row: Row) -> Iterator[Row]:
            nonlocal materialised
            if parameterised:
                yield from self.rows(plan.right, left_row)
                return
            if materialised is None:
                materialised = list(self.rows(plan.right, binding))
            for right_row in materialised:
                merged = dict(left_row)
                merged.update(right_row)
                yield merged

        check = self._token.check if self._token is not None else None
        for left_row in self.rows(plan.left, binding):
            if check is not None:
                check()
            if semi_like and cache_key_fns:
                key = tuple(fn(left_row) for fn in cache_key_fns)
                self.stats.charge(cm.tis_cache_probe)
                cached = probe_cache.get(key)
                if cached is not None:
                    self.stats.subquery_cache_hits += 1
                    if self._emit_for_match(plan.join_type, cached):
                        self._count(plan)
                        yield left_row
                    continue
            else:
                key = None

            if plan.join_type == "INNER":
                for merged in inner_rows(left_row):
                    self.stats.charge(cm.pipeline_row
                                      + cm.predicate_eval * len(predicates))
                    if all(is_true(p(merged)) for p in predicates):
                        self._count(plan)
                        yield merged
            elif plan.join_type == "LEFT":
                matched = False
                for merged in inner_rows(left_row):
                    self.stats.charge(cm.pipeline_row
                                      + cm.predicate_eval * len(predicates))
                    if all(is_true(p(merged)) for p in predicates):
                        matched = True
                        self._count(plan)
                        yield merged
                if not matched:
                    self._count(plan)
                    yield self._null_extend(left_row, plan.right)
            else:
                verdict = self._probe_match(
                    plan, left_row, inner_rows, predicates
                )
                if key is not None:
                    probe_cache[key] = verdict
                if self._emit_for_match(plan.join_type, verdict):
                    self._count(plan)
                    yield left_row

    def _probe_key_fns(self, plan: NestedLoopJoin):
        """Functions extracting, from a left row, every value the probe
        result depends on: left-side columns of the join condition plus
        any left-side values the (parameterised) right plan binds on —
        index-probe binds and lateral-view correlation columns.  Returns
        an empty list (caching disabled) if a dependency cannot be
        enumerated."""
        keys: list[str] = []
        for conjunct in plan.conjuncts:
            for col in ast.column_refs_in(conjunct):
                if col.qualifier in plan.left.aliases:
                    keys.append(f"{col.qualifier}.{col.name}")
        if not self._collect_bind_keys(plan.right, plan.left.aliases, keys):
            return []
        unique = sorted(set(keys))
        return [lambda row, k=k: row.get(k) for k in unique]

    def _collect_bind_keys(self, plan: Plan, left_aliases: frozenset,
                           keys: list[str]) -> bool:
        """Append the left-row keys *plan* binds on; False if unknown."""
        if isinstance(plan, IndexScan):
            exprs = [e for _c, e in plan.eq_binds]
            if plan.range_bind is not None:
                exprs.append(plan.range_bind[2])
            for expr in exprs:
                for col in ast.column_refs_in(expr):
                    if col.qualifier in left_aliases:
                        keys.append(f"{col.qualifier}.{col.name}")
        elif isinstance(plan, ViewScan):
            for qualifier, name in plan.correlation_keys:
                if qualifier in left_aliases:
                    keys.append(f"{qualifier}.{name}")
        for child in plan.children():
            if not self._collect_bind_keys(child, left_aliases, keys):
                return False
        return True

    def _probe_match(self, plan, left_row, inner_rows, predicates) -> bool:
        """For SEMI/ANTI: True when a match exists.  For ANTI_NA a row
        whose condition evaluates UNKNOWN also counts as a match (the left
        row must then be rejected)."""
        cm = self._cm
        null_aware = plan.join_type == "ANTI_NA"
        for merged in inner_rows(left_row):
            self.stats.charge(cm.pipeline_row
                              + cm.predicate_eval * len(predicates))
            if not predicates:
                return True
            saw_null = False
            all_true = True
            for predicate in predicates:
                value = predicate(merged)
                if value is None:
                    saw_null = True
                    all_true = False
                elif value is not True:
                    all_true = False
                    saw_null = False
                    break
            if all_true:
                return True
            if null_aware and saw_null:
                return True
        return False

    @staticmethod
    def _emit_for_match(join_type: str, matched: bool) -> bool:
        if join_type == "SEMI":
            return matched
        return not matched  # ANTI / ANTI_NA

    def _run_hashjoin(self, plan: HashJoin, binding: Row) -> Iterator[Row]:
        cm = self._cm
        left_key_fns = [self._compiled(k) for k in plan.left_keys]
        right_key_fns = [self._compiled(k) for k in plan.right_keys]
        residuals = [self._compiled(c) for c in plan.residual_conjuncts]

        check = self._token.check if self._token is not None else None
        table: dict[tuple, list[Row]] = {}
        build_has_null_key = False
        for right_row in self.rows(plan.right, binding):
            if check is not None:
                check()
            self.stats.charge(cm.hash_row)
            key = tuple(fn(right_row) for fn in right_key_fns)
            if any(v is None for v in key):
                build_has_null_key = True
                continue
            table.setdefault(key, []).append(right_row)

        join_type = plan.join_type
        for left_row in self.rows(plan.left, binding):
            if check is not None:
                check()
            self.stats.charge(cm.hash_row)
            key = tuple(fn(left_row) for fn in left_key_fns)
            key_has_null = any(v is None for v in key)
            matches = [] if key_has_null else table.get(key, [])

            if join_type in ("INNER", "LEFT"):
                matched = False
                for right_row in matches:
                    merged = dict(left_row)
                    merged.update(right_row)
                    self.stats.charge(
                        cm.pipeline_row + cm.predicate_eval * len(residuals)
                    )
                    if all(is_true(p(merged)) for p in residuals):
                        matched = True
                        self._count(plan)
                        yield merged
                if join_type == "LEFT" and not matched:
                    self._count(plan)
                    yield self._null_extend(left_row, plan.right)
                continue

            matched = False
            for right_row in matches:
                merged = dict(left_row)
                merged.update(right_row)
                self.stats.charge(
                    cm.pipeline_row + cm.predicate_eval * len(residuals)
                )
                if all(is_true(p(merged)) for p in residuals):
                    matched = True
                    break
            if join_type == "SEMI":
                if matched:
                    self._count(plan)
                    yield left_row
            elif join_type == "ANTI":
                if not matched:
                    self._count(plan)
                    yield left_row
            else:  # ANTI_NA: NULLs on either side mean "possible match".
                if table or build_has_null_key:
                    if matched or key_has_null or build_has_null_key:
                        continue
                self._count(plan)
                yield left_row

    def _run_mergejoin(self, plan: MergeJoin, binding: Row) -> Iterator[Row]:
        cm = self._cm
        left_key_fns = [self._compiled(k) for k in plan.left_keys]
        right_key_fns = [self._compiled(k) for k in plan.right_keys]
        residuals = [self._compiled(c) for c in plan.residual_conjuncts]

        left_rows = list(self.rows(plan.left, binding))
        right_rows = list(self.rows(plan.right, binding))
        self.stats.charge(cm.sort_cost(len(left_rows)) + cm.sort_cost(len(right_rows)))

        def sortable(rows: list[Row], fns) -> list[tuple[tuple, Row]]:
            return sorted(
                ((tuple(fn(r) for fn in fns), r) for r in rows),
                key=lambda pair: tuple(_sort_key(v, False) for v in pair[0]),
            )

        left_sorted = sortable(left_rows, left_key_fns)
        right_sorted = sortable(right_rows, right_key_fns)
        join_type = plan.join_type
        j = 0
        n_right = len(right_sorted)
        check = self._token.check if self._token is not None else None
        for key, left_row in left_sorted:
            if check is not None:
                check()
            self.stats.charge(cm.pipeline_row)
            if any(v is None for v in key):
                if join_type == "LEFT":
                    self._count(plan)
                    yield self._null_extend(left_row, plan.right)
                elif join_type in ("ANTI", "ANTI_NA"):
                    if join_type == "ANTI":
                        self._count(plan)
                        yield left_row
                continue
            while j < n_right and _key_less(right_sorted[j][0], key):
                j += 1
            matched = False
            k = j
            while k < n_right and right_sorted[k][0] == key:
                right_row = right_sorted[k][1]
                merged = dict(left_row)
                merged.update(right_row)
                self.stats.charge(
                    cm.pipeline_row + cm.predicate_eval * len(residuals)
                )
                if all(is_true(p(merged)) for p in residuals):
                    matched = True
                    if join_type in ("INNER", "LEFT"):
                        self._count(plan)
                        yield merged
                    else:
                        break
                k += 1
            if join_type == "LEFT" and not matched:
                self._count(plan)
                yield self._null_extend(left_row, plan.right)
            elif join_type == "SEMI" and matched:
                self._count(plan)
                yield left_row
            elif join_type in ("ANTI",) and not matched:
                self._count(plan)
                yield left_row

    # -- filters and post-join stages --------------------------------------------

    def _run_filter(self, plan: Filter, binding: Row) -> Iterator[Row]:
        cm = self._cm
        predicates = [self._compiled(c) for c in plan.conjuncts]
        extra = sum(
            self._executor._catalog.function_cost(node.name)
            for c in plan.conjuncts
            for node in c.walk()
            if isinstance(node, ast.FuncCall)
        )
        check = self._token.check if self._token is not None else None
        for row in self.rows(plan.child, binding):
            if check is not None:
                check()
            self.stats.charge(cm.predicate_eval * len(predicates) + extra)
            if all(is_true(p(row)) for p in predicates):
                self._count(plan)
                yield row

    def _run_groupby(self, plan: GroupBy, binding: Row) -> Iterator[Row]:
        cm = self._cm
        key_fns = [self._compiled(g) for g in plan.group_exprs]
        agg_specs = []
        for call in plan.aggregates:
            is_star = bool(call.args) and isinstance(call.args[0], ast.Star)
            arg_fn = None if is_star else self._compiled(call.args[0])
            agg_specs.append((call, arg_fn, is_star))

        rows = list(self.rows(plan.child, binding))
        per_row = cm.agg_row * max(len(agg_specs), 1)
        output = evaluate_group_by(
            rows,
            plan.group_exprs,
            key_fns,
            plan.grouping_sets,
            agg_specs,
            on_row=lambda: self.stats.charge(per_row),
            empty_base=binding,
        )
        check = self._token.check if self._token is not None else None
        for row in output:
            if check is not None:
                check()
            self.stats.charge(cm.pipeline_row)
            self._count(plan)
            yield row

    def _run_windowcompute(self, plan: WindowCompute, binding: Row) -> Iterator[Row]:
        cm = self._cm
        rows = [dict(r) for r in self.rows(plan.child, binding)]
        self.stats.charge(len(rows) * cm.window_row * len(plan.windows))
        for window in plan.windows:
            compute_window(window, rows, self._compiler, _sort_key)
        check = self._token.check if self._token is not None else None
        for row in rows:
            if check is not None:
                check()
            self._count(plan)
            yield row

    def _run_project(self, plan: Project, binding: Row) -> Iterator[Row]:
        cm = self._cm
        fns = [self._compiled(item.expr) for item in plan.select_items]
        width = len(fns)
        for row in self.rows(plan.child, binding):
            self.stats.charge(cm.pipeline_row)
            out = dict(row)
            for i, fn in enumerate(fns):
                out[f"#out:{i}"] = fn(row)
            out["#width"] = width
            self._count(plan)
            yield out

    def _run_distinct(self, plan: Distinct, binding: Row) -> Iterator[Row]:
        cm = self._cm
        seen: set[tuple] = set()
        for row in self.rows(plan.child, binding):
            self.stats.charge(cm.hash_row)
            key = self.output_tuple(row)
            if key not in seen:
                seen.add(key)
                self._count(plan)
                yield row

    def _run_sort(self, plan: Sort, binding: Row) -> Iterator[Row]:
        cm = self._cm
        rows = list(self.rows(plan.child, binding))
        self.stats.charge(cm.sort_cost(len(rows)))
        order_fns = [self._compiled(o.expr) for o in plan.order_by]
        for fn, item in reversed(list(zip(order_fns, plan.order_by))):
            rows.sort(
                key=lambda row, fn=fn, d=item.descending: _sort_key(fn(row), d),
                reverse=item.descending,
            )
        check = self._token.check if self._token is not None else None
        for row in rows:
            if check is not None:
                check()
            self._count(plan)
            yield row

    def _run_limit(self, plan: Limit, binding: Row) -> Iterator[Row]:
        emitted = 0
        if plan.count <= 0:
            return
        for row in self.rows(plan.child, binding):
            self._count(plan)
            yield row
            emitted += 1
            if emitted >= plan.count:
                return

    def _run_setop(self, plan: SetOp, binding: Row) -> Iterator[Row]:
        cm = self._cm
        check = self._token.check if self._token is not None else None

        def branch_tuples(branch: Plan) -> list[tuple]:
            return [self.output_tuple(r) for r in self.rows(branch, binding)]

        def emit(values: tuple) -> Row:
            row: Row = {"#width": len(values)}
            for i, value in enumerate(values):
                row[f"#out:{i}"] = value
            return row

        if plan.op == "UNION ALL":
            for branch in plan.branches:
                for values in branch_tuples(branch):
                    if check is not None:
                        check()
                    self.stats.charge(cm.pipeline_row)
                    self._count(plan)
                    yield emit(values)
            return
        if plan.op == "UNION":
            seen: set[tuple] = set()
            for branch in plan.branches:
                for values in branch_tuples(branch):
                    if check is not None:
                        check()
                    self.stats.charge(cm.hash_row)
                    if values not in seen:
                        seen.add(values)
                        self._count(plan)
                        yield emit(values)
            return
        left, right = plan.branches
        right_set = set(branch_tuples(right))
        self.stats.charge(cm.hash_row * len(right_set))
        seen = set()
        for values in branch_tuples(left):
            if check is not None:
                check()
            self.stats.charge(cm.hash_row)
            if values in seen:
                continue
            if (plan.op == "INTERSECT") == (values in right_set):
                seen.add(values)
                self._count(plan)
                yield emit(values)


class TisSubqueryRunner:
    """SubqueryRunner that plans (via the Database's optimizer) and
    executes subqueries per outer row, caching results on the correlation
    values."""

    def __init__(self, run: _PlanRun):
        # weak: the run owns this runner and the compiled closures calling
        # it, so a strong back-reference would make every run a cycle that
        # pins its storage snapshot until the cyclic GC gets to it
        self._run = weakref.ref(run)

    # -- plumbing -------------------------------------------------------------

    def _rows_for(self, sub: ast.SubqueryExpr, outer_row: Row) -> list[tuple]:
        run = self._run()
        node = sub.query
        if not isinstance(node, QueryNode):
            raise ExecutionError("subquery was not built into a query tree")
        corr_keys = self._correlation_keys(sub)
        cache_key = (id(node),) + tuple(outer_row.get(k) for k in corr_keys)
        run.stats.charge(run._cm.tis_cache_probe)
        cached = run._subquery_results.get(cache_key)
        if cached is not None:
            run.stats.subquery_cache_hits += 1
            return cached
        plan = run._subquery_plans.get(id(node))
        if plan is None:
            planner = run._executor._plan_subquery
            if planner is None:
                raise ExecutionError(
                    "executor has no subquery planner configured"
                )
            plan = planner(node)
            run._subquery_plans[id(node)] = plan
        run.stats.subquery_invocations += 1
        rows = [
            run.output_tuple(r) for r in run.rows(plan, dict(outer_row))
        ]
        run._subquery_results[cache_key] = rows
        return rows

    def _correlation_keys(self, sub: ast.SubqueryExpr) -> tuple[str, ...]:
        cached = getattr(sub, "_corr_keys", None)
        if cached is not None:
            return cached
        keys = tuple(
            sorted(
                {
                    f"{ref.qualifier}.{ref.name}"
                    for ref in sub.query.correlation_refs()
                }
            )
        )
        try:
            sub._corr_keys = keys  # type: ignore[attr-defined]
        except AttributeError:
            pass
        return keys

    # -- SubqueryRunner interface ---------------------------------------------

    def scalar(self, sub: ast.SubqueryExpr, outer_row: Row) -> object:
        rows = self._rows_for(sub, outer_row)
        if not rows:
            return None
        if len(rows) > 1:
            raise ExecutionError("single-row subquery returned more than one row")
        return rows[0][0]

    def exists(self, sub: ast.SubqueryExpr, outer_row: Row) -> bool:
        return bool(self._rows_for(sub, outer_row))

    def in_probe(self, sub: ast.SubqueryExpr, left_values: tuple,
                 outer_row: Row) -> object:
        rows = self._rows_for(sub, outer_row)
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
        rows = self._rows_for(sub, outer_row)
        results = [sql_compare(sub.op, left_value, row[0]) for row in rows]
        if sub.quantifier == "ANY":
            if any(r is True for r in results):
                return True
            if any(r is None for r in results):
                return None
            return False
        if any(r is False for r in results):
            return False
        if any(r is None for r in results):
            return None
        return True


def _plan_dependencies(plan: Plan) -> set[str]:
    """Aliases outside *plan* that its leaves depend on (parameterised
    index binds, lateral view references)."""
    deps: set[str] = set()
    if isinstance(plan, IndexScan):
        deps |= plan.outer_aliases()
    if isinstance(plan, ViewScan):
        deps |= set(plan.lateral_refs)
    for child in plan.children():
        deps |= _plan_dependencies(child)
    return deps - plan.aliases


def _key_less(a: tuple, b: tuple) -> bool:
    return tuple(_sort_key(v, False) for v in a) < tuple(_sort_key(v, False) for v in b)
